"""One workload in one fresh interpreter; spoken to by ``run.py`` only.

Set-up is imports, C-core load, ``prepare()`` and one untimed warm-up
iteration; the moment it ends is reported as ``ready_at`` on the clock the
parent started the child by.  Exactly ``--iterations`` timed iterations
follow (none in a set-up-only child), each preceded by the workload's
untimed reset and followed by its untimed output check.  The last stdout
line is the report.  Exit code 3: the native C core could not be loaded, so
the numbers would time a different program.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NO_NATIVE_CORE = 3


def clock() -> float:
    """CLOCK_MONOTONIC: one clock for every process of the machine, so the
    parent can subtract its own reading from one taken here."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_repro():
    """``repro`` from this checkout's ``src/`` and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ModuleNotFoundError as exc:
        raise SystemExit(f"perf: cannot import repro from {SRC}: {exc}")
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(
            f"perf: imported repro from {repro.__file__}, not from {SRC}; "
            "refusing to measure a different program"
        )
    return repro


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def prepare_core() -> None:
    """Compile the C core into ``REPRO_CACHE_DIR`` and report on it."""
    import compileall

    import numpy

    repro = import_repro()
    # byte-compile once per checkout, so no measured child pays for it
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    from repro import _ccore

    t0 = time.perf_counter()
    native = _ccore.native_available()
    emit({
        "native_core": native,
        "openmp": _ccore.openmp_available(),
        "compile_s": time.perf_counter() - t0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "repro": repro.__version__,
    })


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + reaped) / 1024.0  # Linux reports KiB


def thread_count() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def dir_bytes(root: Path) -> int:
    if not root.is_dir():
        return 0
    return sum(f.stat().st_size for f in root.iterdir() if f.is_file())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; ``values`` need not be sorted."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def serve_stats(records, wall: float) -> dict:
    """Client-side latencies and the daemon's own breakdown, per request."""
    hot = [1e3 * (t1 - t0) for t0, t1, _ in records[0::2]]
    cold = [1e3 * (t1 - t0) for t0, t1, _ in records[1::2]]
    ok = [(t1 - t0, r.body) for t0, t1, r in records if r.status == 200]
    out = {
        "serve.hot_p50_ms": statistics.median(hot),
        "serve.hot_p95_ms": percentile(hot, 0.95),
        "serve.cold_p50_ms": statistics.median(cold),
        "serve.cold_p95_ms": percentile(cold, 0.95),
        "serve.req_per_s": len(records) / wall,
        "serve.shed": sum(r.shed for _, _, r in records),
    }
    if ok:
        for stage in tracing.SERVE_STAGES:
            out[f"serve.{stage}_ms"] = 1e3 * statistics.fmean(
                body["breakdown"][stage] for _, body in ok
            )
        out["serve.http_ms"] = 1e3 * statistics.fmean(
            latency - body["breakdown"]["total"] for latency, body in ok
        )
        out["serve.cache_hit_ratio"] = statistics.fmean(
            bool(body["cache_hit"]) for _, body in ok
        )
    return out


def run_workload(args) -> int:
    import_repro()
    from repro import _ccore

    t0 = time.perf_counter()
    native = _ccore.native_available()
    ccore_load_s = time.perf_counter() - t0
    if not native and not args.allow_python_core:
        sys.stderr.write(
            "perf: the native C core could not be loaded (no C compiler, or "
            "the build failed); the numbers would time the pure-Python event "
            "loop, which is a different program.  Pass --allow-python-core "
            "to measure anyway; the result is then marked comparable: false.\n"
        )
        return NO_NATIVE_CORE

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    expected = None if args.capture else workloads.load_expected()
    w = workloads.make(args.workload, args.seed, Path(args.tmp), expected)
    w.prepare()
    try:
        w.reset()
        out = w.run()
        attempted, failed = w.check(out)
        if args.capture:
            emit({"capture": w.capture(out)})
            return 0
        ready_at = clock()

        walls, cpus, traced_flags = [], [], []
        counts, counts_repeat = None, True
        layers, extras = [], []
        for i in range(args.iterations):
            w.reset()
            traced = tracer is not None and i % 2 == 1
            snap = w.cache.stats()
            cpu0 = time.process_time()
            if traced:
                with tracer.iteration(i) as root:
                    out = w.run()
                wall = root.duration
            else:
                t0 = time.perf_counter()
                out = w.run()
                wall = time.perf_counter() - t0
            cpus.append(time.process_time() - cpu0)
            walls.append(wall)
            traced_flags.append(traced)
            delta = w.cache.stats_since(snap)
            a, f = w.check(out)
            attempted += a
            failed += f
            now = {
                **w.counts(out),
                "dag.cache.mem_hits": delta["hit_memory"],
                "dag.cache.misses": delta["miss"],
                "dag.cache.stores": delta["store"],
            }
            if counts is None:
                counts = now
            elif now != counts:
                counts_repeat = False
            extra = {"dag.cache.bytes_stored": dir_bytes(w.cache.root)}
            if args.workload == "serve_mix":
                extra.update(serve_stats(out, wall))
            extras.append(extra)
            if traced:
                layers.append(tracing.layer_metrics(tracer.expanded(i), root))

        report = {
            "ready_at": ready_at,
            "walls": walls,
            "traced": traced_flags,
            "cpu_s": cpus,
            "attempted": attempted,
            "failed": failed,
            "counts": counts,
            "counts_repeat": counts_repeat,
            "extras": extras,
            "layers": layers,
            "peak_rss_mb": peak_rss_mb(),
            "threads": thread_count(),
            "ccore_load_s": ccore_load_s,
        }
        if tracer is not None:
            # one more pass with the disk cache warm and the memory cache
            # empty: what a load from disk costs
            w.cache.clear_memory()
            snap = w.cache.stats()
            with tracer.iteration("load"):
                w.run()
            report["load_s"] = sum(
                s.duration for s in tracer.spans
                if s.iteration == "load" and s.name == "dag.cache.get"
            )
            report["load_disk_hits"] = w.cache.stats_since(snap)["hit_disk"]
            tracer.write(args.spans)
        emit(report)
        return 0
    finally:
        w.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prepare-core", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--iterations", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp")
    ap.add_argument("--spans")
    ap.add_argument("--capture", action="store_true")
    ap.add_argument("--allow-python-core", action="store_true")
    args = ap.parse_args()
    if args.prepare_core:
        prepare_core()
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
