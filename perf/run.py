"""Benchmark driver: times the elim -> DAG -> cache -> dispatch -> core ->
(tune | serve) chain from outside, one workload per fresh interpreter.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload (the form BENCHMARK.json names): with
        --trace 0 the end-to-end metrics, with --trace 1 the per-layer
        metrics; the last stdout line is the JSON result.
    python3 perf/run.py --seed 1
        a full set: ROUNDS round-robin passes over the four workloads,
        then the set-up-only children, then one traced child per workload;
        prints every metric by name with its unit and writes
        perf/out/result.json.
    python3 perf/run.py --smoke            a short full set (< 60 s)
    python3 perf/run.py --capture-expected regenerate perf/expected.json

Run length is in iterations, never in seconds: PLAN fixes how many timed
iterations each child makes, so two commits do equal work.  --seconds only
scales those counts (PLAN is sized for the run_seconds of BENCHMARK.json).

See perf/README.md for what each name means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150.0


class Plan(NamedTuple):
    """How much one run does; the same on every commit."""

    #: fresh children per workload that make timed iterations
    rounds: int
    #: further children per workload that stop after set-up
    setup_repeats: int
    #: timed iterations of one round child, per workload
    iterations: dict
    #: untraced + traced iterations of the one traced child, per workload
    traced_iterations: dict

    def scaled(self, factor: float) -> "Plan":
        def scale(counts: dict) -> dict:
            return {w: max(2, round(n * factor)) for w, n in counts.items()}

        return self._replace(
            iterations=scale(self.iterations),
            traced_iterations=scale(self.traced_iterations),
        )


PLAN = Plan(
    rounds=3,
    setup_repeats=1,
    iterations={
        "sweep_cold": 5, "sweep_warm": 10, "tune_chain": 5, "serve_mix": 7,
    },
    traced_iterations={
        "sweep_cold": 8, "sweep_warm": 24, "tune_chain": 8, "serve_mix": 12,
    },
)
SMOKE = Plan(
    rounds=1,
    setup_repeats=0,
    iterations=dict.fromkeys(PLAN.iterations, 2),
    traced_iterations=dict.fromkeys(PLAN.iterations, 2),
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def clock() -> float:
    """CLOCK_MONOTONIC, which ``child.py`` reads too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# --------------------------------------------------------------------- #
# children
# --------------------------------------------------------------------- #
def child_env(cache_dir: Path) -> dict:
    """The parent's environment without any REPRO_* switch, a private
    cache directory, this checkout's sources, bytecode kept out of src/."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class ChildFailed(RuntimeError):
    def __init__(self, code: int, what: str):
        super().__init__(f"perf child {what} exited with code {code}")
        self.code = code


def run_child(argv: list[str], env: dict) -> tuple[float, dict]:
    """Run one child to its end, or kill it after CHILD_TIMEOUT_S; return
    (the clock when it was started, its last stdout line decoded)."""
    started = clock()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *argv],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(124, " ".join(argv) + " (timed out, killed)")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(proc.returncode, " ".join(argv))
    return started, json.loads(out.strip().splitlines()[-1])


class Session:
    """One run of ``run.py``: a private directory under perf/out, the
    compiled C core, the host record, and what every child reported."""

    def __init__(self, seed: int, allow_python: bool = False,
                 fresh_core: bool = False):
        self.seed = seed
        self.allow_python = allow_python
        #: compile the C core anew (to time it) or keep it for later runs
        self.fresh_core = fresh_core
        self.children = 0
        #: workload -> reports of its round children / of its set-up-only
        #: children / the set-up time of both kinds
        self.reports: dict = {}
        self.setup_only: dict = {}
        self.setups: dict = {}

    def __enter__(self) -> "Session":
        OUT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        self.core_dir = (self.tmp if self.fresh_core else OUT) / "core"
        self.core_dir.mkdir(exist_ok=True)
        try:
            # compiled before any timing; every child gets a copy
            _, self.core = run_child(
                ["--prepare-core"], child_env(self.core_dir)
            )
        except BaseException:
            self.__exit__()
            raise
        self.host = host.HostRecord()
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def child(
        self, workload: str, iterations: int, *, trace: int = 0,
        extra: tuple = (),
    ) -> dict:
        """One fresh interpreter: set-up, then ``iterations`` timed ones."""
        self.children += 1
        cache = self.tmp / f"child-{self.children}"
        shutil.copytree(self.core_dir, cache)  # the core and no graph
        argv = [
            "--workload", workload, "--seed", str(self.seed),
            "--iterations", str(iterations), "--trace", str(trace),
            "--tmp", str(cache), *extra,
        ]
        if self.allow_python:
            argv.append("--allow-python-core")
        try:
            started, report = run_child(argv, child_env(cache))
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        self.host.probe()
        if "ready_at" in report:
            self.setups.setdefault(workload, []).append(
                report["ready_at"] - started
            )
        kind = self.reports if iterations else self.setup_only
        kind.setdefault(workload, []).append(report)
        return report

    def traced_child(self, workload: str, iterations: int) -> dict:
        spans = OUT / f"{workload}.spans.jsonl"
        return self.child(
            workload, iterations, trace=1, extra=("--spans", str(spans))
        )

    # -- results ---------------------------------------------------------- #
    def host_metrics(self) -> dict:
        m = self.host.metrics()
        if m["host.spin_spread"] > host.WARN_SPREAD:
            sys.stderr.write(
                f"perf: warning: the host probe varied by "
                f"{m['host.spin_spread']:.0%} during this run (median "
                f"{m['host.spin_ms']:.1f} ms, steal "
                f"{m['host.steal_share']:.1%}, load {m['host.loadavg']:.2f}); "
                f"the times below were taken on a noisy host\n"
            )
        return m

    def operations(self, workload: str) -> tuple[int, int, dict, bool]:
        """(attempted, failed, exact counts, whether they repeated)."""
        reports = self.reports[workload]
        checked = reports + self.setup_only.get(workload, [])  # warm-ups too
        attempted = sum(r["attempted"] for r in checked)
        failed = sum(r["failed"] for r in checked)
        counts = reports[0]["counts"]
        repeat = all(
            r["counts_repeat"] and r["counts"] == counts for r in reports
        )
        if workload != "serve_mix" and not repeat:
            # exact counts that differ between identical iterations mean
            # the program is not doing the same work each time: fail closed
            failed = max(failed, 1)
        return attempted, failed, counts, repeat

    def end_to_end(self, workload: str) -> dict:
        """Per end-to-end metric: its value and the samples behind it."""
        reports = self.reports[workload]
        # untraced iterations only: no end-to-end number includes tracing
        walls = [
            w for r in reports
            for w, traced in zip(r["walls"], r["traced"]) if not traced
        ]
        rss = [r["peak_rss_mb"] for r in reports]
        return {
            "wall_s": summary(statistics.median(walls), walls),
            "setup_s": summary(
                statistics.median(self.setups[workload]), self.setups[workload]
            ),
            "peak_rss_mb": summary(statistics.median(rss), rss),
        }

    def per_layer(self, workload: str, host_metrics: dict) -> dict:
        """Per-layer values of the traced child (medians over its traced
        iterations; counts from its first iteration)."""
        report = self.reports[workload][-1]
        values: dict = {}

        def medians(rows: list[dict]) -> None:
            for key in rows[0] if rows else ():
                values[key] = statistics.median(
                    r[key] for r in rows if key in r
                )

        medians(report["layers"])
        medians(report["extras"])
        values.update(report["counts"])
        proposals = values.get("tune.proposals", 0)
        if proposals:
            values["tune.memo_hit_ratio"] = values["tune.memo_hits"] / proposals
        walls, cpus = report["walls"], report["cpu_s"]
        plain = [w for w, t in zip(walls, report["traced"]) if not t]
        traced = [w for w, t in zip(walls, report["traced"]) if t]
        values.update({
            "dag.cache.load_s": report["load_s"],
            "dag.cache.disk_hits": report["load_disk_hits"],
            "proc.cpu_s": statistics.median(cpus),
            "proc.cpu_per_wall":
                statistics.median(c / w for c, w in zip(cpus, walls)),
            "proc.threads": report["threads"],
            "ccore.compile_s": self.core["compile_s"],
            "ccore.load_s": report["ccore_load_s"],
            "trace.overhead_share":
                statistics.median(traced) / statistics.median(plain) - 1.0,
            **host_metrics,
        })
        return values


def summary(value: float, samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": value, "q1": q1, "q3": q3, "min": min(samples),
        "n": len(samples),
    }


# --------------------------------------------------------------------- #
# one run of one workload: the form BENCHMARK.json names
# --------------------------------------------------------------------- #
def single_run(workload: str, seed: int, trace: int, plan: Plan,
               allow_python: bool) -> dict:
    spec = load_spec()
    with Session(seed, allow_python, fresh_core=bool(trace)) as s:
        if trace:
            s.traced_child(workload, plan.traced_iterations[workload])
        else:
            for _ in range(plan.rounds):
                s.child(workload, plan.iterations[workload])
            for _ in range(plan.setup_repeats):
                s.child(workload, 0)
        host_metrics = s.host_metrics()
        attempted, failed, _, _ = s.operations(workload)
        stats = s.end_to_end(workload)
        if trace:
            values = s.per_layer(workload, host_metrics)
            declared = spec["per_layer"]
        else:
            values = {name: st["value"] for name, st in stats.items()}
            declared = spec["end_to_end"]
    print_stats(workload, attempted, failed, stats)
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    print_metrics(workload, metrics)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }


def print_stats(workload: str, attempted: int, failed: int, stats: dict) -> None:
    w, s = stats["wall_s"], stats["setup_s"]
    print(
        f"# {workload} ops_attempted={attempted} ops_failed={failed} "
        f"wall_s n={w['n']} q1={w['q1']:.4f} q3={w['q3']:.4f} "
        f"min={w['min']:.4f}; setup_s n={s['n']} q1={s['q1']:.4f} "
        f"q3={s['q3']:.4f}"
    )


def print_metrics(workload: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


# --------------------------------------------------------------------- #
# a full set: every workload, interleaved
# --------------------------------------------------------------------- #
def git_sha() -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def full_set(seed: int, plan: Plan, allow_python: bool) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    t0 = time.perf_counter()
    with Session(seed, allow_python, fresh_core=True) as s:
        # round-robin, so that a workload's samples are spread over the
        # whole run and a noisy minute touches a part of each, not all of one
        for _ in range(plan.rounds):
            for name in names:
                s.child(name, plan.iterations[name])
        for _ in range(plan.setup_repeats):
            for name in names:
                s.child(name, 0)
        workloads = {name: {"end_to_end": s.end_to_end(name)} for name in names}
        for name in names:
            s.traced_child(name, plan.traced_iterations[name])
        host_metrics = s.host_metrics()
        for name in names:
            attempted, failed, counts, repeat = s.operations(name)
            values = s.per_layer(name, host_metrics)
            workloads[name].update({
                "per_layer": {
                    m["name"]: {
                        "value": values.get(m["name"], 0.0), "unit": m["unit"],
                    }
                    for m in spec["per_layer"]
                },
                "ops_attempted": attempted, "ops_failed": failed,
                "counts": counts, "counts_repeat": repeat,
                "threads": s.reports[name][0]["threads"],
            })
        core = s.core

    result = {
        "meta": {
            "git_sha": git_sha(),
            **{k: core[k] for k in ("python", "numpy", "repro")},
            "nproc": os.cpu_count(), "native_core": core["native_core"],
            "openmp": core["openmp"], "comparable": core["native_core"],
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "threads": {n: workloads[n]["threads"] for n in names},
            "seed": seed, "plan": plan._asdict(),
            "total_s": time.perf_counter() - t0,
        },
        "workloads": workloads,
    }
    with open(OUT / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, w in workloads.items():
        print_stats(name, w["ops_attempted"], w["ops_failed"], w["end_to_end"])
        print_metrics(name, {
            metric: {"value": st["value"], "unit": units[metric]}
            for metric, st in w["end_to_end"].items()
        })
        print(f"{name} ops_attempted {w['ops_attempted']} count")
        print(f"{name} ops_failed {w['ops_failed']} count")
        print_metrics(name, w["per_layer"])
    print(f"# full set in {result['meta']['total_s']:.0f} s, "
          f"wrote {OUT / 'result.json'}")
    return 1 if any(w["ops_failed"] for w in workloads.values()) else 0


def capture_expected() -> int:
    """Rewrite perf/expected.json from what this checkout computes."""
    got = {}
    with Session(seed=1) as s:
        for key, workload in (
            ("sweep", "sweep_cold"), ("tune", "tune_chain"),
            ("hot", "serve_mix"),
        ):
            got[key] = s.child(workload, 0, extra=("--capture",))["capture"]
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=1)
        fh.write("\n")
    print(f"wrote {HERE / 'expected.json'}")
    return 0


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--capture-expected", action="store_true")
    ap.add_argument("--allow-python-core", action="store_true")
    args = ap.parse_args()
    # a terminated driver still stops its child and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    plan = SMOKE if args.smoke else PLAN.scaled(args.seconds / spec["run_seconds"])
    try:
        if args.capture_expected:
            return capture_expected()
        if args.workload is None:
            return full_set(args.seed, plan, args.allow_python_core)
        result = single_run(
            args.workload, args.seed, args.trace, plan, args.allow_python_core
        )
    except ChildFailed as exc:
        sys.stderr.write(f"perf: {exc}\n")
        return exc.code or 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
