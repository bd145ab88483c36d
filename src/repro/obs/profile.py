"""Self-profiling of the reproduction harness itself.

Where the paper's metrics attribute *simulated* time, this module
attributes the harness's own *wall* time: elimination-list construction
vs. DAG build vs. cache lookups vs. the engine event loop vs. sweep
dispatch.  It adds no timer of its own:

* **Spans** — :func:`profile_run` attaches a trace
  (:mod:`repro.obs.tracing`) for its run, so the spans the planning chain
  records anyway (``graph`` around a build, ``elim`` and ``dag_build``
  inside it, ``simulate`` for each core dispatch or natively answered
  question) land in one tree, which :func:`fold_spans` folds by name.
* **cProfile hooks** — :func:`profile_run` wraps the serial pass in
  ``cProfile`` and reports the top cumulative functions next to the
  stage table, for drill-down past the span granularity.

Nesting: ``graph`` *contains* ``elim`` and ``dag_build``; its self time
is pure cache overhead.

Threads: a native call's points run side by side on its OpenMP team, so
the stages inside a ``sweep`` may sum past its wall time.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from repro.obs.tracing import RequestTrace, Span, attach, mint_trace_id, span

__all__ = [
    "fold_spans",
    "format_profile",
    "profile_run",
]


def _walk(root: Span):
    """Every span under ``root``, with whether a ``sweep`` span encloses it."""
    stack = [(sp, False) for sp in root.children]
    while stack:
        sp, in_sweep = stack.pop()
        yield sp, in_sweep
        in_sweep = in_sweep or sp.name == "sweep"
        stack.extend((child, in_sweep) for child in sp.children)


def fold_spans(root: Span) -> dict[str, dict[str, float]]:
    """``{name: {"seconds", "calls"}}`` over every span under ``root``.

    A ``simulate`` span under a ``sweep`` counts as ``dispatch_compute``:
    the sweep's points run side by side, so keeping them apart leaves
    ``simulate`` to the serial pass, one call a point.
    """
    stages: dict[str, dict[str, float]] = {}
    for sp, in_sweep in _walk(root):
        name = sp.name
        if in_sweep and name == "simulate":
            name = "dispatch_compute"
        entry = stages.setdefault(name, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += sp.duration
        entry["calls"] += 1
    return dict(sorted(stages.items()))


# --------------------------------------------------------------------- #
# harness profiling runs (the ``repro profile`` command)
# --------------------------------------------------------------------- #
def _sweep_points(m: int, n: int, config, count: int):
    """A small sweep around ``(m, n)`` — enough fan-out to matter."""
    ms = sorted({max(4, m >> i) for i in range(count)}, reverse=True)
    return [(mi, n, config) for mi in ms]


def profile_run(
    m: int = 64,
    n: int = 8,
    config=None,
    *,
    setup=None,
    sweep_points: int = 4,
    with_cprofile: bool = True,
    top: int = 15,
) -> dict:
    """Profile the harness over one config + a small sweep.

    Stages measured (serial pass, clean attribution): ``elim``
    (elimination list), ``dag_build`` (compiled-graph construction),
    ``graph`` (one build, enclosing both), ``simulate`` (engine
    loop).  The same points then go through :func:`~repro.bench.runner.
    run_config_sweep` (``sweep``, whose ``dispatch_compute`` stage is
    the batched event loop) to attribute sweep dispatch overhead; the
    sweep's cache probes read as ``cache``.  ``cache_overhead_s`` is the
    self time of ``graph``: 0 where the native call timed the stages, the
    glue around a build otherwise (no native core, a refused question).
    The memory cache is emptied first, and ``run_config`` keeps nothing,
    so the sweep plans and simulates every point on every call.
    Returns a JSON-ready report.
    """
    from repro.bench.runner import BenchSetup, run_config, run_config_sweep
    from repro.dag.cache import default_cache
    from repro.hqr.config import HQRConfig

    setup = setup or BenchSetup()
    if config is None:
        config = HQRConfig(
            p=setup.grid_p, q=setup.grid_q, a=4,
            low_tree="greedy", high_tree="fibonacci", domino=False,
        )
    points = _sweep_points(m, n, config, sweep_points)

    report: dict = {"m": m, "n": n, "config": str(config), "points": len(points)}
    default_cache().clear_memory()

    prof_ctx = cProfile.Profile() if with_cprofile else None
    trace = RequestTrace(mint_trace_id(), "profile", time.monotonic())
    with attach(trace):
        t0 = time.perf_counter()
        if prof_ctx is not None:
            prof_ctx.enable()
        for mi, ni, cfg in points:
            run_config(mi, ni, cfg, setup)
        if prof_ctx is not None:
            prof_ctx.disable()
        serial_s = time.perf_counter() - t0

        with span("sweep"):
            run_config_sweep(points, setup)
    stages = fold_spans(trace.root)
    report["stages"] = stages
    report["serial_wall_s"] = serial_s
    report["sweep_wall_s"] = stages["sweep"]["seconds"]
    report["cache_overhead_s"] = max(0.0, sum(
        sp.duration - sum(child.duration for child in sp.children)
        for sp, _ in _walk(trace.root)
        if sp.name == "graph"
    ))

    if prof_ctx is not None:
        buf = io.StringIO()
        stats = pstats.Stats(prof_ctx, stream=buf)
        stats.sort_stats("cumulative").print_stats(top)
        report["cprofile_top"] = _parse_pstats(buf.getvalue(), top)
        report["cprofile_text"] = buf.getvalue()
    return report


def _parse_pstats(text: str, top: int) -> list[dict]:
    """Extract (cumtime, ncalls, function) rows from pstats output."""
    rows = []
    in_table = False
    for line in text.splitlines():
        if line.lstrip().startswith("ncalls"):
            in_table = True
            continue
        if not in_table or not line.strip():
            continue
        parts = line.split(None, 5)
        if len(parts) < 6:
            continue
        try:
            cumtime = float(parts[3])
        except ValueError:
            continue
        rows.append(
            {"ncalls": parts[0], "cumtime_s": cumtime, "function": parts[5]}
        )
        if len(rows) >= top:
            break
    return rows


def format_profile(report: dict) -> str:
    """Human-readable rendering of a :func:`profile_run` report."""
    lines = [
        f"harness self-profile  (m={report['m']}, n={report['n']}, "
        f"{report['points']} sweep points, {report['config']})",
        f"  serial pass: {report['serial_wall_s']:.3f}s wall",
    ]
    for name, st in report["stages"].items():
        lines.append(
            f"    {name:>14}: {st['seconds']:8.3f}s  ({st['calls']} calls)"
        )
    lines.append(
        f"  cache overhead (graph - elim - dag_build): "
        f"{report['cache_overhead_s']:.3f}s"
    )
    if report.get("sweep_wall_s", 0) > 0:
        speedup = report["serial_wall_s"] / report["sweep_wall_s"]
        lines.append(
            f"  sweep: {report['sweep_wall_s']:.3f}s "
            f"({speedup:.1f}x vs serial)"
        )
    for row in report.get("cprofile_top", [])[:10]:
        lines.append(
            f"    {row['cumtime_s']:8.3f}s cum  {row['ncalls']:>10}  "
            f"{row['function']}"
        )
    return "\n".join(lines)
