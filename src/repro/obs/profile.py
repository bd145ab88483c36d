"""Self-profiling of the reproduction harness itself.

Where the paper's metrics attribute *simulated* time, this module
attributes the harness's own *wall* time: elimination-list construction
vs. DAG build vs. cache lookups vs. the engine event loop vs. sweep
dispatch.  Two mechanisms:

* **Stage timers** — ``with stage("build"): ...`` accumulates wall
  seconds per named stage into the installed :class:`SelfProfile`.
  Inactive (no profile installed) the context manager is a single
  global read, so instrumented call sites cost nothing in production.
  ``repro.bench.runner`` is pre-wired.
* **cProfile hooks** — :func:`profile_run` wraps a representative
  sweep in ``cProfile`` and reports the top cumulative functions next
  to the stage table, for drill-down past the stage granularity.

Nesting: stages nest freely and each level accumulates its own wall
time, so ``graph`` (cache lookup + possible build) *contains* ``elim``
and ``dag_build`` — subtracting them out yields pure cache overhead.

Threads: a stage is busy time on whichever thread ran it.  The batched
sweep runs ``dispatch_compute`` (the C event loop, on its helper thread)
beside ``elim`` / ``dag_build`` (on the caller), so the stages inside a
``sweep`` may sum past its wall time; the excess is the overlap.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager

__all__ = [
    "SelfProfile",
    "format_profile",
    "profile_run",
    "profiling",
    "stage",
]


class SelfProfile:
    """Accumulated wall seconds and call counts per named stage."""

    def __init__(self) -> None:
        self.stages: dict[str, list[float]] = {}  # name -> [seconds, count]

    def add(self, name: str, seconds: float) -> None:
        entry = self.stages.get(name)
        if entry is None:
            self.stages[name] = [seconds, 1]
        else:
            entry[0] += seconds
            entry[1] += 1

    def seconds(self, name: str) -> float:
        return self.stages.get(name, [0.0, 0])[0]

    def to_dict(self) -> dict[str, dict[str, float]]:
        return {
            name: {"seconds": s, "calls": int(c)}
            for name, (s, c) in sorted(self.stages.items())
        }


_profile: SelfProfile | None = None


def active_profile() -> SelfProfile | None:
    return _profile


@contextmanager
def profiling():
    """Install a fresh :class:`SelfProfile`, yield it, uninstall."""
    global _profile
    prof = SelfProfile()
    _profile = prof
    try:
        yield prof
    finally:
        _profile = None


@contextmanager
def stage(name: str):
    """Time the enclosed block into the active profile (no-op if none)."""
    prof = _profile
    if prof is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        prof.add(name, time.perf_counter() - t0)


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
    ``graph`` (cache lookup incl. any build), ``simulate`` (engine
    loop).  The same points then go through :func:`~repro.bench.runner.
    run_config_sweep` (``sweep``, whose ``dispatch_compute`` sub-stage
    is the batched event loop) to attribute sweep dispatch overhead.
    The memory cache is emptied first, so the sweep finds its points
    unanswered on every call and times a dispatch, not lookups.
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
    with profiling() as sp:
        t0 = time.perf_counter()
        if prof_ctx is not None:
            prof_ctx.enable()
        for mi, ni, cfg in points:
            run_config(mi, ni, cfg, setup)
        if prof_ctx is not None:
            prof_ctx.disable()
        serial_s = time.perf_counter() - t0

        with stage("sweep"):
            run_config_sweep(points, setup)
    report["stages"] = sp.to_dict()
    report["serial_wall_s"] = serial_s
    report["sweep_wall_s"] = sp.seconds("sweep")
    graph_s = sp.seconds("graph")
    report["cache_overhead_s"] = max(
        0.0, graph_s - sp.seconds("elim") - sp.seconds("dag_build")
    )

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
            f"({speedup:.1f}x vs serial; includes cache hits)"
        )
    for row in report.get("cprofile_top", [])[:10]:
        lines.append(
            f"    {row['cumtime_s']:8.3f}s cum  {row['ncalls']:>10}  "
            f"{row['function']}"
        )
    return "\n".join(lines)
