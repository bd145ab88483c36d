"""Wall-time benchmark of the simulation pipeline itself.

This measures the reproduction's own machinery, not the simulated cluster:
for a figure-style sweep it times each pipeline stage — elimination-list
construction, DAG build, event-loop simulation — through both the
reference path (``TaskGraph`` + pure-Python simulator) and the compiled
path (:class:`~repro.dag.compiled.CompiledGraph` + array core), and
reports the end-to-end speedup.  ``repro bench`` drives it and can write
the report as JSON.  Its times describe one run on one host; what it
checks is that both pipelines give every point the same makespan.
Speed is judged by the repository benchmark in ``perf/``.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

from repro.bench.runner import (
    BenchSetup,
    bench_scale,
    run_config_sweep,
    sweep_m_values,
)
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list

__all__ = [
    "bench_report",
    "default_points",
    "format_mismatches",
    "format_report",
    "write_report",
]

#: tile columns of the benchmark sweep (the figures' N = 16 * 280)
N_TILES = 16


def default_points(setup: BenchSetup) -> list[tuple[int, int, HQRConfig]]:
    """The Figure 6(a) point set: high tree x a x the M sweep."""
    points = []
    for high in ("greedy", "binary", "flat", "fibonacci"):
        for a in (1, 4, 8):
            for m in sweep_m_values():
                cfg = HQRConfig(
                    p=setup.grid_p,
                    q=setup.grid_q,
                    a=a,
                    low_tree="greedy",
                    high_tree=high,
                    domino=False,
                )
                points.append((m, N_TILES, cfg))
    return points


def _time_stages(
    points: list[tuple[int, int, HQRConfig]],
    setup: BenchSetup,
    pipeline: str,
) -> dict:
    """Accumulated per-stage seconds over a point set, one pipeline.

    ``pipeline`` is ``"reference"`` (TaskGraph + pure-Python loop) or
    ``"compiled"`` (CompiledGraph + array core).  Stages are timed
    serially for clean attribution.
    """
    elim_s = build_s = sim_s = 0.0
    makespans = []
    for m, n, cfg in points:
        t0 = time.perf_counter()
        elims = hqr_elimination_list(m, n, cfg)
        t1 = time.perf_counter()
        if pipeline == "reference":
            from repro.dag.graph import TaskGraph

            graph = TaskGraph.from_eliminations(elims, m, n)
            t2 = time.perf_counter()
            res = setup.simulator().run_reference(graph)
        else:
            from repro.dag.compiled import compiled_from_eliminations
            from repro.runtime.core import run_core

            cg = compiled_from_eliminations(
                elims, m, n, setup.layout, setup.machine, setup.b
            )
            t2 = time.perf_counter()
            res = run_core(cg, setup.machine, setup.b).result
        t3 = time.perf_counter()
        elim_s += t1 - t0
        build_s += t2 - t1
        sim_s += t3 - t2
        makespans.append(res.makespan)
    return {
        "elim_s": elim_s,
        "build_s": build_s,
        "sim_s": sim_s,
        "total_s": elim_s + build_s + sim_s,
        "makespans": makespans,
    }


def bench_report(
    *,
    skip_reference: bool = False,
    setup: BenchSetup | None = None,
) -> dict:
    """Full pipeline benchmark: staged timings + sweep wall time.

    The staged sections time both pipelines serially over the Figure 6
    point set; ``sweep_wall_s`` is the same point set end-to-end through
    ``run_config_sweep`` (cache, dispatch and event loop together).
    """
    from repro._ccore import native_available
    from repro.obs.provenance import run_metadata

    setup = setup or BenchSetup()
    points = default_points(setup)
    report: dict = {
        "benchmark": "simulator-pipeline",
        "scale": bench_scale(),
        "native_core": native_available(),
        "platform": platform.platform(),
        "n_points": len(points),
        "points_m_max": max(m for m, _, _ in points),
        "meta": run_metadata(),
    }

    stages: dict = {}
    compiled = _time_stages(points, setup, "compiled")
    stages["compiled"] = {k: v for k, v in compiled.items() if k != "makespans"}
    if not skip_reference:
        reference = _time_stages(points, setup, "reference")
        stages["reference"] = {
            k: v for k, v in reference.items() if k != "makespans"
        }
        if reference["makespans"] != compiled["makespans"]:
            # record every diverging point; the CLI prints the diff and
            # exits non-zero so CI catches engine drift
            report["mismatches"] = [
                {
                    "m": m,
                    "n": n,
                    "config": str(cfg),
                    "reference_makespan": ref_mk,
                    "compiled_makespan": cmp_mk,
                }
                for (m, n, cfg), ref_mk, cmp_mk in zip(
                    points, reference["makespans"], compiled["makespans"]
                )
                if ref_mk != cmp_mk
            ]
        report["speedup_total"] = (
            reference["total_s"] / compiled["total_s"]
            if compiled["total_s"] > 0
            else float("inf")
        )
    report["stages"] = stages

    t0 = time.perf_counter()
    run_config_sweep(points, setup)
    report["sweep_wall_s"] = time.perf_counter() - t0
    return report


def format_report(report: dict) -> str:
    """Human-readable rendering of a bench report."""
    lines = [
        f"simulator pipeline benchmark  (scale={report['scale']}, "
        f"{report['n_points']} points, native_core={report['native_core']})",
    ]
    for name in ("reference", "compiled"):
        st = report["stages"].get(name)
        if st is None:
            continue
        lines.append(
            f"  {name:>9}: elim {st['elim_s']:7.3f}s  "
            f"build {st['build_s']:7.3f}s  sim {st['sim_s']:7.3f}s  "
            f"total {st['total_s']:7.3f}s"
        )
    if "speedup_total" in report:
        lines.append(f"  end-to-end speedup: {report['speedup_total']:.1f}x")
    lines.append(f"  cached parallel sweep: {report['sweep_wall_s']:.3f}s")
    return "\n".join(lines)


def format_mismatches(report: dict) -> str | None:
    """Engine-disagreement diff, or None when both engines agree."""
    lines: list[str] = []
    mismatches = report.get("mismatches")
    if mismatches:
        lines.append(
            f"ENGINE MISMATCH: compiled and reference simulators disagree "
            f"on {len(mismatches)} of {report['n_points']} points:"
        )
        for d in mismatches:
            lines.append(
                f"  m={d['m']:>4} n={d['n']:>3} {d['config']}: "
                f"reference {d['reference_makespan']!r} != "
                f"compiled {d['compiled_makespan']!r}"
            )
    return "\n".join(lines) if lines else None


def write_report(report: dict, path: str | Path) -> None:
    """Write a bench report as JSON."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
