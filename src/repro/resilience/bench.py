"""Recovery benchmarking: the machinery behind ``repro faults``.

For each named scenario this sweeps a severity axis (crashed-node count,
slowdown factor, drop rate) and records the makespan-degradation and
recovery-overhead curves, plus — for crash scenarios — the
restart-from-scratch alternative (a fresh :mod:`repro.hqr` plan on the
shrunken grid) so the curves show where cone recovery beats replanned
restart.  The report also embeds a *real* end-to-end check: the
distributed engine factorizing a matrix with one worker killed mid-run,
gated on the numerical quality of the recovered factorization.

Everything is deterministic given ``(scenario, seed)``: same injected
events, same recovery schedule, same metrics, on every engine.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.runner import BenchSetup, bench_scale
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.resilience.faults import FaultSchedule, scenario_names
from repro.resilience.replan import replan_restart
from repro.resilience.simulate import run_with_faults

__all__ = [
    "distributed_kill_check",
    "format_resilience_report",
    "report_config",
    "resilience_report",
    "write_resilience_report",
]

#: severity axis per scenario (crash: nodes lost; slowdown: factor/2;
#: message-drop: rate/2%)
_SEVERITIES = {
    "crash": (1.0, 2.0, 3.0),
    "slowdown": (1.0, 2.0, 4.0),
    "message-drop": (1.0, 2.5, 5.0),
    "storm": (1.0, 2.0),
}


def _problem_size() -> tuple[int, int]:
    """Tile dimensions of the fault sweep, bounded by the bench scale."""
    scale = bench_scale()
    if scale == "small":
        return 24, 6
    if scale == "default":
        return 48, 8
    return 96, 12


def report_config(setup: BenchSetup) -> HQRConfig:
    """The configuration the fault sweep measures on ``setup``'s grid;
    ``repro faults --trace-out`` exports a run of the same one."""
    return HQRConfig(
        p=setup.grid_p, q=setup.grid_q, a=4, low_tree="greedy",
        high_tree="fibonacci", domino=False,
    )


def _scenario_points(
    name: str,
    elims,
    cfg: HQRConfig,
    setup: BenchSetup,
    m: int,
    n: int,
    seed: int,
    baseline: float,
    severities,
) -> list[dict]:
    points = []
    for severity in severities:
        schedule = FaultSchedule.scenario(
            name,
            seed=seed,
            nodes=setup.machine.nodes,
            horizon=baseline,
            severity=severity,
        )
        res = run_with_faults(
            elims, m, n, setup.layout, setup.machine, setup.b, schedule,
            baseline_makespan=baseline,
        )
        point = {
            "severity": severity,
            "makespan": res.makespan,
            "degradation": res.degradation,
            "recovery_overhead_s": res.recovery_overhead,
            "tasks_reexecuted": res.tasks_reexecuted,
            "tasks_aborted": res.tasks_aborted,
            "wasted_seconds": res.wasted_seconds,
            "messages": res.messages,
            "refetch_messages": res.refetch_messages,
            "messages_dropped": res.messages_dropped,
            "retransmits": res.retransmits,
            "crashed_nodes": list(res.crashed_nodes),
            "recovered": True,
        }
        if schedule.crashes:
            first = min(c.time for c in schedule.crashes)
            plan = replan_restart(
                m,
                n,
                cfg,
                setup.machine,
                setup.b,
                failed=schedule.crashed_nodes(),
                crash_time=first,
                detection_latency=schedule.detection_latency,
            )
            point["replanned_restart_makespan"] = plan.total_makespan
            point["replanned_config"] = str(plan.config)
            point["best_strategy"] = (
                "cone-recovery"
                if res.makespan <= plan.total_makespan
                else "replanned-restart"
            )
        points.append(point)
    return points


def distributed_kill_check(*, seed: int = 0) -> dict:
    """Factor with the real engine, kill one worker mid-run, check quality.

    Returns the §V-A-style residuals of the *recovered* factorization:
    ``r_diff`` against the LAPACK ``R`` and the Gram residual
    ``||A^T A - R^T R|| / ||A^T A||`` (equivalent to the orthogonality
    check without materializing ``Q``), plus the recovery statistics.
    """
    import numpy as np

    from repro.distributed.engine import ResilientComm, ResilientEngine, WorkerKill
    from repro.runtime.executor import numeric_graph
    from repro.tiles.layout import BlockCyclic2D

    b, m, n = 4, 8, 4
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m * b, n * b))
    cfg = HQRConfig(p=2, a=2, low_tree="greedy", high_tree="binary")
    layout = BlockCyclic2D(2, 2)
    graph, coords = numeric_graph(hqr_elimination_list(m, n, cfg), m, n, layout)
    comm = ResilientComm(4)
    engine = ResilientEngine(graph, coords, layout, comm)
    results = engine.run_threaded(A, b, kill=WorkerKill(rank=1, after_tasks=3))
    out = engine.gather_matrix(results, m * b, n * b, b)
    R = np.triu(out)[: n * b]
    r_ref = np.abs(np.linalg.qr(A, mode="r"))
    r_diff = float(np.max(np.abs(np.abs(R) - r_ref))) / max(
        float(np.max(r_ref)), 1.0
    )
    gram = A.T @ A
    gram_residual = float(
        np.linalg.norm(gram - R.T @ R) / np.linalg.norm(gram)
    )
    eps = float(np.finfo(np.float64).eps)
    passed = r_diff < 1e4 * eps and gram_residual < 1e4 * eps
    return {
        "passed": bool(passed),
        "r_diff": r_diff,
        "gram_residual": gram_residual,
        "workers_killed": 1,
        "recoveries": dict(engine.last_recoveries),
        "comm": comm.stats(),
    }


def resilience_report(
    *,
    scenarios=None,
    seed: int = 0,
    setup: BenchSetup | None = None,
    m: int | None = None,
    n: int | None = None,
    with_distributed_check: bool = True,
) -> dict:
    """Run the fault sweep and assemble the resilience report."""
    setup = setup or BenchSetup()
    size_m, size_n = _problem_size()
    m = size_m if m is None else m
    n = size_n if n is None else n
    names = tuple(scenarios) if scenarios else scenario_names()
    for name in names:
        if name not in _SEVERITIES:
            raise ValueError(
                f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}"
            )
    cfg = report_config(setup)
    elims = hqr_elimination_list(m, n, cfg)
    baseline = run_with_faults(
        elims, m, n, setup.layout, setup.machine, setup.b, FaultSchedule()
    ).makespan
    from repro.obs.provenance import run_metadata

    report: dict = {
        "benchmark": "resilience",
        "scale": bench_scale(),
        "meta": run_metadata(),
        "m": m,
        "n": n,
        "b": setup.b,
        "nodes": setup.machine.nodes,
        "config": str(cfg),
        "seed": seed,
        "baseline_makespan": baseline,
        "scenarios": {},
    }
    for name in names:
        report["scenarios"][name] = {
            "points": _scenario_points(
                name, elims, cfg, setup, m, n, seed, baseline,
                _SEVERITIES[name],
            )
        }
    if with_distributed_check:
        report["distributed_kill"] = distributed_kill_check(seed=seed)
    return report


def report_ok(report: dict) -> bool:
    """True when every scenario recovered and the engine check passed."""
    for sc in report["scenarios"].values():
        if not all(p["recovered"] for p in sc["points"]):
            return False
    kill = report.get("distributed_kill")
    return kill is None or kill["passed"]


def format_resilience_report(report: dict) -> str:
    """Human-readable rendering of a resilience report."""
    lines = [
        f"resilience benchmark  (scale={report['scale']}, "
        f"{report['m']} x {report['n']} tiles on {report['nodes']} nodes, "
        f"seed={report['seed']})",
        f"  fault-free makespan: {report['baseline_makespan']:.4f} s",
    ]
    for name, sc in report["scenarios"].items():
        lines.append(f"  {name}:")
        for p in sc["points"]:
            extra = ""
            if p["tasks_reexecuted"] or p["tasks_aborted"]:
                extra = (
                    f"  redo {p['tasks_reexecuted']}, "
                    f"aborted {p['tasks_aborted']}"
                )
            if p["messages_dropped"]:
                extra += f"  dropped {p['messages_dropped']}"
            if "replanned_restart_makespan" in p:
                extra += (
                    f"  vs restart {p['replanned_restart_makespan']:.4f}s "
                    f"-> {p['best_strategy']}"
                )
            lines.append(
                f"    severity {p['severity']:>4}: makespan "
                f"{p['makespan']:.4f}s  ({p['degradation']:.2f}x, "
                f"+{p['recovery_overhead_s']:.4f}s){extra}"
            )
    kill = report.get("distributed_kill")
    if kill is not None:
        lines.append(
            f"  distributed engine, 1 worker killed: "
            f"{'PASS' if kill['passed'] else 'FAIL'} "
            f"(dR {kill['r_diff']:.2e}, gram {kill['gram_residual']:.2e}, "
            f"recoveries {kill['recoveries']})"
        )
    return "\n".join(lines)


def write_resilience_report(report: dict, path: str | Path) -> None:
    """Write the resilience report as JSON."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
