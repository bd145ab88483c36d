"""Golden bitwise fixtures for the unified event-loop core.

The engine unification (ROADMAP item 5) is gated on proof, not hope:
before the four historical loops (reference, compiled-python,
compiled-C, resilient) were collapsed into :mod:`repro.runtime.core`,
this module ran a fixed set of seed configurations through the
*pre-refactor* engines and froze the results — makespans and busy times
as IEEE-754 hex strings, message counts, SHA-256 digests of the task and
communication traces, fault-recovery accounting, and R-factor
fingerprints from the numeric executor.

``tests/runtime/test_core_equivalence.py`` replays every case through
the unified core across its whole capability-flag matrix (C/python inner
loop, tracing, an attached trace, fault hooks, batched dispatch) and
compares against the frozen values; the ``core-equivalence`` CI job runs
``tools/capture_golden.py --check`` so any drift — an engine change, a
kernel-weight change, a tie-break regression — fails loudly instead of
silently invalidating the paper's numbers.

Event-loop quantities are compared **bitwise** (`float.hex`).  R factors
are hashed after a ``float64 -> float32`` cast: the executor multiplies
through BLAS, whose last-ULP results legitimately vary across CPU
micro-architectures, while any real regression is far larger than the
2^-24 relative slack the cast absorbs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.hqr.config import HQRConfig
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D, Layout

__all__ = [
    "GOLDEN_RELPATH",
    "FaultGoldenCase",
    "GoldenCase",
    "QRGoldenCase",
    "capture_fixture",
    "compare_fixture",
    "comm_digest",
    "fault_golden_cases",
    "float_hex",
    "golden_cases",
    "qr_golden_cases",
    "queue_digest",
    "trace_digest",
]

#: fixture location relative to the repository root
GOLDEN_RELPATH = "tests/runtime/fixtures/golden_core.json"


def float_hex(x: float) -> str:
    """Bit-exact serialization of one float."""
    return float(x).hex()


def trace_digest(trace) -> str:
    """SHA-256 over the task trace ``(task, node, start, end)``."""
    h = hashlib.sha256()
    for t, node, start, end in trace:
        h.update(f"{t},{node},{float_hex(start)},{float_hex(end)};".encode())
    return h.hexdigest()


def comm_digest(comm) -> str:
    """SHA-256 over the comm trace ``(producer, src, dst, depart, arrival)``."""
    h = hashlib.sha256()
    for t, src, dst, depart, arrival in comm:
        h.update(
            f"{t},{src},{dst},{float_hex(depart)},{float_hex(arrival)};".encode()
        )
    return h.hexdigest()


def queue_digest(queue) -> str:
    """SHA-256 over the ready-queue series ``(time, node, depth)``."""
    h = hashlib.sha256()
    for time, node, depth in queue:
        h.update(f"{float_hex(time)},{node},{depth};".encode())
    return h.hexdigest()


def _events_digest(events: list[dict]) -> str:
    """SHA-256 over the (time-sorted) fault event list."""
    return hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()
    ).hexdigest()


# --------------------------------------------------------------------- #
# the frozen case set
# --------------------------------------------------------------------- #
def _base_machine(**kw) -> Machine:
    base = dict(nodes=8, cores_per_node=3, latency=1.0e-5, bandwidth=1.0e9)
    base.update(kw)
    return Machine(**base)


@dataclass(frozen=True)
class GoldenCase:
    """One fault-free seed configuration pinned by the fixtures."""

    name: str
    m: int
    n: int
    b: int
    config: HQRConfig
    machine: Machine
    layout_fn: Callable[[], Layout]
    data_reuse: bool = False
    priority: str | None = None  # name in repro.verify.reference.priorities

    def layout(self) -> Layout:
        return self.layout_fn()

    def elims(self):
        from repro.hqr.hierarchy import hqr_elimination_list

        return hqr_elimination_list(self.m, self.n, self.config)

    def graph(self):
        from repro.verify.reference import TaskGraph

        return TaskGraph.from_eliminations(self.elims(), self.m, self.n)

    def priority_keys(self, graph):
        if self.priority is None:
            return None
        from repro.verify.reference.priorities import make_priority

        return make_priority(self.priority, graph)

    def priority_values(self, graph):
        """Per-task priority keys of ``graph``, or None for program order."""
        key = self.priority_keys(graph)
        return None if key is None else [key(t) for t in graph.tasks]


@dataclass(frozen=True)
class FaultGoldenCase:
    """One faulty seed configuration (a scenario over a base case)."""

    name: str
    base: GoldenCase
    scenario: str
    seed: int
    severity: float = 1.0


@dataclass(frozen=True)
class QRGoldenCase:
    """One numeric factorization whose R factor is fingerprinted."""

    name: str
    M: int
    N: int
    b: int
    seed: int
    config: HQRConfig = field(default_factory=HQRConfig)


def golden_cases() -> list[GoldenCase]:
    """The frozen fault-free case set (do not reorder or edit entries —
    append new ones and regenerate the fixture instead)."""
    cfg_a = HQRConfig(
        p=4, q=2, a=2, low_tree="greedy", high_tree="fibonacci", domino=False
    )
    cfg_b = HQRConfig(
        p=4, q=2, a=1, low_tree="binary", high_tree="greedy", domino=True
    )
    cfg_col = HQRConfig(
        p=8, q=1, a=2, low_tree="greedy", high_tree="binary", domino=True
    )
    cfg_small = HQRConfig(
        p=2, q=2, a=2, low_tree="fibonacci", high_tree="greedy", domino=False
    )
    base = _base_machine()
    return [
        GoldenCase(
            "flat-serialized", 16, 5, 28, cfg_a, base,
            lambda: BlockCyclic2D(4, 2),
        ),
        GoldenCase(
            "flat-data-reuse", 16, 5, 28, cfg_a, base,
            lambda: BlockCyclic2D(4, 2), data_reuse=True,
        ),
        GoldenCase(
            "flat-critical-path", 16, 5, 28, cfg_b, base,
            lambda: BlockCyclic2D(4, 2), priority="critical-path",
        ),
        GoldenCase(
            "flat-unserialized", 16, 5, 28, cfg_b,
            _base_machine(comm_serialized=False),
            lambda: BlockCyclic2D(4, 2),
        ),
        GoldenCase(
            "hierarchical", 16, 5, 28, cfg_a, _base_machine(site_size=2),
            lambda: BlockCyclic2D(4, 2),
        ),
        GoldenCase(
            "hierarchical-reuse", 12, 4, 40, cfg_small,
            Machine(
                nodes=4, cores_per_node=2, latency=1.0e-5,
                bandwidth=1.0e9, site_size=2,
            ),
            lambda: BlockCyclic2D(2, 2), data_reuse=True,
        ),
        GoldenCase(
            "infinite-bandwidth", 16, 5, 28, cfg_a,
            _base_machine(bandwidth=float("inf"), latency=0.0),
            lambda: BlockCyclic2D(4, 2),
        ),
        GoldenCase(
            "cyclic-1d", 12, 4, 40, cfg_col, base, lambda: Cyclic1D(8),
        ),
        GoldenCase(
            "odd-tile", 10, 3, 17, cfg_a, base, lambda: BlockCyclic2D(4, 2),
        ),
    ]


def fault_golden_cases() -> list[FaultGoldenCase]:
    """The frozen faulty case set (same append-only discipline)."""
    cases = golden_cases()
    flat, crit, hier = cases[0], cases[2], cases[4]
    return [
        FaultGoldenCase("crash", flat, "crash", seed=0),
        FaultGoldenCase("slowdown", flat, "slowdown", seed=1),
        FaultGoldenCase("message-drop", flat, "message-drop", seed=2),
        FaultGoldenCase("storm", hier, "storm", seed=3),
        FaultGoldenCase("crash-priority", crit, "crash", seed=4),
    ]


def qr_golden_cases() -> list[QRGoldenCase]:
    return [
        QRGoldenCase("tall", 48, 16, 8, seed=0, config=HQRConfig(p=2, a=2)),
        QRGoldenCase(
            "domino", 40, 24, 8, seed=1,
            config=HQRConfig(p=2, q=2, a=1, domino=True),
        ),
    ]


# --------------------------------------------------------------------- #
# capture & compare
# --------------------------------------------------------------------- #
def _run_scalar(case: GoldenCase) -> dict:
    from repro.verify.reference import ClusterSimulator

    graph = case.graph()
    sim = ClusterSimulator(
        case.machine,
        case.layout(),
        case.b,
        priority=case.priority_keys(graph),
        data_reuse=case.data_reuse,
        record_trace=True,
    )
    res = sim.run(graph)
    return {
        "ntasks": len(graph),
        "makespan": float_hex(res.makespan),
        "busy_seconds": float_hex(res.busy_seconds),
        "flops": float_hex(res.flops),
        "messages": res.messages,
        "bytes_sent": res.bytes_sent,
        "trace": trace_digest(res.trace),
        "comm": comm_digest(res.comm_trace),
    }


def _run_faulty(case: FaultGoldenCase) -> dict:
    from repro.resilience.faults import FaultSchedule
    from repro.resilience.simulate import run_with_faults

    base = case.base
    elims = base.elims()

    def run(schedule, **kw):
        return run_with_faults(
            elims, base.m, base.n, base.layout(), base.machine, base.b,
            schedule, prio=base.priority_values(base.graph()),
            data_reuse=base.data_reuse, **kw,
        )

    baseline = run(FaultSchedule()).makespan
    schedule = FaultSchedule.scenario(
        case.scenario,
        seed=case.seed,
        nodes=base.machine.nodes,
        horizon=baseline,
        severity=case.severity,
    )
    res = run(schedule, baseline_makespan=baseline, record_trace=True)
    return {
        "baseline_makespan": float_hex(baseline),
        "makespan": float_hex(res.makespan),
        "busy_seconds": float_hex(res.busy_seconds),
        "wasted_seconds": float_hex(res.wasted_seconds),
        "messages": res.messages,
        "tasks_reexecuted": res.tasks_reexecuted,
        "tasks_aborted": res.tasks_aborted,
        "refetch_messages": res.refetch_messages,
        "messages_dropped": res.messages_dropped,
        "retransmits": res.retransmits,
        "crashed_nodes": list(res.crashed_nodes),
        "trace": trace_digest(res.trace),
        "fault_events": _events_digest(res.fault_events),
    }


def _run_qr(case: QRGoldenCase) -> dict:
    import numpy as np

    from repro.core.api import qr

    rng = np.random.default_rng(case.seed)
    A = rng.standard_normal((case.M, case.N))
    res = qr(A, case.b, case.config)
    R = np.triu(res.R[: case.N, : case.N])
    return {
        "r_sha256": hashlib.sha256(
            np.ascontiguousarray(R, dtype=np.float32).tobytes()
        ).hexdigest(),
        "max_abs_r": float_hex(float(np.max(np.abs(R)))),
    }


def capture_fixture() -> dict:
    """Run every golden case through the current engines."""
    return {
        "comment": (
            "Golden bitwise fixtures captured from the pre-unification "
            "engines (reference / resilient loops). Regenerate only via "
            "tools/capture_golden.py and only on purpose: any diff here "
            "is a semantic engine change."
        ),
        "scalar": {c.name: _run_scalar(c) for c in golden_cases()},
        "faulty": {c.name: _run_faulty(c) for c in fault_golden_cases()},
        "qr": {c.name: _run_qr(c) for c in qr_golden_cases()},
    }


def compare_fixture(frozen: dict, fresh: dict) -> list[str]:
    """Field-level diff of two fixture dicts (empty = identical)."""
    diffs: list[str] = []
    for section in ("scalar", "faulty", "qr"):
        a, b = frozen.get(section, {}), fresh.get(section, {})
        for name in sorted(set(a) | set(b)):
            if name not in a:
                diffs.append(f"{section}/{name}: missing from frozen fixture")
                continue
            if name not in b:
                diffs.append(f"{section}/{name}: missing from fresh capture")
                continue
            for key in sorted(set(a[name]) | set(b[name])):
                va, vb = a[name].get(key), b[name].get(key)
                if va != vb:
                    diffs.append(
                        f"{section}/{name}/{key}: frozen={va!r} fresh={vb!r}"
                    )
    return diffs
