"""Failure-aware simulation: crashes, stragglers, and lost messages.

:func:`run_with_faults` plans an elimination list once with the C planner
(:func:`~repro.dag.compiled.compiled_from_eliminations`) and runs it
under a :class:`~repro.resilience.faults.FaultSchedule`.  With an empty
schedule it is the fault-free :func:`repro.runtime.core.run_core` on
that graph, bit for bit; with faults attached it runs the core's fault
branch (:class:`~repro.runtime.core.FaultHooks`) — pure Python and
engine-independent, so injected events and the recovery schedule are
reproducible anywhere.  This module owns the recovery *policy*
(re-planning targets, slowdown pre-seeding, result wrapping) while the
event-loop *mechanism* lives in the core.

Crash semantics (the recovery model, documented for `docs/distributed.md`):

* at crash time ``tc`` the node stops: tasks in flight there are aborted
  (their partial work is *wasted*, not counted as busy time);
* a finished task's output is durable on the node that ran it and on
  every node a copy had arrived at by ``tc``; transfers in flight from
  the dead node are lost;
* the **recovery cone** is the transitive closure of lost outputs over
  the needs of unfinished tasks: a finished task re-executes iff no
  surviving replica of its output exists and some unfinished task still
  (transitively) needs it — the elimination DAG is the unit of
  re-execution, exactly as in lineage-based DAG runtimes;
* pending and re-executed tasks formerly placed on the dead node are
  re-planned onto the survivors — for a 2-D block-cyclic layout via the
  shrunken ``p' x q'`` grid of :func:`repro.resilience.replan.
  shrunken_grid`, otherwise via the cyclic spill remap;
* recovery cannot begin before the failure detector fires: everything
  the crash touched is gated behind ``tc + detection_latency``, and each
  re-fetch of a surviving input to a new node costs one message; healthy
  nodes keep executing unaffected work throughout.

Slowdowns multiply the duration of tasks launched on the node inside the
interval; dropped messages arrive one ``retransmit_timeout`` (plus a
second wire transmission) late.

The loop tracks dependency satisfaction per *edge* (not per task) so a
re-executed producer never double-releases a consumer; memory is O(edges),
which is fine at recovery-benchmark scale.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.dag.compiled import compiled_from_eliminations
from repro.resilience.faults import FaultSchedule
from repro.resilience.replan import node_remap, shrunken_grid
from repro.runtime.core import FaultHooks, run_core
from repro.runtime.machine import Machine
from repro.runtime.core import SimulationResult
from repro.tiles.layout import BlockCyclic2D, Layout


@dataclass
class FaultyRunResult(SimulationResult):
    """A :class:`SimulationResult` plus recovery accounting."""

    baseline_makespan: float = 0.0
    tasks_reexecuted: int = 0
    tasks_aborted: int = 0
    wasted_seconds: float = 0.0  # partial work lost to aborts
    refetch_messages: int = 0  # surviving inputs re-shipped during recovery
    messages_dropped: int = 0
    retransmits: int = 0
    crashed_nodes: tuple[int, ...] = ()
    fault_events: list[dict] = field(default_factory=list)

    @property
    def degradation(self) -> float:
        """Makespan relative to the fault-free run (1.0 = unharmed)."""
        if self.baseline_makespan <= 0:
            return 1.0
        return self.makespan / self.baseline_makespan

    @property
    def recovery_overhead(self) -> float:
        """Absolute seconds added by the injected faults."""
        return self.makespan - self.baseline_makespan


def run_with_faults(
    elims,
    m: int,
    n: int,
    layout: Layout,
    machine: Machine,
    b: int,
    schedule: FaultSchedule,
    *,
    baseline_makespan: float | None = None,
    prio=None,
    record_trace: bool = False,
) -> FaultyRunResult:
    """Simulate the elimination list ``elims`` of ``m x n`` tiles under
    ``schedule``, planned once with the C planner.

    An empty schedule runs the fault-free :func:`run_core` on the graph;
    ``baseline_makespan`` defaults to the fault-free makespan.  ``prio``
    is a per-task priority sequence (``None``: program order).
    """
    if layout.nodes > machine.nodes:
        raise ValueError(
            f"layout spans {layout.nodes} nodes but machine has {machine.nodes}"
        )
    for c in schedule.crashes:
        if not 0 <= c.node < machine.nodes:
            raise ValueError(
                f"crash node {c.node} outside machine of {machine.nodes}"
            )
    if len(schedule.crashes) >= machine.nodes:
        raise ValueError("schedule crashes every node; nothing survives")
    cg = compiled_from_eliminations(elims, m, n, layout, machine, b)
    if schedule.empty:
        res = run_core(cg, machine, b, prio=prio, record_trace=record_trace).result
        if baseline_makespan is None:
            baseline_makespan = res.makespan
        return FaultyRunResult(
            **res.__dict__, baseline_makespan=baseline_makespan
        )
    if baseline_makespan is None:
        baseline_makespan = run_core(cg, machine, b, prio=prio).result.makespan

    def replan(dead: set[int]) -> list[int]:
        """Post-crash node of every task: block-cyclic layouts re-place
        on the shrunken grid (re-planned, so each task lands on its tile's
        owner there), others spill cyclically over the survivors."""
        if isinstance(layout, BlockCyclic2D):
            survivors = np.array(
                [k for k in range(machine.nodes) if k not in dead]
            )
            shrunken = BlockCyclic2D(
                *shrunken_grid(layout.p, layout.q, len(survivors))
            )
            planned = compiled_from_eliminations(elims, m, n, shrunken, machine, b)
            return survivors[planned.node].tolist()
        remap = np.array(node_remap(machine.nodes, tuple(dead)))
        return remap[cg.node].tolist()

    fault_events = [
        {"type": "slowdown", **asdict(s)} for s in schedule.slowdowns
    ]
    out = run_core(
        cg, machine, b, prio=prio, record_trace=record_trace,
        fault=FaultHooks(
            schedule=schedule, replan=replan, fault_events=fault_events
        ),
    )
    res, fo = out.result, out.fault
    ntasks = cg.ntasks
    return FaultyRunResult(
        **res.__dict__,
        baseline_makespan=baseline_makespan,
        tasks_reexecuted=fo.executions - ntasks,
        tasks_aborted=fo.aborted,
        wasted_seconds=fo.wasted,
        refetch_messages=fo.refetches,
        messages_dropped=fo.dropped,
        retransmits=fo.retransmits,
        crashed_nodes=fo.dead,
        fault_events=sorted(
            fault_events, key=lambda e: e.get("time", e.get("start", 0.0))
        ),
    )
