"""Event-driven cluster simulator (the DAGuE-runtime substitute).

Models the execution of a kernel DAG on a :class:`~repro.runtime.machine.
Machine` whose nodes are chosen by a :class:`~repro.tiles.layout.Layout`:

* each task executes on the node owning its victim-row tile (the task's
  output data — DPLASMA's "affinity between data and tasks");
* a task starts when all predecessors are done, their data has *arrived* at
  the node, and a core is free;
* every cross-node dependency ships one tile: the transfer leaves when the
  producer finishes and arrives ``latency + bytes/bandwidth`` later; with
  ``machine.comm_serialized`` (the default — DAGuE's dedicated
  communication thread) the transfer occupies the single channel of *both*
  endpoints for its bandwidth term, so send and receive traffic contend;
  a tile already sent to a node is not re-sent;
* ready tasks are ordered by a priority function (program order by default,
  which for panel-major lists approximates DPLASMA's panel-first priority).

Outputs makespan, GFlop/s, per-node busy times, and message statistics.
The verifier runs this front end over the object graph, flattened by
:func:`compile_graph`, as the reference the production planner
(``compiled_from_eliminations``) is checked against.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.dag.compiled import (
    KIND_CODE, CompiledGraph, _check_int32, _finish, placement_array,
)
from repro.runtime.core import SimulationResult, run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import Layout
from repro.verify.reference.graph import TaskGraph


def compile_graph(
    graph: TaskGraph, layout: Layout, machine: Machine, b: int
) -> CompiledGraph:
    """Flatten an already-built :class:`TaskGraph` (any elimination list,
    including the random/baseline generators)."""
    tasks = graph.tasks
    ntasks = len(tasks)
    preds = graph.predecessors
    counts = np.fromiter(map(len, preds), np.int64, ntasks)
    nedges = int(counts.sum())
    _check_int32(ntasks, nedges)
    kind = np.fromiter((KIND_CODE[t.kind] for t in tasks), np.int8, ntasks)
    # a task's tile: victim row x (trailing column if an update, else panel)
    row = np.fromiter((t.row for t in tasks), np.int32, ntasks)
    column = np.fromiter(
        (t.panel if t.col < 0 else t.col for t in tasks), np.int32, ntasks
    )
    pred_ptr = np.zeros(ntasks + 1, dtype=np.int32)
    np.cumsum(counts, out=pred_ptr[1:])
    pred_idx = np.fromiter(chain.from_iterable(preds), np.int32, nedges)
    return _finish(
        graph.m, graph.n, kind, placement_array(layout, row, column),
        pred_ptr, pred_idx, machine, b,
    )


class ClusterSimulator:
    """Simulate a task graph on a distributed machine."""

    def __init__(
        self,
        machine: Machine,
        layout: Layout,
        b: int,
        *,
        priority=None,
        record_trace: bool = False,
    ):
        if layout.nodes > machine.nodes:
            raise ValueError(
                f"layout spans {layout.nodes} nodes but machine has {machine.nodes}"
            )
        self.machine = machine
        self.layout = layout
        self.b = b
        # priority: callable task -> sortable (lower runs first), or a
        # precomputed per-task sequence of such keys
        self.priority = priority
        self.record_trace = record_trace

    # ------------------------------------------------------------------ #
    def priority_values(self, graph: TaskGraph) -> list | None:
        """Per-task priority keys, or None for program order."""
        if self.priority is None:
            return None
        if callable(self.priority):
            return [self.priority(t) for t in graph.tasks]
        values = list(self.priority)
        if len(values) != len(graph.tasks):
            raise ValueError(
                f"priority sequence has {len(values)} entries for "
                f"{len(graph.tasks)} tasks"
            )
        return values

    def run(self, graph: TaskGraph, M: int | None = None, N: int | None = None) -> SimulationResult:
        """Simulate; ``M``/``N`` default to full tiles (``m*b x n*b``).

        Routes through the unified event-loop core
        (:func:`repro.runtime.core.run_core`): the native C inner loop
        when it loaded and no trace is requested, the Python inner loop
        otherwise — bit-identical either way.
        """
        return self._run_core(graph, M, N, record_trace=self.record_trace)

    def _run_core(
        self,
        graph: TaskGraph,
        M: int | None,
        N: int | None,
        *,
        record_trace: bool,
    ) -> SimulationResult:
        """Compile ``graph`` and run it through the unified core."""
        cg = compile_graph(graph, self.layout, self.machine, self.b)
        return run_core(
            cg,
            self.machine,
            self.b,
            prio=self.priority_values(graph),
            M=M,
            N=N,
            record_trace=record_trace,
        ).result

    def run_reference(
        self, graph: TaskGraph, M: int | None = None, N: int | None = None
    ) -> SimulationResult:
        """The Python inner loop, with the task and comm traces recorded.

        This is the tracing path consumed by the verify oracle: a trace
        is what only the unified core's Python branch records, so the
        run takes that branch whatever the process can run — bit-identical
        to every other dispatch of the same configuration.
        """
        return self._run_core(graph, M, N, record_trace=True)
