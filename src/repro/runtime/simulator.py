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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.graph import TaskGraph

from repro.runtime.machine import Machine
from repro.tiles.layout import Layout


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    makespan: float
    flops: float
    messages: int
    bytes_sent: int
    busy_seconds: float
    cores: int
    trace: list[tuple[int, int, float, float]] | None = None  # (task, node, start, end)
    #: (producer task, src node, dst node, depart, arrival) per message —
    #: recorded by the reference engine under ``record_trace``; consumed by
    #: the schedule-legality oracle in :mod:`repro.verify`
    comm_trace: list[tuple[int, int, int, float, float]] | None = None

    @property
    def gflops(self) -> float:
        """Achieved performance in GFlop/s (useful flops / makespan)."""
        return self.flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of core-seconds spent computing."""
        total = self.makespan * self.cores
        return self.busy_seconds / total if total > 0 else 0.0

    def percent_of_peak(self, machine: Machine) -> float:
        """GFlop/s as a percentage of the machine's theoretical peak."""
        return 100.0 * self.gflops / machine.peak_gflops()


def qr_flops(M: int, N: int) -> float:
    """Useful flops of a QR factorization: ``2 M N^2 - 2/3 N^3`` (M >= N)."""
    if M >= N:
        return 2.0 * M * N * N - 2.0 * N**3 / 3.0
    # wide case: M reflectors swept across N columns
    return 2.0 * N * M * M - 2.0 * M**3 / 3.0


class ClusterSimulator:
    """Simulate a task graph on a distributed machine."""

    def __init__(
        self,
        machine: Machine,
        layout: Layout,
        b: int,
        *,
        priority=None,
        data_reuse: bool = False,
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
        self.data_reuse = data_reuse  # DAGuE's successor-affinity heuristic
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
        when no trace is requested and ``REPRO_SIM_CORE`` allows it, the
        Python inner loop otherwise — bit-identical either way.
        """
        if not self.record_trace:
            return self._run_core(graph, M, N)
        return self.run_reference(graph, M, N)

    def _run_core(
        self,
        graph: TaskGraph,
        M: int | None,
        N: int | None,
        *,
        core: str | None = None,
        record_trace: bool = False,
        engine_label: str | None = None,
    ) -> SimulationResult:
        """Compile ``graph`` and run it through the unified core."""
        from repro.dag.compiled import compile_graph
        from repro.runtime.core import run_core

        cg = compile_graph(graph, self.layout, self.machine, self.b)
        return run_core(
            cg,
            self.machine,
            self.b,
            prio=self.priority_values(graph),
            data_reuse=self.data_reuse,
            M=M,
            N=N,
            core=core,
            record_trace=record_trace,
            engine_label=engine_label,
        ).result

    def run_reference(
        self, graph: TaskGraph, M: int | None = None, N: int | None = None
    ) -> SimulationResult:
        """The Python inner loop with the historical ``reference`` label.

        This is the tracing path: under ``record_trace`` it captures the
        task trace and the comm trace consumed by the verify oracle.  The
        loop itself is the unified core's Python branch
        (:func:`repro.runtime.core.run_core` with ``core="python"``) —
        bit-identical to every other dispatch of the same configuration.
        """
        return self._run_core(
            graph,
            M,
            N,
            core="python",
            record_trace=self.record_trace,
            engine_label="reference",
        )
