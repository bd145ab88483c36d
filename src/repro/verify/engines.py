"""Cross-engine execution of one verification case.

Every front end funnels into the unified event loop of
:mod:`repro.runtime.core`; a case runs on its two implementations, each
over a graph built its own way:

* ``core`` — the loop's Python branch over the object graph
  (``TaskGraph.from_eliminations``) with trace recording on; its task and
  comm traces feed the legality oracle;
* ``core-c`` — the native C inner loop over the production graph, the
  :class:`~repro.dag.compiled.CompiledGraph` that ``hqr_build_dag`` built
  from the list ``hqr_expand`` wrote (present only when a system compiler
  is available); honors ``case.batched`` by dispatching a batch of one
  through the batched arena path, which must agree bitwise with the
  scalar dispatch.

The verify runner checks that production graph's arrays against
``compile_graph`` of the object graph before either leg runs.  Both legs
must agree *bitwise* on makespan, message count, bytes moved, busy
seconds, and flops — :func:`result_key` extracts the compared tuple and
:func:`run_engines` executes every engine.
"""

from __future__ import annotations

from typing import Callable

from repro._ccore import native_available
from repro.dag.compiled import CompiledGraph
from repro.runtime.core import SimulationResult
from repro.verify.reference import ClusterSimulator, TaskGraph

Engine = Callable[["VerifyCase", TaskGraph, CompiledGraph], SimulationResult]  # noqa: F821


def result_key(res: SimulationResult) -> tuple:
    """The bitwise-compared fields of a simulation outcome."""
    return (
        res.makespan,
        res.messages,
        res.bytes_sent,
        res.busy_seconds,
        res.flops,
        res.cores,
    )


def _simulator(case, graph, cls=ClusterSimulator, **kwargs):
    priority = None
    if case.priority is not None:
        from repro.verify.reference.priorities import make_priority

        priority = make_priority(case.priority, graph)
    return cls(
        case.machine(),
        case.layout(),
        case.b,
        priority=priority,
        data_reuse=case.data_reuse,
        **kwargs,
    )


def core_engine(case, graph, built=None) -> SimulationResult:
    """The core's Python branch over the object graph, recording the task
    and comm traces (``built`` is not read)."""
    return _simulator(case, graph, record_trace=True).run_reference(graph)


def core_c_engine(case, graph, built) -> SimulationResult:
    """The production graph ``built`` through the native C inner loop.

    ``case.batched`` routes a batch of one through the batched arena
    dispatch instead — bit-identical to the scalar call by contract.
    """
    from repro.runtime.core import run_core, run_core_batch

    sim = _simulator(case, graph)
    prio = sim.priority_values(graph)
    if getattr(case, "batched", False):
        return run_core_batch(
            [built],
            sim.machine,
            case.b,
            prios=[prio],
            data_reuse=case.data_reuse,
        )[0]
    return run_core(
        built,
        sim.machine,
        case.b,
        prio=prio,
        data_reuse=case.data_reuse,
    ).result


def available_engines() -> dict[str, Engine]:
    """The engine registry, in deterministic comparison order.

    ``core`` is always first (it is the divergence baseline and the
    oracle's trace source); ``core-c`` is included only when the native
    inner loop can be built.
    """
    engines: dict[str, Engine] = {"core": core_engine}
    if native_available():
        engines["core-c"] = core_c_engine
    return engines


def run_engines(
    case,
    graph: TaskGraph,
    built: CompiledGraph,
    engines: dict[str, Engine] | None = None,
) -> dict[str, SimulationResult]:
    """Execute ``case`` on every engine; results keyed by engine name."""
    engines = engines if engines is not None else available_engines()
    return {name: fn(case, graph, built) for name, fn in engines.items()}
