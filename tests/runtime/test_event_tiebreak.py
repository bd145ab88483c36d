"""Event-loop tie-breaking at equal timestamps.

The reference loop pops ``(time, kind, ...)`` heap entries where kind 0 is
a task finish and kind 1 a data arrival: at equal times, finishes release
cores (and their ready successors launch) *before* arrivals are applied.
This configuration is engineered so those ties actually occur — every
kernel runs at the same rate (durations are small integer multiples of a
common unit) and the network latency equals the TTQRT duration, so
arrivals land exactly on finish instants.  Any engine that breaks ties the
other way schedules differently, so bitwise agreement across all engines
on this configuration pins the ordering down.
"""

from repro.verify.reference import ClusterSimulator, TaskGraph, compile_graph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.kernels.weights import KernelKind, KernelRates
from repro.resilience.faults import FaultSchedule
from repro.runtime.core import FaultHooks, run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D

B = 16
RATES = KernelRates(ts_rate=6.0, tt_rate=6.0)  # one rate: lattice of times


def tie_machine():
    lat = Machine(rates=RATES).task_seconds(KernelKind.TTQRT, B)
    return Machine(
        nodes=4,
        cores_per_node=2,
        rates=RATES,
        latency=lat,
        bandwidth=float("inf"),
        comm_serialized=False,
    )


def tie_graph():
    cfg = HQRConfig(p=2, q=2, a=2, low_tree="flat", high_tree="flat")
    elims = hqr_elimination_list(8, 4, cfg)
    return TaskGraph.from_eliminations(elims, 8, 4)


def test_configuration_actually_ties():
    machine = tie_machine()
    graph = tie_graph()
    sim = ClusterSimulator(machine, BlockCyclic2D(2, 2), B, record_trace=True)
    res = sim.run_reference(graph)
    ends = [e for _, _, _, e in res.trace]
    arrivals = {a for *_, a in res.comm_trace}
    # finish/finish ties (equal-duration tasks launched together) ...
    assert len(set(ends)) < len(ends)
    # ... and finish/arrival ties: the heap really holds (t, 0) and (t, 1)
    assert arrivals & set(ends)


def test_all_engines_agree_on_tie_heavy_configuration():
    machine = tie_machine()
    layout = BlockCyclic2D(2, 2)
    graph = tie_graph()

    ref = ClusterSimulator(machine, layout, B).run_reference(graph)

    cg = compile_graph(graph, layout, machine, B)
    engines = {
        "compiled-python": run_core(cg, machine, B, record_trace=True).result,
        "fault-branch": run_core(
            cg, machine, B,
            fault=FaultHooks(
                FaultSchedule(), replan=lambda dead: cg.node.tolist()
            ),
        ).result,
        # the C loop where it loaded, else the untraced Python loop
        "compiled": run_core(cg, machine, B).result,
    }
    for name, res in engines.items():
        assert res.makespan == ref.makespan, name
        assert res.messages == ref.messages, name
        assert res.bytes_sent == ref.bytes_sent, name
        assert res.busy_seconds == ref.busy_seconds, name
