"""The one-pass bound of an elimination list: admissible with no
tolerance, exact where it must be, the same with and without the native
core, and counting the messages the event loop sends."""

import pytest

from repro._ccore import native_available
from repro.bench.runner import BenchSetup
from repro.dag.compiled import compiled_from_eliminations
from repro.verify.reference import TaskGraph, compile_graph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.models.bounds import GraphBound, _graph_bound_py, list_bound
from repro.runtime.core import run_core
from repro.runtime.machine import Machine
from repro.verify.engines import _simulator
from repro.verify.generator import generate_cases

CORES = ("python", "c") if native_available() else ("python",)


def work_seconds(graph, machine, b):
    """Total kernel seconds over the object graph, in task order."""
    return sum(machine.task_seconds(t.kind, b) for t in graph.tasks)


def critical_path_seconds(graph, machine, b):
    """Weighted longest path over the object graph (program order is
    topological), with per-kernel rates."""
    dist = [0.0] * len(graph.tasks)
    for t, task in enumerate(graph.tasks):
        d = machine.task_seconds(task.kind, b)
        best = 0.0
        for p in graph.predecessors[t]:
            if dist[p] > best:
                best = dist[p]
        dist[t] = best + d
    return max(dist, default=0.0)


def compiled(case, machine=None):
    """The case's list, its object graph, that graph compiled, the machine."""
    elims = hqr_elimination_list(case.m, case.n, case.config())
    graph = TaskGraph.from_eliminations(elims, case.m, case.n)
    machine = machine or case.machine()
    return elims, graph, compile_graph(graph, case.layout(), machine, case.b), machine


def verify_cases():
    """200 generator cases; every fourth on the ideal machine of its shape."""
    for case in generate_cases(3, 200):
        machine = None
        if case.index % 4 == 3:
            machine = Machine.ideal(case.nodes, case.cores_per_node)
        yield case, machine


@pytest.mark.parametrize("core", CORES)
def test_bound_never_exceeds_the_simulated_makespan(core):
    """Site networks, unserialized channels, the ideal machine and
    priorities: ``bound <= makespan`` with no tolerance, and the list pass
    is the Python walk of the object graph's compiled form bit for bit."""
    checked = 0
    for case, machine in verify_cases():
        elims, graph, cg, machine = compiled(case, machine)
        sim = _simulator(case, graph)
        gb = list_bound(elims, case.m, case.n, case.layout(), machine, case.b)
        assert gb == _graph_bound_py(cg, machine, case.b), case.describe()
        makespan = run_core(
            cg, machine, case.b, prio=sim.priority_values(graph),
            record_trace=core == "python",
        ).result.makespan
        assert gb.bound <= makespan, case.describe()
        checked += 1
    assert checked >= 200


def test_object_quantities_are_reproduced_bit_for_bit():
    """Total work and the plain critical path of the list pass are the
    object walkers' numbers; on the ideal machine (no latency, no
    bandwidth term) the communication-aware critical path is the plain
    one."""
    for case, machine in verify_cases():
        elims, graph, _, machine = compiled(case, machine)
        gb = list_bound(elims, case.m, case.n, case.layout(), machine, case.b)
        cp = critical_path_seconds(graph, machine, case.b)
        assert gb.work == work_seconds(graph, machine, case.b)
        assert gb.plain_critical_path == cp
        if case.index % 4 == 3:
            assert gb.critical_path == cp


@pytest.mark.parametrize(
    "core", ("native", "python") if native_available() else ("python",)
)
def test_the_list_pass_is_the_graph_walk_on_every_verify_case(core, request):
    """On every ``repro verify --seed 0 --budget 200`` case the list pass
    equals the Python walk of the built graph in every field, and its
    message count is the simulator's: the native full mode with the native
    core, the Python builder and walk without it."""
    if core == "python":
        request.getfixturevalue("no_native")
    checked = 0
    for case in generate_cases(0, 200):
        machine, layout = case.machine(), case.layout()
        elims = hqr_elimination_list(case.m, case.n, case.config())
        cg = compiled_from_eliminations(elims, case.m, case.n, layout, machine, case.b)
        gb = list_bound(elims, case.m, case.n, layout, machine, case.b)
        assert gb == _graph_bound_py(cg, machine, case.b), case.describe()
        assert gb.messages == run_core(cg, machine, case.b).result.messages
        checked += 1
    assert checked == 200


def figure6_points():
    """Figure 6(a): low tree greedy, no domino, 16 tile columns."""
    for high in ("greedy", "binary", "flat", "fibonacci"):
        for a in (1, 4, 8):
            for m in (16, 32, 64, 128, 256, 512):
                yield m, 16, HQRConfig(
                    p=15, q=4, a=a, low_tree="greedy", high_tree=high,
                    domino=False,
                )


def test_the_list_pass_counts_figure6s_messages():
    """The 72 Figure 6(a) points send 909,064 messages as the simulator
    counts them, one per producer and destination node."""
    setup = BenchSetup()
    total = sum(
        list_bound(hqr_elimination_list(m, n, cfg), m, n, setup.layout,
                   setup.machine, setup.b).messages
        for m, n, cfg in figure6_points()
    )
    assert total == 909_064


def test_binding_term_is_named():
    gb = GraphBound(1.0, 2.0, 0.5, 9.0, 0.9, 3, 4)
    assert gb.bound == 2.0 and gb.binding == "node-work"
