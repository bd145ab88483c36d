"""The one-pass graph bound: admissible with no tolerance, exact where it
must be, and refusing what the event loop refuses."""

import dataclasses

import numpy as np
import pytest

from repro._ccore import native_available
from repro.verify.reference import TaskGraph, compile_graph
from repro.hqr import hqr_elimination_list
from repro.models.bounds import (
    GraphBound,
    _graph_bound_py,
    graph_bounds,
)
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
    graph = TaskGraph.from_eliminations(
        hqr_elimination_list(case.m, case.n, case.config()), case.m, case.n
    )
    machine = machine or case.machine()
    return graph, compile_graph(graph, case.layout(), machine, case.b), machine


def verify_cases():
    """200 generator cases; every fourth on the ideal machine of its shape."""
    for case in generate_cases(3, 200):
        machine = None
        if case.index % 4 == 3:
            machine = Machine.ideal(case.nodes, case.cores_per_node)
        yield case, machine


@pytest.mark.parametrize("core", CORES)
def test_bound_never_exceeds_the_simulated_makespan(core):
    """Site networks, unserialized channels, the ideal machine,
    priorities and data reuse: ``bound <= makespan`` with no tolerance,
    and the native pass is the Python pass bit for bit."""
    checked = 0
    for case, machine in verify_cases():
        graph, cg, machine = compiled(case, machine)
        sim = _simulator(case, graph)
        gb = graph_bounds([cg], machine, case.b)[0]
        assert gb == _graph_bound_py(cg, machine, case.b), case.describe()
        makespan = run_core(
            cg, machine, case.b, prio=sim.priority_values(graph),
            record_trace=core == "python",
        ).result.makespan
        assert gb.bound <= makespan, case.describe()
        checked += 1
    assert checked >= 200


def test_object_quantities_are_reproduced_bit_for_bit():
    """Total work and the plain critical path are the object walkers'
    numbers; on the ideal machine (no latency, no bandwidth term) the
    communication-aware critical path is the plain one."""
    for case, machine in verify_cases():
        graph, cg, machine = compiled(case, machine)
        gb = graph_bounds([cg], machine, case.b)[0]
        cp = critical_path_seconds(graph, machine, case.b)
        assert gb.work == work_seconds(graph, machine, case.b)
        assert gb.plain_critical_path == cp
        if case.index % 4 == 3:
            assert gb.critical_path == cp


def test_batch_equals_one_by_one():
    machine = Machine(nodes=6, cores_per_node=2, site_size=2)
    graphs = [
        compile_graph(compiled(case)[0], case.layout(), machine, 40)
        for case, _ in verify_cases()
        if case.nodes <= 6
    ][:24]
    batch = graph_bounds(graphs, machine, 40)
    assert batch == [graph_bounds([g], machine, 40)[0] for g in graphs]


def test_binding_term_is_named():
    gb = GraphBound(1.0, 2.0, 0.5, 9.0, 0.9, 3)
    assert gb.bound == 2.0 and gb.binding == "node-work"


@pytest.fixture
def small():
    case = next(c for c, _ in verify_cases() if c.nodes > 1)
    return compiled(case)[1:] + (case.b,)


@pytest.mark.parametrize("field,value", [("kind", 6), ("node", -1)])
def test_bad_kind_or_node_is_refused(small, field, value):
    cg, machine, b = small
    arr = np.array(getattr(cg, field))
    arr[len(arr) // 2] = value
    bad = dataclasses.replace(cg, **{field: arr})
    with pytest.raises(ValueError, match="kind outside"):
        graph_bounds([bad], machine, b)
    with pytest.raises(ValueError, match="kind outside"):
        _graph_bound_py(bad, machine, b)


def test_edge_not_pointing_forward_is_refused(small):
    cg, machine, b = small
    succ_idx = np.array(cg.succ_idx)
    succ_idx[np.argmax(np.diff(cg.succ_ptr) > 0)] = 0
    bad = dataclasses.replace(cg, succ_idx=succ_idx)
    with pytest.raises(ValueError, match="point forward"):
        graph_bounds([bad], machine, b)
    with pytest.raises(ValueError, match="point forward"):
        _graph_bound_py(bad, machine, b)
