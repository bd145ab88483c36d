"""The compiled array core must be bit-identical to the reference simulators.

Every assertion here is exact equality (``==`` on floats): the compiled
event loop performs the same double-precision operations in the same
order as the reference, so any deviation — makespan, message count,
bytes, busy seconds — is a bug, not noise.
"""

import itertools

import numpy as np
import pytest

from _support import random_elimination_list
from repro._ccore import native_available
from repro.dag.compiled import compiled_from_eliminations, task_coordinates
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.core import priority_ranks, run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D, SingleNode
from repro.verify.reference import ClusterSimulator, TaskGraph, compile_graph
from repro.verify.reference.priorities import make_priority

CORES = ["python"] + (["c"] if native_available() else [])

M_TILES, N_TILES, B = 24, 5, 53


def exact(res, ref):
    assert res.makespan == ref.makespan
    assert res.messages == ref.messages
    assert res.bytes_sent == ref.bytes_sent
    assert res.busy_seconds == ref.busy_seconds


def assert_derived_predecessors(cg, preds):
    """The graph's wait counts are the lengths of ``preds`` and its derived
    predecessor lists are ``preds``, each sorted."""
    assert cg.wait.tolist() == [len(p) for p in preds]
    assert np.array_equal(np.diff(cg.pred_ptr), cg.wait)
    derived = cg.pred_idx
    assert len(derived) == cg.succ_ptr[-1]
    lists = np.split(derived, cg.pred_ptr[1:-1])
    assert [p.tolist() for p in lists] == [sorted(p) for p in preds]


def graph_for(config):
    elims = hqr_elimination_list(M_TILES, N_TILES, config)
    return TaskGraph.from_eliminations(elims, M_TILES, N_TILES)


MACHINES = [
    Machine(nodes=8, cores_per_node=3),
    Machine(nodes=8, cores_per_node=3, comm_serialized=False),
    Machine(nodes=8, cores_per_node=2, site_size=2),  # hierarchical network
    Machine.ideal(nodes=8),
]
LAYOUTS = [BlockCyclic2D(4, 2), Cyclic1D(8), Block1D(8, M_TILES), SingleNode()]
CONFIGS = [
    HQRConfig(p=4, q=2),
    HQRConfig(p=4, q=2, a=2, low_tree="binary", high_tree="greedy", domino=True),
]


@pytest.mark.parametrize("core", CORES)
def test_cluster_grid_bit_identical(core, request):
    """Config x machine x layout x priority grid."""
    if core == "python":
        request.getfixturevalue("no_native")
    for config, machine, layout, prio_name in itertools.product(
        CONFIGS, MACHINES, LAYOUTS, (None, "critical-path")
    ):
        graph = graph_for(config)
        prio = make_priority(prio_name, graph) if prio_name else None
        sim = ClusterSimulator(machine, layout, B, priority=prio)
        ref = sim.run_reference(graph)
        cg = compile_graph(graph, layout, machine, B)
        res = run_core(cg, machine, B, prio=sim.priority_values(graph)).result
        exact(res, ref)


@pytest.mark.parametrize("prio_name", ["panel-first", "column-major"])
def test_tuple_priorities_bit_identical(prio_name):
    """Non-numeric (tuple) priorities take the generic ranking path."""
    config = HQRConfig(p=4, q=2, a=2)
    graph = graph_for(config)
    machine = Machine(nodes=8, cores_per_node=2)
    layout = BlockCyclic2D(4, 2)
    prio = make_priority(prio_name, graph)
    sim = ClusterSimulator(machine, layout, B, priority=prio)
    ref = sim.run_reference(graph)
    res = sim.run(graph)
    exact(res, ref)


def test_vectorized_priority_sequence():
    """The simulator accepts a precomputed per-task priority array."""
    graph = graph_for(HQRConfig(p=4, q=2))
    machine = Machine(nodes=8, cores_per_node=2)
    layout = BlockCyclic2D(4, 2)
    values = np.array([t.panel for t in graph.tasks], dtype=np.int64)
    by_callable = ClusterSimulator(
        machine, layout, B, priority=lambda t: (int(values[t.id]), t.id)
    ).run(graph)
    by_array = ClusterSimulator(machine, layout, B, priority=values).run(graph)
    exact(by_array, by_callable)
    with pytest.raises(ValueError):
        ClusterSimulator(machine, layout, B, priority=values[:-1]).run(graph)


def test_priority_ranks_match_tuple_order():
    prio = [3, 1, 3, 0]
    rank, task_of_rank = priority_ranks(prio, 4)
    expected = sorted(range(4), key=lambda t: (prio[t], t))
    assert task_of_rank.tolist() == expected
    assert [rank[t] for t in expected] == [0, 1, 2, 3]


def test_builder_matches_taskgraph_hqr():
    """Native/python elimination-list builders reproduce TaskGraph arrays."""
    config = HQRConfig(p=4, q=2, a=2, low_tree="binary", domino=True)
    elims = hqr_elimination_list(M_TILES, N_TILES, config)
    graph = TaskGraph.from_eliminations(elims, M_TILES, N_TILES)
    machine = Machine(nodes=8, cores_per_node=3)
    layout = BlockCyclic2D(4, 2)
    want = compile_graph(graph, layout, machine, B)
    got = compiled_from_eliminations(
        elims, M_TILES, N_TILES, layout, machine, B
    )
    for field in ("kind", "wait", "node", "succ_ptr", "succ_idx"):
        a, b = getattr(want, field), getattr(got, field)
        assert a.format == b.format and np.array_equal(a, b), field
    assert_derived_predecessors(got, graph.predecessors)
    # the graph stores no coordinates: derived, they are the Task fields
    coords = task_coordinates(elims, M_TILES, N_TILES)
    for arr, name in zip(coords, ("row", "panel", "col", "killer")):
        assert arr.tolist() == [getattr(t, name) for t in graph.tasks], name


def test_record_trace_still_works():
    graph = graph_for(HQRConfig(p=4, q=2))
    machine = Machine(nodes=8, cores_per_node=3)
    sim = ClusterSimulator(machine, BlockCyclic2D(4, 2), B, record_trace=True)
    res = sim.run(graph)
    assert res.trace is not None and len(res.trace) == len(graph.tasks)
    exact(res, ClusterSimulator(machine, BlockCyclic2D(4, 2), B).run(graph))


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=2, max_value=16),
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        ts_probability=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_random_trees_bit_identical(m, n, seed, ts_probability):
        """Property: arbitrary valid elimination orders stay bit-identical."""
        n = min(n, m)
        elims = random_elimination_list(
            m, n, seed=seed, ts_probability=ts_probability
        )
        graph = TaskGraph.from_eliminations(elims, m, n)
        machine = Machine(nodes=4, cores_per_node=2)
        layout = BlockCyclic2D(2, 2)
        sim = ClusterSimulator(machine, layout, 40)
        ref = sim.run_reference(graph)
        cg = compiled_from_eliminations(elims, m, n, layout, machine, 40)
        want = compile_graph(graph, layout, machine, 40)
        assert_derived_predecessors(cg, graph.predecessors)
        assert_derived_predecessors(want, graph.predecessors)
        assert np.array_equal(cg.kind, want.kind)
        for record_trace in (False, True):  # C where it loaded, Python
            exact(run_core(cg, machine, 40, record_trace=record_trace).result, ref)
