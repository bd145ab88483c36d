"""Priority functions and the data-reuse heuristic."""

import pytest

from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import Machine
from repro.verify.reference.priorities import (
    PRIORITIES,
    column_major,
    make_priority,
    panel_first,
    program_order,
    upward_rank,
)
from repro.tiles.layout import BlockCyclic2D


@pytest.fixture(scope="module")
def graph():
    m, n = 16, 8
    return TaskGraph.from_eliminations(
        hqr_elimination_list(m, n, HQRConfig(p=2, a=2)), m, n
    )


class TestPriorityFunctions:
    def test_program_order(self, graph):
        assert program_order(graph.tasks[5]) == 5

    def test_panel_first_sorts_panels(self, graph):
        keys = [panel_first(t) for t in graph.tasks]
        # sorting by key groups panels in order
        panels = [k[0] for k in sorted(keys)]
        assert panels == sorted(panels)

    def test_upward_rank_roots_highest(self, graph):
        prio = upward_rank(graph)
        root = graph.roots()[0]
        exit_task = len(graph.tasks) - 1
        assert prio(graph.tasks[root]) < prio(graph.tasks[exit_task])

    def test_upward_rank_decreases_along_edges(self, graph):
        prio = upward_rank(graph)
        for t, succs in enumerate(graph.successors):
            for s in succs:
                # predecessor must have at-least-as-urgent priority
                assert prio(graph.tasks[t])[0] <= prio(graph.tasks[s])[0]

    def test_make_priority_names(self, graph):
        for name in PRIORITIES:
            fn = make_priority(name, graph)
            fn(graph.tasks[0])  # callable

    def test_make_priority_unknown(self, graph):
        with pytest.raises(ValueError):
            make_priority("random", graph)


class TestSchedulingEffect:
    def test_all_priorities_complete(self, graph):
        sim_args = (Machine(nodes=4, cores_per_node=2), BlockCyclic2D(2, 2), 40)
        base = None
        for name in PRIORITIES:
            prio = make_priority(name, graph)
            res = ClusterSimulator(*sim_args, priority=prio).run(graph)
            assert res.makespan > 0
            if base is None:
                base = res
            # same work executed regardless of order
            assert res.busy_seconds == pytest.approx(base.busy_seconds)

    def test_data_reuse_completes_identically(self, graph):
        sim_args = (Machine(nodes=4, cores_per_node=2), BlockCyclic2D(2, 2), 40)
        plain = ClusterSimulator(*sim_args).run(graph)
        reuse = ClusterSimulator(*sim_args, data_reuse=True).run(graph)
        assert reuse.busy_seconds == pytest.approx(plain.busy_seconds)
        # data-reuse is a heuristic: it must not break anything and should
        # stay within a sane band of the baseline
        assert 0.5 < reuse.makespan / plain.makespan < 2.0

    def test_data_reuse_with_trace_consistent(self, graph):
        sim = ClusterSimulator(
            Machine(nodes=4, cores_per_node=2),
            BlockCyclic2D(2, 2),
            40,
            data_reuse=True,
            record_trace=True,
        )
        res = sim.run(graph)
        assert len(res.trace) == len(graph)
