"""TaskGraph construction: task census, dependencies, program order."""

import pytest

from repro.verify.reference import TaskGraph
from repro.verify.reference.analysis import kernel_census
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.kernels.weights import KernelKind
from repro.trees import FlatTree, panel_elimination_list
from repro.trees.base import Elimination


def graph_for(m, n, cfg=None):
    cfg = cfg or HQRConfig(p=2, a=2)
    return TaskGraph.from_eliminations(hqr_elimination_list(m, n, cfg), m, n)


class TestCensus:
    def test_flat_ts_panel_counts(self):
        """Flat TS tree, m x 1: one GEQRT + (m-1) TSQRT, no updates."""
        m = 6
        elims = panel_elimination_list(m, 1, FlatTree())
        g = TaskGraph.from_eliminations(elims, m, 1)
        c = kernel_census(g)
        assert c[KernelKind.GEQRT] == 1
        assert c[KernelKind.TSQRT] == m - 1
        assert c[KernelKind.UNMQR] == c[KernelKind.TSMQR] == 0

    def test_flat_ts_with_trailing_columns(self):
        m, n = 5, 3
        elims = panel_elimination_list(m, n, FlatTree())
        g = TaskGraph.from_eliminations(elims, m, n)
        c = kernel_census(g)
        # per panel k: 1 GEQRT, (n-k-1) UNMQR, (m-k-1) TSQRT,
        # (m-k-1)(n-k-1) TSMQR
        assert c[KernelKind.GEQRT] == 3
        assert c[KernelKind.UNMQR] == 2 + 1 + 0
        assert c[KernelKind.TSQRT] == 4 + 3 + 2
        assert c[KernelKind.TSMQR] == 4 * 2 + 3 * 1

    def test_tt_kills_trigger_victim_geqrt(self):
        # binary tree: every participating row is triangularized
        from repro.trees import BinaryTree

        m = 8
        elims = panel_elimination_list(m, 1, BinaryTree())
        g = TaskGraph.from_eliminations(elims, m, 1)
        c = kernel_census(g)
        assert c[KernelKind.GEQRT] == m
        assert c[KernelKind.TTQRT] == m - 1

    def test_square_matrix_gets_final_geqrt(self):
        g = graph_for(3, 3)
        last = g.tasks[-1]
        assert last.kind is KernelKind.GEQRT
        assert (last.row, last.panel) == (2, 2)

    def test_wide_matrix_final_row_sweep(self):
        g = graph_for(2, 5)
        kinds = [(t.kind, t.row, t.panel, t.col) for t in g.tasks[-4:]]
        assert kinds[0][:3] == (KernelKind.GEQRT, 1, 1)
        assert all(k[0] is KernelKind.UNMQR for k in kinds[1:])
        assert [k[3] for k in kinds[1:]] == [2, 3, 4]


class TestDependencies:
    def test_program_order_is_topological(self):
        graph_for(10, 6).check_acyclic()

    def test_roots_are_panel0_geqrts(self):
        g = graph_for(8, 4)
        for t in g.roots():
            task = g.tasks[t]
            assert task.panel == 0
            assert task.kind in (KernelKind.GEQRT, KernelKind.UNMQR)

    def test_unmqr_depends_on_its_geqrt(self):
        g = graph_for(6, 3)
        by_key = {t.key(): t.id for t in g.tasks}
        for t in g.tasks:
            if t.kind is KernelKind.UNMQR:
                fact = by_key[(KernelKind.GEQRT.value, t.row, -1, t.panel, -1)]
                assert fact in g.predecessors[t.id]

    def test_update_depends_on_its_kill(self):
        g = graph_for(6, 3)
        kills = {
            (t.row, t.panel): t.id
            for t in g.tasks
            if t.kind in (KernelKind.TSQRT, KernelKind.TTQRT)
        }
        for t in g.tasks:
            if t.kind in (KernelKind.TSMQR, KernelKind.TTMQR):
                assert kills[(t.row, t.panel)] in g.predecessors[t.id]

    def test_tile_chain_serializes_writes(self):
        """Any two tasks touching the same tile are ordered by a path."""
        g = graph_for(5, 3)
        # reachability closure (small graph)
        n = len(g)
        reach = [set() for _ in range(n)]
        for t in reversed(range(n)):
            for s in g.successors[t]:
                reach[t].add(s)
                reach[t] |= reach[s]
        touched: dict[tuple, list[int]] = {}
        for t in g.tasks:
            for tile in t.tiles():
                touched.setdefault(tile, []).append(t.id)
        for tile, ids in touched.items():
            for x, y in zip(ids, ids[1:]):
                assert y in reach[x], (tile, x, y)

    def test_successors_mirror_predecessors(self):
        g = graph_for(6, 4)
        for t, ps in enumerate(g.predecessors):
            for p in ps:
                assert t in g.successors[p]

    def test_len(self):
        assert len(graph_for(4, 2)) == len(graph_for(4, 2).tasks)


class TestTaskObjects:
    def test_tiles_of_each_kind(self):
        from repro.verify.reference import Task

        assert Task(0, KernelKind.GEQRT, 2, 1).tiles() == ((2, 1),)
        assert Task(0, KernelKind.UNMQR, 2, 1, col=3).tiles() == ((2, 3),)
        assert Task(0, KernelKind.TSQRT, 4, 1, killer=2).tiles() == ((2, 1), (4, 1))
        assert Task(0, KernelKind.TTMQR, 4, 1, killer=2, col=3).tiles() == (
            (2, 3),
            (4, 3),
        )

    def test_weight_property(self):
        from repro.verify.reference import Task

        assert Task(0, KernelKind.TSMQR, 1, 0, killer=0, col=1).weight == 12

    def test_repr_forms(self):
        from repro.verify.reference import Task

        assert "GEQRT(2,1)" == repr(Task(0, KernelKind.GEQRT, 2, 1))
        assert "TSQRT(4<-2,1)" == repr(Task(0, KernelKind.TSQRT, 4, 1, killer=2))
