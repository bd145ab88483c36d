"""DAG analyses: the weight invariant, critical paths, profiles."""

import pytest

from repro.baselines.bbd10 import bbd10_elimination_list
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime.executor import numeric_graph
from repro.trees import BinaryTree, FlatTree, GreedyTree, panel_elimination_list
from repro.verify.reference import TaskGraph
from repro.verify.reference.analysis import theoretical_total_weight, total_weight
from _support import example

parallelism_profile = example("viz").parallelism_profile


def build(m, n, elims):
    return TaskGraph.from_eliminations(elims, m, n)


def critical_path_weight(graph, *, unit=False):
    """Longest path through the object DAG, in kernel weights (``b^3/3``
    units) or hops if ``unit``; program order is topological."""
    dist = [0.0] * len(graph.tasks)
    for t, task in enumerate(graph.tasks):
        best = max((dist[p] for p in graph.predecessors[t]), default=0.0)
        dist[t] = best + (1.0 if unit else float(task.weight))
    return max(dist, default=0.0)


class TestWeightInvariant:
    """§II: total weight = 6mn^2 - 2n^3 regardless of tree or kernel mix."""

    def test_paper_formula_tall(self):
        assert theoretical_total_weight(10, 4) == 6 * 10 * 16 - 2 * 64

    def test_paper_formula_square(self):
        assert theoretical_total_weight(7, 7) == 6 * 7 * 49 - 2 * 343

    @pytest.mark.parametrize("m,n", [(6, 3), (9, 9), (4, 8), (12, 5), (2, 2)])
    @pytest.mark.parametrize(
        "cfg",
        [
            HQRConfig(),
            HQRConfig(p=3, a=2, low_tree="binary", high_tree="greedy"),
            HQRConfig(p=2, a=4, low_tree="flat", high_tree="flat", domino=False),
        ],
        ids=["default", "p3a2", "p2a4flat"],
    )
    def test_invariant_across_configs(self, m, n, cfg):
        g = build(m, n, hqr_elimination_list(m, n, cfg))
        assert total_weight(g) == theoretical_total_weight(m, n)

    def test_invariant_for_pure_ts_and_pure_tt(self):
        m, n = 8, 4
        ts = build(m, n, panel_elimination_list(m, n, FlatTree(), ts=True))
        tt = build(m, n, panel_elimination_list(m, n, BinaryTree()))
        assert total_weight(ts) == total_weight(tt) == theoretical_total_weight(m, n)


class TestCriticalPath:
    def test_single_tile(self):
        g = build(1, 1, [])
        assert critical_path_weight(g) == 4.0  # the lone GEQRT

    def test_flat_chain_length(self):
        """Flat TS on m x 1: GEQRT + serial chain of m-1 TSQRTs."""
        m = 7
        g = build(m, 1, panel_elimination_list(m, 1, FlatTree()))
        assert critical_path_weight(g) == 4 + 6 * (m - 1)

    def test_binary_shorter_than_flat_on_single_panel(self):
        m = 32
        flat = build(m, 1, panel_elimination_list(m, 1, FlatTree()))
        binary = build(m, 1, panel_elimination_list(m, 1, BinaryTree()))
        assert critical_path_weight(binary) < critical_path_weight(flat)

    def test_greedy_shortest_unit_cp_multi_panel(self):
        m, n = 24, 4
        spans = {}
        for name, tree in (("flat", FlatTree()), ("binary", BinaryTree()), ("greedy", GreedyTree())):
            g = build(m, n, panel_elimination_list(m, n, tree))
            spans[name] = critical_path_weight(g, unit=True)
        assert spans["greedy"] <= spans["binary"]

    def test_cp_monotone_in_matrix_size(self):
        cfg = HQRConfig(p=2, a=2)
        cps = [
            critical_path_weight(build(m, 4, hqr_elimination_list(m, 4, cfg)))
            for m in (6, 12, 24)
        ]
        assert cps[0] <= cps[1] <= cps[2]


class TestParallelismProfile:
    """The profile reads the compiled graph; the object graph checks it."""

    def profile(self, m, n, elims):
        return parallelism_profile(numeric_graph(elims, m, n)[0])

    def test_profile_sums_to_task_count(self):
        m, n = 10, 4
        elims = hqr_elimination_list(m, n, HQRConfig(p=2, a=2))
        assert sum(self.profile(m, n, elims)) == len(build(m, n, elims))

    def test_profile_length_is_unit_cp(self):
        m, n = 10, 4
        elims = hqr_elimination_list(m, n, HQRConfig(p=2, a=2))
        g = build(m, n, elims)
        assert len(self.profile(m, n, elims)) == critical_path_weight(g, unit=True)

    def test_greedy_exposes_more_early_parallelism_than_flat(self):
        """The flat tree ramps up one task at a time; greedy fans out."""
        m = 32
        flat = self.profile(m, 2, panel_elimination_list(m, 2, FlatTree()))
        greedy = self.profile(m, 2, panel_elimination_list(m, 2, GreedyTree()))
        assert max(greedy[:4]) > max(flat[:4])

    def test_single_tile_graph(self):
        assert self.profile(1, 1, []) == [1]  # the lone final GEQRT


class TestBBD10Structure:
    def test_pipeline_depth_grows_linearly(self):
        """§V-C: [BBD+10]'s first-column pipeline has length m."""
        n = 2
        cps = []
        for m in (8, 16, 32):
            g = build(m, n, bbd10_elimination_list(m, n))
            cps.append(critical_path_weight(g, unit=True))
        # unit CP grows by ~1 per extra row (serial TSQRT chain)
        assert cps[1] - cps[0] >= 7
        assert cps[2] - cps[1] >= 15
