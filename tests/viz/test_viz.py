"""Visualization helpers."""

import pytest

from repro.trees import BinaryTree, FlatTree, GreedyTree, coarse_schedule
from repro.trees.pipelined import panel_elimination_list
from repro.viz import (
    render_elimination_timeline,
    render_parallelism_profile,
    render_reduction_tree,
    sparkline,
)


class TestTreeRendering:
    def test_flat_tree_single_root(self):
        elims = FlatTree().eliminations(range(4))
        text = render_reduction_tree(elims)
        lines = text.splitlines()
        assert lines[0] == "0"
        assert len(lines) == 4
        # most recent kill (victim 3) renders first under the root
        assert "3" in lines[1]

    def test_binary_tree_structure(self):
        elims = BinaryTree().eliminations(range(4))
        text = render_reduction_tree(elims)
        # 2 is a child of 0; 3 a child of 2; 1 a child of 0
        assert "└─" in text and "├─" in text
        assert text.splitlines()[0] == "0"

    def test_rejects_double_kill(self):
        with pytest.raises(ValueError, match="twice"):
            render_reduction_tree([(1, 0), (1, 2)])

    def test_rejects_dead_killer(self):
        with pytest.raises(ValueError, match="dead"):
            render_reduction_tree([(1, 0), (2, 1)])

    def test_multiple_survivors(self):
        # partial reduction: two roots remain
        text = render_reduction_tree([(1, 0), (3, 2)], rows=[0, 1, 2, 3])
        assert text.splitlines()[0] == "0"
        assert "2" in text

    def test_timeline_with_steps(self):
        elims = panel_elimination_list(6, 1, GreedyTree())
        steps = coarse_schedule(elims)
        pairs = [(e.victim, e.killer) for e in elims]
        keyed = {(e.victim, e.killer): s for e, s in steps.items()}
        text = render_elimination_timeline(pairs, keyed)
        assert "step 1" in text
        assert "->" in text

    def test_timeline_without_steps(self):
        text = render_elimination_timeline([(1, 0), (2, 0)])
        assert "kills" in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_monotone_ramp(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7, 8])
        assert s[0] == " " and s[-1] == "█"

    def test_all_zero(self):
        assert sparkline([0, 0, 0]) == "   "

    def test_resampling(self):
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10

    def test_profile_rendering(self):
        from repro.hqr import HQRConfig, hqr_elimination_list
        from repro.runtime.executor import numeric_graph
        from repro.viz import parallelism_profile

        g, _ = numeric_graph(hqr_elimination_list(16, 4, HQRConfig(p=2, a=2)), 16, 4)
        text = render_parallelism_profile(parallelism_profile(g), label="hqr")
        assert "peak=" in text and "steps=" in text

    def test_profile_empty(self):
        assert "(empty)" in render_parallelism_profile([], label="x")
