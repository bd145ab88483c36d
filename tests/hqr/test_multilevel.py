"""Generalized multi-level hierarchical trees."""

import numpy as np
import pytest

from repro.hqr import check_elimination_list
from repro.hqr.multilevel import Level, MultilevelTree
from repro.trees import Elimination, make_tree
from repro.trees.base import EliminationArray


# --------------------------------------------------------------------- #
# oracle: one frozen Elimination per kill, rows gathered into lists and
# dicts of lists.  Inside a leaf it follows HQR's levels 0-1 (domino off,
# §IV-B): fixed TS domains of ``a`` local rows (row // leaves) led by
# their first participant, every leaf's TS kills before any leaf's tree
# kills (at a = 1 there are none); then one tree per hierarchy level
# --------------------------------------------------------------------- #
def _oracle_panel(tree: MultilevelTree, k: int, leaf_tree: str) -> list[Elimination]:
    p, a = tree.leaves, tree.a
    ts, low = [], []
    survivors = {}  # leaf -> surviving row
    for leaf in range(p):
        rows = [i for i in range(k, tree.m) if i % p == leaf]
        if not rows:
            continue
        leaders = []
        for row in rows:
            leader = max(row // p // a * a * p + leaf, rows[0])
            if row == leader:
                leaders.append(row)
            else:
                ts.append(Elimination(k, row, leader, ts=True))
        for victim, killer in make_tree(leaf_tree).eliminations(leaders):
            low.append(Elimination(k, victim, killer))
        survivors[leaf] = leaders[0]
    elims = ts + low
    current = {tree.group_path(leaf): row for leaf, row in survivors.items()}
    for depth in range(len(tree.levels) - 1, -1, -1):
        merged = {}
        for path, row in current.items():
            merged.setdefault(path[:depth] + path[depth + 1 :], []).append(row)
        current = {}
        for parent, rows in merged.items():
            rows.sort()
            for victim, killer in make_tree(tree.levels[depth].tree).eliminations(rows):
                elims.append(Elimination(k, victim, killer))
            current[parent] = rows[0]
    return elims


STACKS = {
    "two": [Level(2, "binary"), Level(3, "fibonacci")],
    "three": [Level(2, "flat"), Level(2, "greedy"), Level(2, "binary")],
    "wide": [Level(5, "greedy")],
}


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("a", [1, 2, 4])
@pytest.mark.parametrize(
    "m,n", [(1, 1), (1, 4), (2, 1), (4, 2), (5, 5), (6, 9), (17, 5), (40, 3)]
)
def test_array_list_equals_object_oracle(stack, a, m, n):
    tree = MultilevelTree(m, n, STACKS[stack], a=a, leaf_tree="greedy")
    want = [e for k in range(tree.panels) for e in _oracle_panel(tree, k, "greedy")]
    got = tree.elimination_list()
    assert isinstance(got, EliminationArray)
    assert got == want and list(got) == want
    assert got.ts.tolist() == [e.ts for e in want]
    assert got.panel.format == got.victim.format == got.killer.format == "i"
    for k in range(tree.panels):
        panel = tree.panel_eliminations(k)
        assert isinstance(panel, EliminationArray)
        assert panel == _oracle_panel(tree, k, "greedy")


class TestConstruction:
    def test_leaf_count(self):
        t = MultilevelTree(30, 4, [Level(2), Level(3), Level(2)])
        assert t.leaves == 12

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            MultilevelTree(8, 2, [])

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            Level(0)

    def test_rejects_bad_tree(self):
        with pytest.raises(ValueError):
            Level(2, tree="ternary")

    def test_group_path_roundtrip(self):
        t = MultilevelTree(30, 4, [Level(2), Level(3), Level(2)])
        paths = {t.group_path(leaf) for leaf in range(12)}
        assert len(paths) == 12
        for leaf in range(12):
            d0, d1, d2 = t.group_path(leaf)  # big-endian: outer digit first
            assert leaf == (d0 * 3 + d1) * 2 + d2

    def test_innermost_groups_are_contiguous(self):
        t = MultilevelTree(30, 4, [Level(2), Level(4)])
        # leaves 0-3 share the outer digit (site 0), 4-7 site 1
        assert {t.group_path(l)[0] for l in range(4)} == {0}
        assert {t.group_path(l)[0] for l in range(4, 8)} == {1}


class TestValidity:
    @pytest.mark.parametrize(
        "levels",
        [
            [Level(3, "binary")],
            [Level(2, "binary"), Level(3, "fibonacci")],
            [Level(2, "flat"), Level(2, "greedy"), Level(2, "binary")],
            [Level(5, "greedy")],
        ],
        ids=["single", "two", "three", "wide"],
    )
    @pytest.mark.parametrize("m,n,a", [(17, 5, 1), (24, 6, 2), (9, 9, 3), (40, 3, 4)])
    def test_always_valid(self, levels, m, n, a):
        t = MultilevelTree(m, n, levels, a=a, leaf_tree="greedy")
        check_elimination_list(t.elimination_list(), m, n)

    def test_deep_hierarchy(self):
        levels = [Level(2, "binary")] * 4  # 16 leaves, 4 reduction levels
        t = MultilevelTree(40, 5, levels, a=2)
        check_elimination_list(t.elimination_list(), 40, 5)

    def test_more_leaves_than_rows(self):
        t = MultilevelTree(4, 2, [Level(4), Level(3)])
        check_elimination_list(t.elimination_list(), 4, 2)


class TestStructure:
    def test_single_level_matches_hqr_shape(self):
        """[Level(p, tree)] is HQR(p, a, domino off), bitwise, for every a."""
        from repro.hqr import HQRConfig, hqr_elimination_list

        for a in (1, 2, 4):
            for low, high in [("greedy", "binary"), ("flat", "fibonacci"),
                              ("binary", "greedy"), ("fibonacci", "flat")]:
                for m, n, p in [(18, 4, 3), (2, 1, 3), (17, 5, 5), (40, 9, 4),
                                (24, 30, 2), (9, 9, 1)]:
                    ml = MultilevelTree(m, n, [Level(p, high)], a=a, leaf_tree=low)
                    hq = hqr_elimination_list(m, n, HQRConfig(
                        p=p, a=a, low_tree=low, high_tree=high, domino=False,
                    ))
                    assert ml.elimination_list() == hq, (a, low, high, m, n, p)
                    assert ml.elimination_list().ts == hq.ts

    def test_ts_kills_within_leaf(self):
        t = MultilevelTree(24, 4, [Level(2), Level(2)], a=2)
        for e in t.elimination_list():
            if e.ts:
                assert t.leaf_of(e.victim) == t.leaf_of(e.killer)

    def test_cross_site_kills_only_at_top(self):
        """With levels [sites=2, nodes=3], a kill crossing sites must
        involve the two site survivors."""
        m, n = 30, 3
        t = MultilevelTree(m, n, [Level(2, "flat"), Level(3, "binary")], a=1)
        for k in range(t.panels):
            cross = [
                e
                for e in t.panel_eliminations(k)
                if t.group_path(t.leaf_of(e.victim))[0]
                != t.group_path(t.leaf_of(e.killer))[0]
            ]
            # exactly one cross-site elimination per panel (2 sites -> 1)
            assert len(cross) == 1

    def test_grid5000_configuration(self):
        """[3]'s setting: binary over binary (grid of clusters), TS inside."""
        t = MultilevelTree(
            64, 4, [Level(2, "binary"), Level(4, "binary")], a=4, leaf_tree="flat"
        )
        elims = t.elimination_list()
        check_elimination_list(elims, 64, 4)
        assert any(e.ts for e in elims)

    def test_coarse_depth_beats_single_flat(self):
        """A deep hierarchy shortens the coarse critical path vs one flat
        tree over everything."""
        from repro.trees import FlatTree, coarse_schedule, panel_elimination_list

        m, n = 48, 2
        deep = MultilevelTree(m, n, [Level(4, "binary"), Level(4, "binary")], a=1,
                              leaf_tree="binary")
        flat = panel_elimination_list(m, n, FlatTree())
        deep_span = max(coarse_schedule(deep.elimination_list()).values())
        flat_span = max(coarse_schedule(flat).values())
        assert deep_span < flat_span / 2
