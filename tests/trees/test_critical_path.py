"""Critical paths: unit-step closed forms against the coarse scheduler,
and the pure trees' order in seconds.

§VI lists "compute critical paths" as future work; §V-B already explains
the low-level-tree results with [1]'s asymptotic estimates for an
``m' x n`` (local) tile matrix: flat ``~ m' + 2n``, greedy
``~ log2(m') + 2n``.  ``coarse_schedule`` (and the global GREEDY's own
steps) is the exact unit-time critical path they estimate; the list pass
(``list_bound``) is the one in seconds, with the kernels' weights.
"""

import math

import pytest

from repro.models.bounds import list_bound
from repro.runtime.machine import Machine
from repro.tiles.layout import SingleNode
from repro.trees import (
    BinaryTree,
    Elimination,
    FibonacciTree,
    FlatTree,
    coarse_schedule,
    greedy_elimination_list,
    make_tree,
    panel_elimination_list,
)
from repro.trees.fibonacci import fibonacci_groups


def panel_steps(name, q):
    """Steps to reduce a fresh panel of ``q`` rows with tree ``name``."""
    elims = panel_elimination_list(q, 1, make_tree(name))
    return max(coarse_schedule(elims).values(), default=0)


def flat_steps(m, n):
    elims = panel_elimination_list(m, n, FlatTree())
    return max(coarse_schedule(elims).values(), default=0)


def greedy_steps(m, n):
    _, steps = greedy_elimination_list(m, n, return_steps=True)
    return max(steps.values(), default=0)


def closed_form(name, q):
    if q == 1:
        return 0
    if name == "flat":
        return q - 1
    if name in ("binary", "greedy"):
        return math.ceil(math.log2(q))
    return len(fibonacci_groups(q - 1))


class TestPanelSteps:
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 13, 32, 100])
    @pytest.mark.parametrize("name", ["flat", "binary", "greedy", "fibonacci"])
    def test_closed_form_matches_simulation(self, name, q):
        """Flat ``q - 1``; binary and greedy ``ceil(log2 q)``; fibonacci one
        step per Fibonacci group of the ``q - 1`` victims."""
        assert panel_steps(name, q) == closed_form(name, q)
        if name == "greedy":  # the global GREEDY of Table IV, one panel
            assert greedy_steps(q, 1) == closed_form(name, q)

    def test_flat_is_linear(self):
        assert panel_steps("flat", 100) == 99

    def test_greedy_binary_logarithmic(self):
        assert panel_steps("greedy", 100) == 7
        assert panel_steps("binary", 100) == 7

    def test_fibonacci_between(self):
        assert panel_steps("binary", 100) <= panel_steps("fibonacci", 100)
        assert panel_steps("fibonacci", 100) < panel_steps("flat", 100)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            make_tree("ternary")
        twice = [Elimination(panel=0, victim=1, killer=0)] * 2
        with pytest.raises(ValueError, match="zeroed twice"):
            coarse_schedule(twice)


class TestMatrixSteps:
    def test_flat_exact_formula(self):
        """Table II generalizes: flat CP = (m - 1) + (n - 1) for m > n
        (the last row's eliminations pipeline one step per panel)."""
        for m, n in [(12, 3), (20, 5), (8, 2)]:
            assert flat_steps(m, n) == (m - 1) + (n - 1)

    def test_estimates_track_exact_for_tall_matrices(self):
        """§V-B's estimates are within a small factor of the exact paths."""
        m, n = 128, 8
        assert 0.5 < (m + 2 * n) / flat_steps(m, n) < 2.2
        assert 0.5 < (math.log2(m) + 2 * n) / greedy_steps(m, n) < 2.2

    def test_greedy_beats_flat_increasingly(self):
        ratios = [flat_steps(m, 4) / greedy_steps(m, 4) for m in (32, 128, 512)]
        assert ratios[0] < ratios[1] < ratios[2]

    def test_paper_example_2_6x(self):
        """§V-B: '((68 + 2*16)/(log2(68) + 2*16))' ~ 2.6x.  The exact unit
        paths on that 68 x 16 local matrix (82 vs 39 steps) give 2.1x: the
        estimate overstates the gap, the direction holds."""
        assert (68 + 2 * 16) / (math.log2(68) + 2 * 16) == pytest.approx(2.6, abs=0.2)
        assert (flat_steps(68, 16), greedy_steps(68, 16)) == (82, 39)


def seconds(p, q):
    """Critical path (s) per pure tree of a ``p x q``-tile QR on the ideal
    machine, where the link-aware path is the plain one."""
    lists = {
        "flat TT": panel_elimination_list(p, q, FlatTree(), ts=False),
        "binary TT": panel_elimination_list(p, q, BinaryTree()),
        "greedy TT": greedy_elimination_list(p, q),
        "fibonacci TT": panel_elimination_list(p, q, FibonacciTree()),
        "flat TS": panel_elimination_list(p, q, FlatTree(), ts=True),
    }
    mach = Machine.ideal(nodes=1)
    return {
        name: list_bound(e, p, q, SingleNode(), mach, 280).critical_path
        for name, e in lists.items()
    }


GRID = [(p, q) for p in (4, 8, 16, 32) for q in (1, 2, 4, 8) if q <= p]


class TestWeightedPaths:
    """The orderings that hold on every cell of EXPERIMENTS.md's table
    (binary TT is longer than flat TT on 8 x 4, 8 x 8 and 16 x 8, so no
    binary-vs-flat order is pinned)."""

    @pytest.mark.parametrize("p,q", GRID)
    def test_orderings(self, p, q):
        cp = seconds(p, q)
        assert cp["greedy TT"] == min(cp.values())
        assert cp["fibonacci TT"] <= cp["flat TT"]
        assert cp["flat TS"] == max(cp.values())

    def test_binary_tt_is_not_always_below_flat_tt(self):
        cp = seconds(8, 8)
        assert cp["binary TT"] > cp["flat TT"]
