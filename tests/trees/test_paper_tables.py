"""Exact reproduction of the paper's Tables I-IV (killer and step per row).

Table III's printed steps contain entries that contradict the paper's own
rules (e.g. rows 3 and 4 of panel 1 are both listed at step 4, which would
engage row 3 in two eliminations simultaneously and use it as a killer after
its own death).  The killers — which define the algorithm — are checked
cell-by-cell; steps are checked against the self-consistent coarse
scheduler, with the handful of divergent printed entries documented in
EXPERIMENTS.md.
"""

import pytest

from repro.bench.tables import table1, table2, table3, table4
from repro.trees import (
    BinaryTree,
    FlatTree,
    coarse_schedule,
    greedy_elimination_list,
    panel_elimination_list,
)


class TestTable1:
    def test_flat_panel(self):
        t = table1()
        assert t[0][0] is None  # diagonal survivor shown as ?
        for i in range(1, 12):
            assert t[i][0] == (0, i)


class TestTable2:
    # (row, panel) -> (killer, step) from the paper
    PAPER = {
        (1, 0): (0, 1),
        (5, 0): (0, 5),
        (11, 0): (0, 11),
        (2, 1): (1, 3),
        (7, 1): (1, 8),
        (11, 1): (1, 12),
        (3, 2): (2, 5),
        (9, 2): (2, 11),
        (11, 2): (2, 13),
    }

    def test_full_flat_table(self):
        t = table2()
        # every below-diagonal cell: killer = panel's diagonal row,
        # step = perfect pipeline (k + ... pattern of the paper)
        for k in range(3):
            for i in range(k + 1, 12):
                killer, step = t[i][k]
                assert killer == k
                assert step == i + k  # Table II: steps are i + k exactly

    def test_spot_values_match_paper(self):
        t = table2()
        for (i, k), expected in self.PAPER.items():
            assert t[i][k] == expected

    def test_survivors_blank(self):
        t = table2()
        assert t[0] == [None, None, None]
        assert t[1][1] is None and t[2][2] is None


class TestTable3:
    # Paper killers, panel by panel (steps see module docstring).
    PAPER_KILLERS = {
        0: {1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 6, 8: 0, 9: 8, 10: 8, 11: 10},
        1: {2: 1, 3: 1, 4: 3, 5: 1, 6: 5, 7: 5, 8: 7, 9: 1, 10: 9, 11: 9},
        2: {3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 6, 9: 8, 10: 2, 11: 10},
    }
    # Steps the paper prints that are consistent with its own rules:
    PAPER_STEPS = {
        (1, 0): 1,
        (2, 0): 2,
        (3, 0): 1,
        (4, 0): 3,
        (8, 0): 4,
        (11, 0): 1,
        (2, 1): 3,
        (4, 1): 4,
        (6, 1): 3,
        (10, 1): 3,
    }

    def test_killers_match_paper_exactly(self):
        t = table3()
        for k, rowmap in self.PAPER_KILLERS.items():
            for i, killer in rowmap.items():
                assert t[i][k][0] == killer, (i, k)

    def test_consistent_steps_match_paper(self):
        t = table3()
        for (i, k), step in self.PAPER_STEPS.items():
            assert t[i][k][1] == step, (i, k)

    def test_binary_has_pipeline_bumps(self):
        """§III-B: binary pipelines worse than flat across panels."""
        m, n = 12, 3
        flat, binary = (
            max(coarse_schedule(panel_elimination_list(m, n, tree)).values())
            for tree in (FlatTree(), BinaryTree())
        )
        # flat finishes the 3 panels in 13 steps (Table II)
        assert flat == 13
        # binary needs log-depth per panel but poor overlap; greedy beats it
        greedy = max(greedy_elimination_list(m, n, return_steps=True)[1].values())
        assert greedy <= binary


class TestTable4:
    # Full paper Table IV (killers and steps); the two entries marked in
    # EXPERIMENTS.md ((5,2) and (6,2)) are printed in the paper with an
    # overlapping pair and are reproduced here with the consistent natural
    # pairing instead.
    PAPER = {
        0: {
            1: (0, 4), 2: (1, 3), 3: (0, 2), 4: (1, 2), 5: (2, 2),
            6: (0, 1), 7: (1, 1), 8: (2, 1), 9: (3, 1), 10: (4, 1), 11: (5, 1),
        },
        1: {
            2: (1, 6), 3: (2, 5), 4: (2, 4), 5: (3, 4), 6: (3, 3),
            7: (4, 3), 8: (5, 3), 9: (6, 2), 10: (7, 2), 11: (8, 2),
        },
        2: {
            3: (2, 8), 4: (3, 7), 5: (3, 6), 6: (4, 6), 7: (5, 5),
            8: (6, 5), 9: (7, 4), 10: (8, 4), 11: (10, 3),
        },
    }

    def test_full_table(self):
        t = table4()
        for k, rowmap in self.PAPER.items():
            for i, expected in rowmap.items():
                assert t[i][k] == expected, (i, k, t[i][k], expected)

    def test_greedy_depth_beats_flat_and_binary(self):
        """Table IV finishes in 8 steps vs 13 for flat (Tables II/IV)."""
        _, steps = greedy_elimination_list(12, 3, return_steps=True)
        assert max(steps.values()) == 8


class TestCoarseScheduler:
    def test_rejects_double_kill(self):
        from repro.trees.base import Elimination

        elims = [
            Elimination(panel=0, victim=1, killer=0),
            Elimination(panel=0, victim=1, killer=0),
        ]
        with pytest.raises(ValueError, match="twice"):
            coarse_schedule(elims)

    def test_rejects_unready_row(self):
        from repro.trees.base import Elimination

        # row 2 used in panel 1 before being zeroed in panel 0
        elims = [Elimination(panel=1, victim=2, killer=1)]
        with pytest.raises(ValueError, match="never zeroed"):
            coarse_schedule(elims)

    def test_steps_start_at_one(self):
        elims = panel_elimination_list(5, 1, FlatTree())
        steps = coarse_schedule(elims)
        assert min(steps.values()) == 1

    def test_empty_list(self):
        assert coarse_schedule([]) == {}
