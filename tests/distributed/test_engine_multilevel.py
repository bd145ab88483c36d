"""Message-passing engine driven by multilevel and random trees.

Cross-module integration: elimination lists from every generator in the
library must execute correctly under distributed-memory semantics.
"""

import numpy as np
import pytest

from _support import random_elimination_list
from repro.distributed.engine import DistributedEngine, ThreadComm
from repro.hqr.multilevel import Level, MultilevelTree
from repro.runtime import SequentialExecutor
from repro.runtime.executor import numeric_graph
from repro.tiles import TiledMatrix
from repro.tiles.layout import BlockCyclic2D, Cyclic1D


def reference(A, b, elims, m, n):
    T = TiledMatrix(A.copy(), b)
    SequentialExecutor(*numeric_graph(elims, m, n), T).run()
    return T.array, elims


def make_engine(elims, m, n, layout, comm, cls=DistributedEngine, **kwargs):
    """An engine over the compiled graph of ``elims``, placed by ``layout``."""
    return cls(*numeric_graph(elims, m, n, layout), layout, comm, **kwargs)


class TestMultilevelDistributed:
    def test_two_level_tree_on_four_ranks(self, rng):
        b, m, n = 4, 12, 4
        A = rng.standard_normal((m * b, n * b))
        tree = MultilevelTree(m, n, [Level(2, "binary"), Level(2, "flat")],
                              a=2, leaf_tree="greedy")
        elims = tree.elimination_list()
        ref, g = reference(A, b, elims, m, n)
        engine = make_engine(g, m, n, Cyclic1D(4), ThreadComm(4))
        out = engine.gather_matrix(engine.run_threaded(A, b), m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))

    def test_tree_leaves_match_layout_minimizes_traffic(self, rng):
        """When the tree's leaf structure matches the rank layout, TS kills
        never cross ranks."""
        b, m, n = 4, 16, 2
        A = rng.standard_normal((m * b, n * b))
        tree = MultilevelTree(m, n, [Level(4, "binary")], a=2, leaf_tree="flat")
        elims = tree.elimination_list()
        g = elims
        lay = Cyclic1D(4)
        for e in elims:
            if e.ts:
                assert lay.owner(e.victim, 0) == lay.owner(e.killer, 0)
        engine = make_engine(g, m, n, lay, ThreadComm(4))
        results = engine.run_threaded(A, b)
        assert sum(r.sends for r in results.values()) > 0  # TT still crosses


class TestRandomTreeDistributed:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_algorithms_distribute_correctly(self, rng, seed):
        b, m, n = 4, 7, 3
        A = rng.standard_normal((m * b, n * b))
        elims = random_elimination_list(m, n, seed)
        ref, g = reference(A, b, elims, m, n)
        engine = make_engine(g, m, n, BlockCyclic2D(2, 2), ThreadComm(4))
        out = engine.gather_matrix(engine.run_threaded(A, b), m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))
