"""Tile-major storage layout."""

import numpy as np
import pytest

from repro.tiles import TiledMatrix
from repro.tiles.storage import TileMajorMatrix


class TestLayout:
    def test_roundtrip(self, rng):
        A = rng.standard_normal((10, 7))
        tm = TileMajorMatrix(A, 3)
        np.testing.assert_array_equal(tm.to_array(), A)

    def test_tiles_are_contiguous(self, rng):
        tm = TileMajorMatrix(rng.standard_normal((9, 9)), 3)
        for i, j, _ in tm.iter_tiles():
            assert tm.is_contiguous(i, j)

    def test_dense_backed_interior_tiles_are_not(self, rng):
        """The property tile-major storage buys."""
        dense = TiledMatrix(rng.standard_normal((9, 9)), 3)
        assert not dense.tile(1, 1).flags["C_CONTIGUOUS"]

    def test_mutation_persists(self, rng):
        tm = TileMajorMatrix(rng.standard_normal((6, 6)), 3)
        tm.tile(1, 1)[...] = 0.0
        assert np.all(tm.to_array()[3:, 3:] == 0)

    def test_ragged_edges(self, rng):
        tm = TileMajorMatrix(rng.standard_normal((10, 7)), 3)
        assert tm.tile_shape(3, 2) == (1, 1)

    def test_out_of_range(self):
        tm = TileMajorMatrix.zeros(6, 6, 3)
        with pytest.raises(IndexError):
            tm.tile(2, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TileMajorMatrix(np.zeros(4), 2)
        with pytest.raises(ValueError):
            TileMajorMatrix(np.zeros((4, 4)), 0)

    def test_to_tiled(self, rng):
        A = rng.standard_normal((8, 4))
        np.testing.assert_array_equal(TileMajorMatrix(A, 4).to_tiled().array, A)


class TestExecutorCompatibility:
    def test_sequential_executor_runs_on_tile_major(self, rng):
        """Same factorization on either storage, bitwise."""
        from repro.hqr import HQRConfig, hqr_elimination_list
        from repro.runtime import SequentialExecutor
        from repro.runtime.executor import numeric_graph

        b, m, n = 4, 6, 3
        A = rng.standard_normal((m * b, n * b))
        g = numeric_graph(hqr_elimination_list(m, n, HQRConfig(p=2, a=2)), m, n)
        dense = TiledMatrix(A.copy(), b)
        SequentialExecutor(*g, dense).run()
        tm = TileMajorMatrix(A.copy(), b)
        SequentialExecutor(*g, tm).run()
        np.testing.assert_array_equal(tm.to_array(), dense.array)
