"""Numeric executors: correctness, sequential/threaded equivalence."""

import dataclasses

import numpy as np
import pytest

from repro.core.apply import apply_q
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import SequentialExecutor, ThreadedExecutor
from repro.runtime.executor import numeric_graph
from repro.tiles import TiledMatrix


def make_graph(m, n, cfg):
    """The compiled graph and its task coordinates."""
    return numeric_graph(hqr_elimination_list(m, n, cfg), m, n)


class TestSequential:
    def test_r_is_upper_triangular(self, rng):
        b, m, n = 5, 8, 4
        A = TiledMatrix(rng.standard_normal((m * b, n * b)), b)
        g = make_graph(m, n, HQRConfig(p=3, a=2))
        SequentialExecutor(*g, A).run()
        assert np.allclose(np.tril(A.array, -1), 0, atol=1e-12)

    def test_column_norm_preservation(self, rng):
        """Orthogonal transforms preserve column norms of A."""
        b, m, n = 4, 6, 3
        dense = rng.standard_normal((m * b, n * b))
        norms0 = np.linalg.norm(dense, axis=0)
        A = TiledMatrix(dense.copy(), b)
        g = make_graph(m, n, HQRConfig(p=2, a=2, low_tree="binary"))
        SequentialExecutor(*g, A).run()
        assert np.allclose(np.linalg.norm(A.array, axis=0), norms0, atol=1e-10)

    def test_dimension_mismatch_rejected(self, rng):
        g = make_graph(4, 2, HQRConfig())
        A = TiledMatrix(rng.standard_normal((12, 6)), 2)  # 6x3 tiles
        with pytest.raises(ValueError):
            SequentialExecutor(*g, A)


class TestThreadedEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_bitwise_identical_r(self, rng, workers):
        b, m, n = 4, 8, 6
        dense = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=3, a=2, low_tree="greedy", high_tree="binary")
        g = make_graph(m, n, cfg)
        A1 = TiledMatrix(dense.copy(), b)
        SequentialExecutor(*g, A1).run()
        g2 = make_graph(m, n, cfg)
        A2 = TiledMatrix(dense.copy(), b)
        ThreadedExecutor(*g2, A2, workers=workers).run()
        np.testing.assert_array_equal(A1.array, A2.array)

    def test_empty_graph(self):
        graph, coords = make_graph(1, 1, HQRConfig())
        empty = dataclasses.replace(
            graph, kind=graph.kind[:0], wait=graph.wait[:0], node=graph.node[:0],
            succ_ptr=graph.succ_ptr[:1], succ_idx=graph.succ_idx[:0],
        )
        A = TiledMatrix.zeros(2, 2, 2)
        runner = ThreadedExecutor(empty, [c[:0] for c in coords], A, workers=2).run()
        assert runner.factor_tasks == []

    def test_kernel_error_propagates(self, rng):
        """A failing kernel must surface, not deadlock the pool."""
        b, m, n = 3, 4, 2
        g = make_graph(m, n, HQRConfig())
        A = TiledMatrix(rng.standard_normal((m * b, n * b)), b)
        # sabotage: make a tile non-finite triggers no error in our kernels,
        # so instead corrupt the graph with an out-of-range tile index
        graph, (row, panel, col, killer) = g
        row[0] = m + 5
        with pytest.raises(Exception):
            ThreadedExecutor(graph, (row, panel, col, killer), A, workers=2).run()

    def test_wrong_wait_count_stalls_loudly(self, rng):
        """A task never released ends the run with an error, not a hang."""
        b, m, n = 3, 4, 2
        graph, coords = make_graph(m, n, HQRConfig())
        graph.wait = np.array(graph.wait)
        graph.wait[-1] += 1
        A = TiledMatrix(rng.standard_normal((m * b, n * b)), b)
        with pytest.raises(RuntimeError, match="stalled"):
            ThreadedExecutor(graph, coords, A, workers=3).run()

    def test_idle_workers_block_instead_of_polling(self, rng, monkeypatch):
        """Idle workers sleep on the condition with no timeout."""
        import threading

        timeouts = []
        wait = threading.Condition.wait

        def spy(self, timeout=None):
            timeouts.append(timeout)
            return wait(self, timeout)

        monkeypatch.setattr(threading.Condition, "wait", spy)
        b, m, n = 3, 8, 4
        g = make_graph(m, n, HQRConfig(p=2, a=2))
        A = TiledMatrix(rng.standard_normal((m * b, n * b)), b)
        ThreadedExecutor(*g, A, workers=4).run()
        assert set(timeouts) <= {None}

    def test_rejects_bad_worker_count(self, rng):
        g = make_graph(2, 1, HQRConfig())
        A = TiledMatrix(rng.standard_normal((4, 2)), 2)
        with pytest.raises(ValueError):
            ThreadedExecutor(*g, A, workers=0)


class TestBuildQ:
    def test_q_orthonormal_and_reconstructs(self, rng):
        b, m, n = 4, 6, 3
        M, N = m * b, n * b
        dense = rng.standard_normal((M, N))
        A = TiledMatrix(dense.copy(), b)
        g = make_graph(m, n, HQRConfig(p=2, a=2))
        runner = SequentialExecutor(*g, A).run()
        Q = apply_q(runner, np.eye(M, N), b, trans=False)
        R = np.triu(A.array)[:N]
        assert np.max(np.abs(Q.T @ Q - np.eye(N))) < 1e-13
        assert np.max(np.abs(Q @ R - dense)) < 1e-12

    def test_full_q(self, rng):
        b, m, n = 3, 4, 2
        M, N = m * b, n * b
        dense = rng.standard_normal((M, N))
        A = TiledMatrix(dense.copy(), b)
        g = make_graph(m, n, HQRConfig(p=2, a=2, low_tree="binary"))
        runner = SequentialExecutor(*g, A).run()
        Q = apply_q(runner, np.eye(M), b, trans=False)
        assert Q.shape == (M, M)
        assert np.max(np.abs(Q.T @ Q - np.eye(M))) < 1e-13
        assert np.max(np.abs(Q @ np.triu(A.array) - dense)) < 1e-12

    def test_threaded_runner_builds_same_q_subspace(self, rng):
        b, m, n = 4, 6, 3
        M, N = m * b, n * b
        dense = rng.standard_normal((M, N))
        cfg = HQRConfig(p=3, a=2)
        A1 = TiledMatrix(dense.copy(), b)
        r1 = SequentialExecutor(*make_graph(m, n, cfg), A1).run()
        A2 = TiledMatrix(dense.copy(), b)
        r2 = ThreadedExecutor(*make_graph(m, n, cfg), A2, workers=4).run()
        Q1 = apply_q(r1, np.eye(M, N), b, trans=False)
        Q2 = apply_q(r2, np.eye(M, N), b, trans=False)
        np.testing.assert_allclose(Q1, Q2, atol=1e-12)
