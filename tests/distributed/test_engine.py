"""Message-passing engine: distributed execution equals sequential."""

import numpy as np
import pytest

from repro.distributed.engine import DistributedEngine, ThreadComm
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import SequentialExecutor
from repro.runtime.executor import numeric_graph
from repro.tiles import TiledMatrix
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D, SingleNode


def sequential_r(A, b, m, n, cfg):
    elims = hqr_elimination_list(m, n, cfg)
    T = TiledMatrix(A.copy(), b)
    SequentialExecutor(*numeric_graph(elims, m, n), T).run()
    return T.array, elims


def make_engine(elims, m, n, layout, comm, cls=DistributedEngine, **kwargs):
    """An engine over the compiled graph of ``elims``, placed by ``layout``."""
    return cls(*numeric_graph(elims, m, n, layout), layout, comm, **kwargs)


class TestThreadComm:
    def test_send_recv_roundtrip(self):
        comm = ThreadComm(2)
        comm.send({"x": 1}, dest=1, tag=7, source=0)
        assert comm.recv(source=0, tag=7, rank=1) == {"x": 1}

    def test_tag_isolation(self):
        comm = ThreadComm(2)
        comm.send("a", dest=1, tag=1, source=0)
        comm.send("b", dest=1, tag=2, source=0)
        assert comm.recv(source=0, tag=2, rank=1) == "b"
        assert comm.recv(source=0, tag=1, rank=1) == "a"

    def test_timeout(self):
        comm = ThreadComm(2)
        with pytest.raises(TimeoutError):
            comm.recv(source=0, tag=9, rank=1, timeout=0.05)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            ThreadComm(0)


class TestDistributedExecution:
    @pytest.mark.parametrize(
        "layout_factory,ranks",
        [
            (lambda m: Cyclic1D(3), 3),
            (lambda m: Block1D(4, m), 4),
            (lambda m: BlockCyclic2D(2, 2), 4),
            (lambda m: SingleNode(), 1),
        ],
        ids=["cyclic", "block", "2dcyclic", "single"],
    )
    def test_matches_sequential_bitwise(self, rng, layout_factory, ranks):
        b, m, n = 4, 8, 4
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2, low_tree="greedy", high_tree="binary")
        ref, g = sequential_r(A, b, m, n, cfg)
        engine = make_engine(g, m, n, layout_factory(m), ThreadComm(ranks))
        results = engine.run_threaded(A, b)
        out = engine.gather_matrix(results, m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))

    def test_each_rank_runs_only_its_tasks(self, rng):
        b, m, n = 4, 9, 3
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=3, a=1, low_tree="binary")
        g = hqr_elimination_list(m, n, cfg)
        engine = make_engine(g, m, n, Cyclic1D(3), ThreadComm(3))
        results = engine.run_threaded(A, b)
        assert sum(r.tasks_run for r in results.values()) == len(engine.graph)
        assert all(r.tasks_run > 0 for r in results.values())

    def test_sends_match_recvs(self, rng):
        b, m, n = 4, 8, 4
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2)
        g = hqr_elimination_list(m, n, cfg)
        engine = make_engine(g, m, n, Cyclic1D(2), ThreadComm(2))
        results = engine.run_threaded(A, b)
        assert sum(r.sends for r in results.values()) == sum(
            r.recvs for r in results.values()
        )
        assert sum(r.sends for r in results.values()) > 0

    def test_single_rank_no_messages(self, rng):
        b, m, n = 4, 6, 3
        A = rng.standard_normal((m * b, n * b))
        g = hqr_elimination_list(m, n, HQRConfig())
        engine = make_engine(g, m, n, SingleNode(), ThreadComm(1))
        results = engine.run_threaded(A, b)
        assert results[0].sends == results[0].recvs == 0

    def test_numerical_quality(self, rng):
        """Distributed run passes the paper's §V-A checks."""
        import scipy.linalg as sla

        b, m, n = 5, 10, 4
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2, low_tree="fibonacci", high_tree="greedy")
        g = hqr_elimination_list(m, n, cfg)
        engine = make_engine(g, m, n, BlockCyclic2D(2, 2), ThreadComm(4))
        results = engine.run_threaded(A, b)
        out = engine.gather_matrix(results, m * b, n * b, b)
        R = np.triu(out)[: n * b]
        Rref = sla.qr(A, mode="r")[0][: n * b]
        np.testing.assert_allclose(np.abs(R), np.abs(Rref), atol=1e-10)

    def test_rejects_undersized_comm(self, rng):
        g = hqr_elimination_list(4, 2, HQRConfig())
        with pytest.raises(ValueError):
            make_engine(g, 4, 2, Cyclic1D(4), ThreadComm(2))

    def test_ragged_edge_tiles(self, rng):
        """Distribution also works when M, N are not tile multiples."""
        b, m, n = 4, 5, 3  # 18x10 matrix -> 5x3 tiles with ragged edges
        M, N = 18, 10
        A = rng.standard_normal((M, N))
        cfg = HQRConfig(p=2, a=2)
        from repro.tiles.matrix import TiledMatrix

        tiled = TiledMatrix(A.copy(), b)
        g = hqr_elimination_list(tiled.m, tiled.n, cfg)
        ref = TiledMatrix(A.copy(), b)
        SequentialExecutor(*numeric_graph(g, m, n), ref).run()
        engine = make_engine(g, m, n, Cyclic1D(2), ThreadComm(2))
        results = engine.run_threaded(A, b)
        out = engine.gather_matrix(results, M, N, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref.array))


class TestTagEncoding:
    def test_tags_fit_32bit_at_paper_scale(self):
        """Tag magnitude is O(ntasks x max_preds), not O(ntasks^2) — a
        512 x 16-tile graph (104k tasks) must stay under MPI_TAG_UB on
        32-bit-tag MPI implementations."""
        from repro.hqr import HQRConfig, hqr_elimination_list

        m, n = 512, 16
        g = hqr_elimination_list(m, n, HQRConfig(p=15, a=4))
        engine = make_engine(g, m, n, SingleNode(), ThreadComm(1))
        worst = (len(engine.graph) - 1) * engine._tag_stride + engine._tag_stride - 1
        assert worst < 2**31 - 1

    def test_tags_unique_per_edge(self):
        from repro.hqr import HQRConfig, hqr_elimination_list

        m, n = 8, 4
        g = hqr_elimination_list(m, n, HQRConfig(p=2, a=2))
        engine = make_engine(g, m, n, SingleNode(), ThreadComm(1))
        ptr, preds = engine.graph.pred_ptr, engine.graph.pred_idx
        tags = set()
        for t in range(len(engine.graph)):
            for p in preds[ptr[t] : ptr[t + 1]].tolist():
                tag = engine._tag(t, p)
                assert tag not in tags
                tags.add(tag)
        assert len(tags) == len(preds)
