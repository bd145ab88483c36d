"""Resilient message-passing engine: worker death, drops, retries."""

import numpy as np
import pytest

from repro.distributed.engine import (
    CommTimeout,
    DistributedEngine,
    ResilientComm,
    ResilientEngine,
    ThreadComm,
    WorkerKill,
)
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime import SequentialExecutor
from repro.runtime.executor import numeric_graph
from repro.tiles import TiledMatrix
from repro.tiles.layout import BlockCyclic2D, Cyclic1D


def sequential_r(A, b, m, n, cfg):
    elims = hqr_elimination_list(m, n, cfg)
    T = TiledMatrix(A.copy(), b)
    SequentialExecutor(*numeric_graph(elims, m, n), T).run()
    return T.array, elims


def make_engine(elims, m, n, layout, comm, cls=DistributedEngine, **kwargs):
    """An engine over the compiled graph of ``elims``, placed by ``layout``."""
    return cls(*numeric_graph(elims, m, n, layout), layout, comm, **kwargs)


class TestResilientComm:
    def test_roundtrip(self):
        comm = ResilientComm(2)
        comm.send({"x": 1}, dest=1, tag=7, source=0)
        assert comm.recv(source=0, tag=7, rank=1) == {"x": 1}

    def test_dropped_message_recovered_from_log(self):
        comm = ResilientComm(2, drop={0}, retry_timeout=0.01)
        comm.send("lost", dest=1, tag=3, source=0)
        assert comm.recv(source=0, tag=3, rank=1) == "lost"
        stats = comm.stats()
        assert stats["drops"] == 1
        assert stats["retransmits"] == 1
        assert stats["recv_retries"] >= 1

    def test_timeout_exhaustion(self):
        comm = ResilientComm(2, retry_timeout=0.005, max_retries=3)
        with pytest.raises(CommTimeout):
            comm.recv(source=0, tag=9, rank=1)

    def test_replay_redelivers_inbox(self):
        comm = ResilientComm(3)
        comm.send("a", dest=1, tag=1, source=0)
        comm.send("b", dest=1, tag=2, source=2)
        comm.send("other", dest=2, tag=1, source=0)
        assert comm.recv(source=0, tag=1, rank=1) == "a"  # consumed...
        assert comm.replay_to(1) == 2  # ...but replay restores everything
        assert comm.recv(source=0, tag=1, rank=1) == "a"
        assert comm.recv(source=2, tag=2, rank=1) == "b"

    def test_rejects_bad_retry_params(self):
        with pytest.raises(ValueError):
            ResilientComm(2, retry_timeout=0.0)
        with pytest.raises(ValueError):
            ResilientComm(2, backoff=0.5)


class TestResilientEngine:
    @pytest.mark.parametrize("sim_core", ["python", "c"])
    def test_killed_worker_matches_sequential_bitwise(
        self, rng, request, sim_core
    ):
        """A mid-run worker death must not change a single bit of R,
        with or without the native core."""
        if sim_core == "python":
            request.getfixturevalue("no_native")
        b, m, n = 4, 8, 4
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2, low_tree="greedy", high_tree="binary")
        ref, g = sequential_r(A, b, m, n, cfg)
        comm = ResilientComm(4)
        engine = make_engine(g, m, n, BlockCyclic2D(2, 2), comm, cls=ResilientEngine)
        results = engine.run_threaded(
            A, b, kill=WorkerKill(rank=1, after_tasks=2)
        )
        out = engine.gather_matrix(results, m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))
        assert engine.last_recoveries == {1: 1}

    def test_kill_at_task_zero(self, rng):
        """Death before the rank's first task: full inline re-execution."""
        b, m, n = 4, 6, 3
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=3, a=1, low_tree="binary")
        ref, g = sequential_r(A, b, m, n, cfg)
        engine = make_engine(g, m, n, Cyclic1D(3), ResilientComm(3), cls=ResilientEngine)
        results = engine.run_threaded(A, b, kill=WorkerKill(rank=2))
        out = engine.gather_matrix(results, m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))

    def test_no_kill_is_clean(self, rng):
        b, m, n = 4, 8, 4
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2)
        ref, g = sequential_r(A, b, m, n, cfg)
        engine = make_engine(g, m, n, Cyclic1D(2), ResilientComm(2), cls=ResilientEngine)
        results = engine.run_threaded(A, b)
        out = engine.gather_matrix(results, m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))
        assert engine.last_recoveries == {}

    def test_message_drops_survive_via_retransmission(self, rng):
        """Every 5th message lost on the wire; receivers pull the payloads
        from the send log and the run still matches sequential."""
        b, m, n = 4, 8, 4
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2, low_tree="greedy", high_tree="binary")
        ref, g = sequential_r(A, b, m, n, cfg)
        comm = ResilientComm(
            4, drop=lambda i: i % 5 == 0, retry_timeout=0.01
        )
        engine = make_engine(g, m, n, BlockCyclic2D(2, 2), comm, cls=ResilientEngine)
        results = engine.run_threaded(A, b)
        out = engine.gather_matrix(results, m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))
        stats = comm.stats()
        assert stats["drops"] > 0
        assert stats["retransmits"] == stats["drops"]

    def test_requires_resilient_comm(self, rng):
        g = hqr_elimination_list(4, 2, HQRConfig())
        with pytest.raises(TypeError, match="ResilientComm"):
            make_engine(g, 4, 2, Cyclic1D(2), ThreadComm(2), cls=ResilientEngine)

    def test_plain_engine_accepts_resilient_comm(self, rng):
        """ResilientComm is a drop-in ThreadComm for the plain engine."""
        b, m, n = 4, 6, 3
        A = rng.standard_normal((m * b, n * b))
        cfg = HQRConfig(p=2, a=2)
        ref, g = sequential_r(A, b, m, n, cfg)
        engine = make_engine(g, m, n, Cyclic1D(2), ResilientComm(2))
        results = engine.run_threaded(A, b)
        out = engine.gather_matrix(results, m * b, n * b, b)
        np.testing.assert_array_equal(np.triu(out), np.triu(ref))
