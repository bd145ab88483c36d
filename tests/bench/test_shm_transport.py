"""Shared-memory graph transport: fidelity, cleanup, and fallbacks."""

import logging
import os
from pathlib import Path

import numpy as np
import pytest

from repro.bench.parallel import parallel_map
from repro.bench.runner import BenchSetup, run_config_sweep
from repro.bench.shm import _ARRAY_FIELDS, GraphArena, attach
from repro.dag.compiled import compiled_from_eliminations
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.compiled import simulate_compiled
from repro.runtime.machine import Machine

SHM_DIR = Path("/dev/shm")

needs_dev_shm = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="no /dev/shm on this platform"
)


def small_setup():
    return BenchSetup(
        b=40, grid_p=4, grid_q=2, machine=Machine(nodes=8, cores_per_node=4)
    )


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    from repro.dag import cache as cache_mod

    c = cache_mod.CompiledGraphCache(tmp_path / "graphs")
    monkeypatch.setattr(cache_mod, "_default", c)
    return c


def _graphs(setup, count=3):
    graphs = []
    for a in range(1, count + 1):
        cfg = HQRConfig(p=4, q=2, a=a)
        elims = hqr_elimination_list(12, 4, cfg)
        graphs.append(
            compiled_from_eliminations(
                elims, 12, 4, setup.layout, setup.machine, setup.b
            )
        )
    return graphs


def _shm_names():
    return {p.name for p in SHM_DIR.iterdir()} if SHM_DIR.is_dir() else set()


def test_arena_roundtrip_same_process():
    setup = small_setup()
    graphs = _graphs(setup)
    with GraphArena.publish(graphs) as arena:
        attached = attach(arena.handle)
        assert len(attached) == len(graphs)
        for orig, view in zip(graphs, attached):
            assert (orig.m, orig.n, orig.nslots) == (view.m, view.n, view.nslots)
            for field in _ARRAY_FIELDS:
                np.testing.assert_array_equal(
                    getattr(orig, field), getattr(view, field)
                )
            assert simulate_compiled(
                view, setup.machine, setup.b
            ) == simulate_compiled(orig, setup.machine, setup.b)
        # attach is cached per process: same handle -> same objects
        assert attach(arena.handle) is attached


@needs_dev_shm
def test_arena_dispose_removes_segment():
    setup = small_setup()
    before = _shm_names()
    arena = GraphArena.publish(_graphs(setup, count=1))
    created = _shm_names() - before
    assert created, "publish did not create a /dev/shm segment"
    arena.dispose()
    arena.dispose()  # idempotent
    assert _shm_names() - before == set()


def test_dispose_evicts_parent_attach_cache():
    """The serial fallback attaches the parent to its own segment;
    dispose must evict (and close) that cached mapping or the parent
    accumulates one mapping per sweep for the process lifetime."""
    from repro.bench import shm as shm_mod

    setup = small_setup()
    arena = GraphArena.publish(_graphs(setup, count=1))
    name = arena.handle.name
    zombies_before = len(shm_mod._zombies)
    graphs = attach(arena.handle)
    assert name in shm_mod._attached
    del graphs  # release the views so the eviction can unmap cleanly
    arena.dispose()
    assert name not in shm_mod._attached
    assert len(shm_mod._zombies) == zombies_before


# module-level so it pickles into pool workers
_PARENT_PID_ENV = "REPRO_TEST_SHM_PARENT"


def _sim_or_die(item):
    handle, index, machine, b = item
    if os.environ.get(_PARENT_PID_ENV) != str(os.getpid()):
        os._exit(13)  # simulated worker crash, skipping all cleanup
    cg = attach(handle)[index]
    return simulate_compiled(cg, machine, b)


@needs_dev_shm
def test_no_leaked_segments_when_workers_crash(monkeypatch):
    """A killed worker must not leave /dev/shm segments behind: the
    parent owns the arena and disposes it, so worker death (which skips
    atexit detach) costs nothing."""
    monkeypatch.setenv(_PARENT_PID_ENV, str(os.getpid()))
    setup = small_setup()
    graphs = _graphs(setup)
    expected = [simulate_compiled(g, setup.machine, setup.b) for g in graphs]
    before = _shm_names()
    with GraphArena.publish(graphs) as arena:
        items = [
            (arena.handle, i, setup.machine, setup.b)
            for i in range(len(graphs))
        ]
        # pool workers die; parallel_map falls back to in-parent serial
        got = parallel_map(_sim_or_die, items, workers=2)
    assert got == expected
    assert _shm_names() - before == set()


@needs_dev_shm
def test_sweep_leaves_no_segments(fresh_cache, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CORE", "python")
    setup = small_setup()
    points = [(12, 4, HQRConfig(p=4, q=2, a=a)) for a in (1, 2, 3)]
    before = _shm_names()
    serial = run_config_sweep(points, setup, workers=1, batch=False)
    pooled = run_config_sweep(points, setup, workers=2, batch=True)
    assert pooled == serial
    assert _shm_names() - before == set()


def test_transport_logged_once(fresh_cache, caplog, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CORE", "python")
    setup = small_setup()
    points = [(12, 4, HQRConfig(p=4, q=2, a=a)) for a in (1, 2)]
    with caplog.at_level(logging.INFO, logger="repro.bench.parallel"):
        run_config_sweep(points, setup, workers=2, batch=True)
    lines = [r.message for r in caplog.records if "sweep transport" in r.message]
    assert len(lines) == 1
    assert "shared-memory" in lines[0]

    caplog.clear()
    with caplog.at_level(logging.INFO, logger="repro.bench.parallel"):
        run_config_sweep(points, setup, workers=1, batch=True)
    lines = [r.message for r in caplog.records if "sweep transport" in r.message]
    assert len(lines) == 1
    assert "incremental" in lines[0]


def test_recycle_env(monkeypatch):
    from repro.bench.parallel import recycle_tasks

    monkeypatch.delenv("REPRO_BENCH_RECYCLE", raising=False)
    assert recycle_tasks() == 0
    monkeypatch.setenv("REPRO_BENCH_RECYCLE", "8")
    assert recycle_tasks() == 8
    monkeypatch.setenv("REPRO_BENCH_RECYCLE", "lots")
    with pytest.raises(ValueError):
        recycle_tasks()


def _square(x):
    return x * x


@pytest.mark.slow
def test_recycled_pool_still_correct(monkeypatch):
    """Worker recycling (forkserver + max_tasks_per_child) changes the
    pool construction, never the results."""
    monkeypatch.setenv("REPRO_BENCH_RECYCLE", "2")
    assert parallel_map(_square, list(range(6)), workers=2) == [
        x * x for x in range(6)
    ]
