"""Compiled-graph cache: fingerprint sensitivity and disk round-trips."""

import dataclasses

import numpy as np
import pytest

import repro.dag.cache as cache_mod
from repro.dag.cache import CompiledGraphCache, fingerprint
from repro.dag.compiled import compiled_from_eliminations
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.machine import Machine
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D

M_TILES, N_TILES, B = 16, 4, 40

BASE_CONFIG = HQRConfig(p=4, q=2, a=2, low_tree="greedy", high_tree="fibonacci")
BASE_MACHINE = Machine(nodes=8, cores_per_node=4)
BASE_LAYOUT = BlockCyclic2D(4, 2)


def base_key(**over):
    args = dict(
        m=M_TILES, n=N_TILES, config=BASE_CONFIG,
        layout=BASE_LAYOUT, machine=BASE_MACHINE, b=B,
    )
    args.update(over)
    return fingerprint(**args)


def build_graph():
    elims = hqr_elimination_list(M_TILES, N_TILES, BASE_CONFIG)
    return compiled_from_eliminations(
        elims, M_TILES, N_TILES, BASE_LAYOUT, BASE_MACHINE, B
    )


def test_fingerprint_deterministic():
    assert base_key() == base_key()


def test_fingerprint_changes_with_shape_and_tile():
    ref = base_key()
    assert base_key(m=M_TILES + 1) != ref
    assert base_key(n=N_TILES + 1) != ref
    assert base_key(b=B + 1) != ref


def test_fingerprint_sensitive_to_every_config_field():
    ref = base_key()
    changed = {
        "p": 5,
        "q": 1,
        "a": 4,
        "low_tree": "binary",
        "high_tree": "flat",
        "domino": not BASE_CONFIG.domino,
    }
    for field, value in changed.items():
        cfg = dataclasses.replace(BASE_CONFIG, **{field: value})
        assert base_key(config=cfg) != ref, field


def test_fingerprint_sensitive_to_every_machine_field():
    ref = base_key()
    changed = {
        "nodes": 9,
        "cores_per_node": 2,
        "latency": 1e-5,
        "bandwidth": 1e9,
        "comm_serialized": False,
        "site_size": 2,
        "inter_site_latency": 5e-4,
        "inter_site_bandwidth": 1e8,
        "rates": dataclasses.replace(BASE_MACHINE.rates, peak=1.0),
    }
    for field, value in changed.items():
        machine = dataclasses.replace(BASE_MACHINE, **{field: value})
        assert base_key(machine=machine) != ref, field


def test_fingerprint_sensitive_to_layout():
    ref = base_key()
    assert base_key(layout=BlockCyclic2D(2, 4)) != ref
    assert base_key(layout=Cyclic1D(8)) != ref
    assert base_key(layout=Block1D(8, M_TILES)) != ref


def test_fingerprint_stable_across_reconstruction():
    """Regression: ``default=repr`` leaked ``object at 0x...`` addresses
    into the digest, so two equal-valued inputs built independently hashed
    differently and the disk cache never hit across processes."""
    key = fingerprint(
        m=M_TILES,
        n=N_TILES,
        config=HQRConfig(p=4, q=2, a=2, low_tree="greedy", high_tree="fibonacci"),
        layout=BlockCyclic2D(4, 2),
        machine=Machine(nodes=8, cores_per_node=4),
        b=B,
    )
    assert key == base_key()


class _OpaqueLayout(Cyclic1D):
    """A user layout carrying an attribute with no stable serialization."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.scratch = object()


def test_fingerprint_rejects_unserializable_values():
    with pytest.raises(TypeError, match="scratch"):
        base_key(layout=_OpaqueLayout(8))


def test_run_config_bypasses_cache_for_unserializable_layout(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    monkeypatch.setattr(cache_mod, "_default", None)
    from repro.bench.runner import BenchSetup, run_config

    setup = BenchSetup(b=B, grid_p=4, grid_q=2, machine=BASE_MACHINE)
    res = run_config(
        M_TILES, N_TILES, BASE_CONFIG, setup, layout=_OpaqueLayout(8)
    )
    assert res.makespan > 0
    assert not list((tmp_path / "graphs").glob("cg_*.npz"))  # nothing cached
    monkeypatch.setattr(cache_mod, "_default", None)


def test_memory_and_disk_round_trip(tmp_path):
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    assert cache.get(key) is None
    cg = build_graph()
    cache.put(key, cg)
    assert cache.get(key) is cg  # memory hit returns the same object

    # a fresh instance must reload an equal graph from disk
    fresh = CompiledGraphCache(root=tmp_path)
    loaded = fresh.get(key)
    assert loaded is not None
    assert (loaded.m, loaded.n, loaded.nslots) == (cg.m, cg.n, cg.nslots)
    for field in (
        "kind", "row", "panel", "col", "killer", "pred_ptr", "pred_idx",
        "succ_ptr", "succ_idx", "node", "edge_slot", "dur_table",
    ):
        assert np.array_equal(getattr(loaded, field), getattr(cg, field)), field


def test_get_or_build_builds_once(tmp_path):
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    calls = []

    def builder():
        calls.append(1)
        return build_graph()

    first = cache.get_or_build(key, builder)
    second = cache.get_or_build(key, builder)
    assert first is second
    assert len(calls) == 1


def test_get_or_build_releases_gate_when_builder_raises(tmp_path):
    """A raising builder must not leak its per-key gate (the daemon's
    long-lived cache would keep one lock per failed key), and the key
    stays buildable."""
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()

    def broken():
        raise RuntimeError("planner blew up")

    for _ in range(3):
        with pytest.raises(RuntimeError, match="planner blew up"):
            cache.get_or_build(key, broken)
        assert cache._building == {}
    cg = cache.get_or_build(key, build_graph)
    assert cache._building == {}
    assert cache.get(key) is cg
    assert cache.stats()["store"] == 1


def test_stale_version_rejected(tmp_path, monkeypatch):
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    cache.put(key, build_graph())
    fresh = CompiledGraphCache(root=tmp_path)
    monkeypatch.setattr(cache_mod, "CACHE_VERSION", cache_mod.CACHE_VERSION + 1)
    assert fresh.get(key) is None


def test_fingerprint_mismatch_rejected(tmp_path):
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    cache.put(key, build_graph())
    other = base_key(m=M_TILES + 1)
    # graft the stored entry onto a different key's file name
    stored = cache._path(key)
    stored.rename(cache._path(other))
    fresh = CompiledGraphCache(root=tmp_path)
    assert fresh.get(other) is None


def test_corrupt_file_rejected(tmp_path):
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    cache.put(key, build_graph())
    cache._path(key).write_bytes(b"not an npz")
    fresh = CompiledGraphCache(root=tmp_path)
    assert fresh.get(key) is None


def test_memory_lru_bounded(tmp_path):
    cache = CompiledGraphCache(root=tmp_path, memory_slots=2)
    cg = build_graph()
    for i in range(4):
        cache.put(f"key{i}", cg)
    assert len(cache._memory) == 2


def test_run_config_uses_cache(tmp_path, monkeypatch):
    """run_config memoizes compiled graphs under REPRO_CACHE_DIR."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # the reference path legitimately bypasses the cache — force compiled
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    monkeypatch.setattr(cache_mod, "_default", None)
    from repro.bench.runner import BenchSetup, run_config

    setup = BenchSetup(b=B, grid_p=4, grid_q=2, machine=BASE_MACHINE)
    first = run_config(M_TILES, N_TILES, BASE_CONFIG, setup)
    assert list((tmp_path / "graphs").glob("cg_*.npz"))
    second = run_config(M_TILES, N_TILES, BASE_CONFIG, setup)
    assert first.makespan == second.makespan
    assert first.messages == second.messages
    monkeypatch.setattr(cache_mod, "_default", None)


def test_stats_count_hits_misses_stores_evictions(tmp_path):
    cache = CompiledGraphCache(root=tmp_path, memory_slots=2)
    cg = build_graph()
    assert cache.get("nope") is None
    cache.put("k0", cg)
    assert cache.get("k0") is cg
    fresh = CompiledGraphCache(root=tmp_path, memory_slots=2)
    assert fresh.get("k0") is not None  # disk hit
    for i in range(1, 4):
        cache.put(f"k{i}", cg)  # overflows the 2-slot memory ring
    stats = cache.stats()
    assert stats["miss"] == 1
    assert stats["hit_memory"] == 1
    assert stats["store"] == 4
    assert stats["evict"] == 2
    assert fresh.stats()["hit_disk"] == 1


def test_get_or_build_single_flight_under_threads(tmp_path):
    """Concurrent get_or_build on one key builds exactly once, and the
    logical miss is counted once."""
    import threading

    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    calls = []
    gate = threading.Barrier(8)
    results = []
    lock = threading.Lock()

    def builder():
        calls.append(1)
        return build_graph()

    def worker():
        gate.wait()
        cg = cache.get_or_build(key, builder)
        with lock:
            results.append(cg)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1
    # losers may race the memory/disk probe and load an equal copy from
    # disk; single-flight guarantees one *build*, not object identity
    assert all(
        (cg.m, cg.n, cg.nslots) == (results[0].m, results[0].n,
                                    results[0].nslots)
        for cg in results
    )
    assert cache.stats()["store"] == 1


def test_concurrent_mixed_traffic_stays_consistent(tmp_path):
    """Hammer one cache instance from many threads (distinct keys,
    repeated gets, evictions): no exceptions, counters balance."""
    import threading

    cache = CompiledGraphCache(root=tmp_path, memory_slots=4)
    cg = build_graph()
    errors = []

    def worker(wid):
        try:
            for i in range(25):
                key = f"w{wid % 3}-{i % 6}"
                got = cache.get_or_build(key, lambda: cg)
                assert got is not None
                cache.get(key)
                cache.contains(key)
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = cache.stats()
    lookups = stats["hit_memory"] + stats["hit_disk"] + stats["miss"]
    assert lookups > 0 and stats["store"] >= 1
    assert len(cache._memory) <= 4


def test_cache_metrics_exported_through_registry(tmp_path):
    from repro.obs.metrics import MetricsRegistry, cache_metrics_into

    cache = CompiledGraphCache(root=tmp_path)
    cache.get("missing")
    cache.put("k", build_graph())
    cache.get("k")
    reg = MetricsRegistry()
    cache_metrics_into(reg, cache.stats())
    text = reg.to_prometheus()
    assert 'repro_graph_cache_ops_total{event="miss"} 1' in text
    assert 'repro_graph_cache_ops_total{event="hit_memory"} 1' in text
    assert "repro_graph_cache_hit_ratio 0.5" in text
