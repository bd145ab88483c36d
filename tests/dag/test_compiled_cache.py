"""Compiled-graph cache: fingerprint sensitivity, the LRU, immutability."""

import dataclasses
import hashlib
import importlib.util
import json
import sys

import numpy as np
import pytest

import repro.dag.cache as cache_mod
from repro import _ccore
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
    differently and no key survived a process (tune checkpoints store them)."""
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


def test_fingerprint_value_is_pinned():
    """The digest is written into tune checkpoints and breaks best-k ties:
    it may be computed differently, never to a different value."""
    assert base_key() == (
        "008c0b1781c11c42c24a147664218f96c948181af6f440f245d09f3100a21f8f"
    )


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
def test_fingerprint_is_hashlibs_sha256_of_the_canonical_blob(builtin, monkeypatch):
    """With CPython's built-in SHA-256, or with ``hashlib`` where neither
    built-in module imports, a key and the core library's name are what
    ``hashlib.sha256`` makes of the same bytes."""
    if builtin and not any(map(importlib.util.find_spec, ("_sha2", "_sha256"))):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    blob = json.dumps({
        "version": cache_mod.CACHE_VERSION, "m": M_TILES, "n": N_TILES, "b": B,
        "config": cache_mod._canonical(BASE_CONFIG),
        "layout": {
            "class": "BlockCyclic2D",
            "params": cache_mod._canonical(vars(BASE_LAYOUT)),
        },
        "machine": cache_mod._canonical(BASE_MACHINE),
    }, sort_keys=True).encode()
    source = _ccore._C_SOURCE.encode()
    expected = [hashlib.sha256(data).hexdigest() for data in (blob, source)]

    hashed = []
    real = hashlib.sha256
    monkeypatch.setattr(
        hashlib, "sha256", lambda data: hashed.append(data) or real(data)
    )
    if not builtin:
        for name in ("_sha2", "_sha256"):
            # a None entry makes its import raise ImportError
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setattr(_ccore, "_sha256", _ccore._sha256_constructor())
    cache_mod._digest.cache_clear()
    try:
        assert [base_key(), _ccore.sha256_hex(source)] == expected
    finally:
        cache_mod._digest.cache_clear()
    assert hashed == ([] if builtin else [blob, source])


def test_fingerprint_memo_returns_the_unmemoised_digest():
    """The lru_cache in front of the digest changes its cost, never its
    value — including for a layout whose attribute cannot be hashed."""
    cache_mod._digest.cache_clear()
    cold = base_key()
    hits = cache_mod._digest.cache_info().hits
    assert base_key() == cold
    assert cache_mod._digest.cache_info().hits == hits + 1
    args = (
        M_TILES, N_TILES, B, BASE_CONFIG, type(BASE_LAYOUT),
        tuple(sorted(vars(BASE_LAYOUT).items())), BASE_MACHINE,
    )
    assert cache_mod._digest.__wrapped__(*args) == cold

    class ListLayout(Cyclic1D):
        def __init__(self, nodes, extra):
            super().__init__(nodes)
            self.extra = extra

    # a list attribute is unhashable but serializable: computed without
    # the memo, to the digest of the hashable tuple (JSON has one sequence)
    size = cache_mod._digest.cache_info().currsize
    from_list = base_key(layout=ListLayout(8, [1, 2]))
    assert cache_mod._digest.cache_info().currsize == size
    assert from_list == base_key(layout=ListLayout(8, (1, 2)))
    assert cache_mod._digest.cache_info().currsize == size + 1


def test_run_config_bypasses_cache_for_unserializable_layout(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cache_mod, "_default", None)
    from repro.bench.runner import BenchSetup, run_config

    setup = BenchSetup(b=B, grid_p=4, grid_q=2, machine=BASE_MACHINE)
    res = run_config(
        M_TILES, N_TILES, BASE_CONFIG, setup, layout=_OpaqueLayout(8)
    )
    assert res.makespan > 0
    assert cache_mod.default_cache().stats()["store"] == 0  # nothing cached
    monkeypatch.setattr(cache_mod, "_default", None)


def test_put_then_get_returns_the_same_object(tmp_path):
    cache = CompiledGraphCache(root=tmp_path)
    key = base_key()
    assert cache.get(key) is None
    cg = build_graph()
    cache.put(key, cg)
    assert cache.get(key) is cg
    assert cache.contains(key) and not cache.contains("other")
    cache.clear_memory()
    assert cache.get(key) is None  # no second tier to fall back on


def test_cached_graphs_are_immutable(tmp_path):
    """The C core reads a cached entry in place, without the GIL, while
    other threads plan from it: a write must raise, and a batch run must
    leave every byte as it was."""
    from repro.runtime.core import run_core_batch

    cache = CompiledGraphCache(root=tmp_path)
    cg = cache.get_or_build(base_key(), build_graph)
    for field in cache_mod._ARRAY_FIELDS:
        arr = getattr(cg, field)
        assert arr.readonly, field
        if len(arr):
            with pytest.raises(TypeError, match="read-only"):
                arr[0] = 0
    before = {f: getattr(cg, f).tobytes() for f in cache_mod._ARRAY_FIELDS}
    prio = list(range(cg.ntasks))[::-1]
    run_core_batch([cg, cg], BASE_MACHINE, B, prios=[None, prio])
    assert {f: getattr(cg, f).tobytes() for f in cache_mod._ARRAY_FIELDS} == before


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


def test_memory_lru_bounded(tmp_path):
    cache = CompiledGraphCache(root=tmp_path, memory_slots=2)
    cg = build_graph()
    for i in range(4):
        cache.put(f"key{i}", cg)
    assert len(cache._memory) == 2


def test_answer_is_kept_on_the_entry(tmp_path):
    """``remember`` stores on a resident entry; finding the answer is a
    use of that entry: a memory hit that also refreshes its LRU slot."""
    cache = CompiledGraphCache(root=tmp_path, memory_slots=2)
    cg, result = build_graph(), object()
    assert cache.answer("k0") == (False, None)
    cache.put("k0", cg)
    cache.put("k1", cg)
    assert cache.answer("k0") == (True, None)  # resident, nothing stored
    cache.remember("k0", result)
    assert cache.answer("k0") == (True, result)
    stats = cache.stats()
    assert (stats["answer_hit"], stats["answer_miss"]) == (1, 2)
    assert (stats["hit_memory"], stats["miss"]) == (1, 0)
    cache.put("k2", cg)  # evicts k1: the answer hit made k0 the younger
    assert cache.contains("k0") and not cache.contains("k1")
    assert cache.get("k0") is cg  # the graph is served as before


def test_eviction_and_clear_memory_forget_the_answer(tmp_path):
    cache = CompiledGraphCache(root=tmp_path, memory_slots=1)
    cg, result = build_graph(), object()
    cache.put("k0", cg)
    cache.remember("k0", result)
    cache.put("k1", cg)  # one slot: k0 and its answer go together
    assert cache.answer("k0") == (False, None)
    cache.put("k0", cg)  # rebuilt: a new entry starts without an answer
    assert cache.answer("k0") == (True, None)
    cache.remember("k0", result)
    cache.clear_memory()
    assert cache.answer("k0") == (False, None)
    assert cache.stats()["answer_hit"] == 0


def test_remember_on_a_key_with_no_entry_makes_a_graphless_one(tmp_path):
    """An answer needs no graph: it takes one LRU slot and counts one
    store, goes with eviction and ``clear_memory``, and a later build
    attaches its graph to the entry without losing the answer."""
    cache = CompiledGraphCache(root=tmp_path, memory_slots=1)
    result = object()
    cache.remember("never-built", result)
    assert cache._memory["never-built"] == [None, result]
    assert cache.stats()["store"] == 1
    assert cache.answer("never-built") == (True, result)
    assert cache.get("never-built") is None  # no graph to hand out
    cache.remember("other", object())  # one slot: the answer is evicted
    assert cache.answer("never-built") == (False, None)
    assert cache.stats()["evict"] == 1
    cache.remember("never-built", result)
    cache.clear_memory()
    assert cache.answer("never-built") == (False, None)
    cache.remember("never-built", result)
    cg = cache.get_or_build("never-built", build_graph)
    assert cache._memory["never-built"] == [cg, result]
    assert cache.answer("never-built") == (True, result)
    assert cache.get("never-built") is cg


def test_bounds_need_no_graph_and_take_no_slot(tmp_path):
    """A bound is kept by key whether or not its graph was ever built: it
    neither takes an LRU slot from a graph nor goes when one is evicted,
    and reading it counts nothing."""
    cache = CompiledGraphCache(root=tmp_path, memory_slots=1)
    cg = build_graph()
    cache.put("k0", cg)
    cache.bounds["never-built"] = 1.5
    cache.bounds["k0"] = 2.5
    assert cache.contains("k0") and len(cache._memory) == 1
    cache.put("k1", cg)  # evicts k0's graph, not its bound
    assert not cache.contains("k0")
    assert cache.bounds == {"never-built": 1.5, "k0": 2.5}
    assert cache.stats()["hit_memory"] == cache.stats()["miss"] == 0


def test_clear_memory_forgets_the_bounds(tmp_path):
    cache = CompiledGraphCache(root=tmp_path)
    cache.put("k0", build_graph())
    cache.bounds["k0"] = cache.bounds["k1"] = 1.5
    cache.clear_memory()  # a perf iteration starts from nothing
    assert cache.bounds == {} and not cache.contains("k0")


def test_run_config_pins_no_graph(tmp_path, monkeypatch):
    """run_config builds and simulates every call and keeps nothing: the
    process-wide cache is neither read nor written."""
    cache = CompiledGraphCache(root=tmp_path / "graphs")
    monkeypatch.setattr(cache_mod, "_default", cache)
    from repro.bench.runner import BenchSetup, run_config

    setup = BenchSetup(b=B, grid_p=4, grid_q=2, machine=BASE_MACHINE)
    first = run_config(M_TILES, N_TILES, BASE_CONFIG, setup)
    second = run_config(M_TILES, N_TILES, BASE_CONFIG, setup)
    assert first == second
    stats = cache.stats()
    assert (stats["miss"], stats["store"], stats["hit_memory"]) == (0, 0, 0)
    assert len(cache._memory) == 0


def test_distinct_run_config_questions_leave_no_entry(tmp_path, monkeypatch):
    cache = CompiledGraphCache(root=tmp_path / "graphs")
    monkeypatch.setattr(cache_mod, "_default", cache)
    from repro.bench.runner import BenchSetup, run_config

    setup = BenchSetup(b=B, grid_p=4, grid_q=2, machine=BASE_MACHINE)
    for a in (1, 2, 4):
        for m in (M_TILES, M_TILES + 4):
            run_config(m, N_TILES, dataclasses.replace(BASE_CONFIG, a=a), setup)
    assert len(cache._memory) == 0
    assert cache.stats()["store"] == 0


def test_cold_sweep_creates_nothing_under_cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(cache_mod, "_default", None)
    from repro.bench.runner import BenchSetup, run_config_sweep

    cache = cache_mod.default_cache()
    assert cache.root == tmp_path / "cache" / "graphs"
    setup = BenchSetup(b=B, grid_p=4, grid_q=2, machine=BASE_MACHINE)
    points = [
        (M_TILES, N_TILES, dataclasses.replace(BASE_CONFIG, a=a))
        for a in (1, 2, 4)
    ]
    run_config_sweep(points, setup, workers=1)
    assert cache.stats()["store"] == len(points)
    assert not cache.root.exists()
    monkeypatch.setattr(cache_mod, "_default", None)


def test_stats_count_hits_misses_stores_evictions(tmp_path):
    cache = CompiledGraphCache(root=tmp_path, memory_slots=2)
    cg = build_graph()
    assert cache.get("nope") is None
    cache.put("k0", cg)
    assert cache.get("k0") is cg
    for i in range(1, 4):
        cache.put(f"k{i}", cg)  # overflows the 2-slot memory ring
    # the key set is read from outside (perf/, the metrics registry):
    # hit_disk stays, and stays 0 now that there is no disk tier
    assert cache.stats() == {
        "hit_memory": 1, "hit_disk": 0, "miss": 1, "store": 4, "evict": 2,
        "answer_hit": 0, "answer_miss": 0,  # nobody asked for an answer
    }
    assert cache.stats_since(cache.stats())["hit_disk"] == 0


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
    assert all(cg is results[0] for cg in results)
    assert cache.stats()["store"] == 1


def test_overlapping_flights_exclude_and_never_deadlock(tmp_path):
    """Threads holding overlapping key sets at once (taken in any order
    by the caller) all finish, and no two are ever inside one key's
    flight together: an unguarded read-modify-write loses no update."""
    import random
    import sys
    import threading
    import time

    cache = CompiledGraphCache(root=tmp_path)
    keys = [f"k{i}" for i in range(5)]
    count = dict.fromkeys(keys, 0)
    rounds, errors = 40, []

    def worker(wid):
        rng = random.Random(wid)
        try:
            for _ in range(rounds):
                mine = rng.sample(keys, 3)
                with cache.flights(mine):
                    for key in mine:
                        seen = count[key]
                        threading.Event().wait(0)  # hand off mid-update
                        count[key] = seen + 1
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)  # a deadlock
    assert not errors
    assert sum(count.values()) == 8 * rounds * 3
    assert cache._building == {}


def test_concurrent_mixed_traffic_stays_consistent(tmp_path):
    """Hammer one cache instance from many threads (distinct keys,
    repeated gets, evictions, answers): no exceptions, counters balance,
    and an answer only ever comes back under the key it was stored on."""
    import sys
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
                cache.remember(key, key)  # evicted meanwhile: a graphless entry
                resident, answer = cache.answer(key)
                assert answer in (None, key)
                assert resident or answer is None
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more hand-offs mid-operation
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
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
    # the answer memo has its own pair, outside the per-event counter
    assert "repro_cache_answer_hits_total 0" in text
    assert 'event="answer_hit"' not in text
    cache.remember("k", object())
    cache.answer("k")
    cache.answer("missing")
    reg = MetricsRegistry()
    cache_metrics_into(reg, cache.stats())
    text = reg.to_prometheus()
    assert "repro_cache_answer_hits_total 1" in text
    assert "repro_cache_answer_misses_total 1" in text
    assert 'repro_graph_cache_ops_total{event="hit_memory"} 2' in text
