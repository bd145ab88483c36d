"""The planner's answer memo: a repeated question is one lookup on its
cache entry, and the stored answer lives exactly as long as the entry
does.  The entry keeps no graph the planner built for it: a graph stays
resident only when something else stored it through
``compiled_graph_for``, as ``tools/loop_ab.py`` does."""

import dataclasses
import threading

import pytest

import repro.dag.cache as cache_mod
from _serve_testlib import TINY_REQUEST
from _support import simulated_points
from repro.dag.cache import CompiledGraphCache
from repro.serve.service import PlanRequest


@pytest.fixture
def cache(monkeypatch):
    """A private process-wide cache, so other suites' graphs stay out."""
    c = CompiledGraphCache()
    monkeypatch.setattr(cache_mod, "_default", c)
    return c


@pytest.fixture
def simulations(monkeypatch):
    """Every question ``answers`` simulates, as (m, n) pairs."""
    return simulated_points(monkeypatch)


def ask(service, **over):
    return service.plan(PlanRequest.from_json({**TINY_REQUEST, **over}))


def answer_of(result) -> dict:
    """What the client is told, minus what legitimately differs between
    a simulated and a remembered answer."""
    out = dataclasses.asdict(result)
    del out["plan_wall_s"], out["cache_hit"]
    return out


def test_repeat_is_answered_without_simulating(cache, simulations, service):
    first, again = ask(service), ask(service)
    assert simulations == [(8, 2)]
    assert (first.cache_hit, again.cache_hit) == (False, True)
    assert answer_of(again) == answer_of(first)
    stats = cache.stats()
    assert (stats["answer_miss"], stats["answer_hit"]) == (1, 1)
    # one graph lookup per request, as before the memo
    assert (stats["miss"], stats["store"], stats["hit_memory"]) == (1, 1, 1)


def test_clear_memory_makes_a_hot_question_cold_again(
    cache, simulations, service
):
    ask(service)
    cache.clear_memory()
    again = ask(service)
    assert simulations == [(8, 2), (8, 2)]
    assert again.cache_hit is False
    assert cache.stats()["store"] == 2  # rebuilt, not just re-simulated


def test_evicted_entry_takes_its_answer_along(monkeypatch, simulations, service):
    one_slot = CompiledGraphCache(memory_slots=1)
    monkeypatch.setattr(cache_mod, "_default", one_slot)
    a1, _, a2 = ask(service), ask(service, m=10), ask(service)
    assert simulations == [(8, 2), (10, 2), (8, 2)]
    assert a2.cache_hit is False
    assert answer_of(a2) == answer_of(a1)


def test_resident_graph_without_an_answer_is_a_hit_that_simulates(
    cache, simulations, service
):
    """``cache_hit`` means the question's entry was resident before the
    request — whoever made it and whether or not it was answered."""
    from repro.bench.runner import compiled_graph_for
    from repro.tiles.layout import BlockCyclic2D

    req = PlanRequest.from_json(TINY_REQUEST)
    compiled_graph_for(
        req.m, req.n, req.config, BlockCyclic2D(req.config.p, req.config.q),
        service.setup.machine, service.setup.b,
    )  # stores the graph, simulates nothing
    assert simulations == []
    assert cache.answer([cache_mod.fingerprint(
        req.m, req.n, req.config, BlockCyclic2D(req.config.p, req.config.q),
        service.setup.machine, service.setup.b,
    )]) == [(True, None)]
    first, again = service.plan(req), service.plan(req)
    assert simulations == [(8, 2)]
    assert (first.cache_hit, again.cache_hit) == (True, True)


@pytest.mark.parametrize("scenario", ["crash", "storm"])
def test_faulted_answer_is_the_same_from_either_baseline(
    cache, simulations, service, scenario
):
    faults = {"scenario": scenario, "seed": 3, "severity": 1.0}
    simulated_baseline = ask(service, faults=faults)
    remembered_baseline = ask(service, faults=faults)
    assert simulations == [(8, 2)]
    assert answer_of(remembered_baseline) == answer_of(simulated_baseline)
    assert simulated_baseline.degradation >= 1.0
    # the degraded result itself is never what gets remembered
    assert answer_of(ask(service))["degradation"] == 1.0


def test_a_cold_question_leaves_no_graph_and_a_stored_one_stays(
    cache, service
):
    """The memory property: an answer the planner simulated pins no
    graph, and remembering an answer does not drop a graph some other
    caller stored."""
    from repro.bench.runner import compiled_graph_for
    from repro.tiles.layout import BlockCyclic2D

    def entry(req):
        layout = BlockCyclic2D(req.config.p, req.config.q)
        return cache._memory[cache_mod.fingerprint(
            req.m, req.n, req.config, layout,
            service.setup.machine, service.setup.b,
        )]

    cold = PlanRequest.from_json({**TINY_REQUEST, "m": 10})
    first = service.plan(cold)
    assert entry(cold)[0] is None
    assert entry(cold)[1].makespan == first.makespan

    stored = PlanRequest.from_json(TINY_REQUEST)
    compiled_graph_for(
        stored.m, stored.n, stored.config,
        BlockCyclic2D(stored.config.p, stored.config.q),
        service.setup.machine, service.setup.b,
    )
    graph = entry(stored)[0]
    assert graph is not None
    service.plan(stored)
    assert entry(stored)[0] is graph
    assert entry(stored)[1] is not None


def test_two_workers_racing_one_cold_question_build_once(
    cache, simulations, service
):
    barrier = threading.Barrier(2)
    results = []

    def worker():
        barrier.wait(timeout=30)
        results.append(ask(service, m=12))

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(results) == 2
    assert answer_of(results[0]) == answer_of(results[1])
    # the loser waited at the gate, then found the winner's answer
    assert simulations == [(12, 2)]
    assert cache.stats()["store"] == 1
    assert ask(service, m=12).cache_hit is True


def test_auto_config_shares_the_entry_of_the_config_it_resolves_to(
    cache, simulations, service
):
    auto_req = PlanRequest.from_json({"m": 8, "n": 2})
    cfg, was_auto = service.resolve_config(auto_req)
    assert was_auto
    explicit_req = dataclasses.replace(auto_req, config=cfg)
    by_rule, by_hand = service.plan(auto_req), service.plan(explicit_req)
    assert simulations == [(8, 2)]
    assert (by_rule.auto, by_hand.auto) == (True, False)
    assert by_hand.cache_hit is True
    assert by_hand.makespan == by_rule.makespan
    assert cache.stats()["answer_hit"] == 1
    assert len(cache._memory) == 1
