"""``answers``: one question, one answer path.

Every caller that turns ``(m, n, config, layout)`` into a simulated result
goes through :func:`repro.bench.runner.answers`.  It must give what the
paths it replaced gave, bit for bit — the compiled graph through
``run_core`` and the object graph through ``ClusterSimulator`` — and cost
each question one remembered-answer lookup plus at most one graph lookup.
"""

import pytest

from _support import simulated_points
from repro.bench.runner import BenchSetup, answers, run_config
from repro.dag import cache as cache_mod
from repro.dag.compiled import compiled_from_eliminations
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.core import run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D

B = 40
MACHINES = {
    "flat": Machine(nodes=8, cores_per_node=2),
    "site-network": Machine(nodes=8, cores_per_node=2, site_size=2),
}
CONFIGS = [
    (12, 4, HQRConfig(p=4, q=2, a=2, high_tree="greedy")),
    (16, 4, HQRConfig(p=4, q=2, a=4, low_tree="flat", domino=False)),
    (8, 3, HQRConfig(p=2, q=2, a=1, high_tree="binary")),
]


class OpaqueLayout(Cyclic1D):
    """A layout whose fingerprint raises ``TypeError``: it has no entry."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.scratch = object()


def questions():
    """Three keyed questions, then one with an unkeyable layout."""
    out = [(m, n, cfg, BlockCyclic2D(cfg.p, cfg.q)) for m, n, cfg in CONFIGS]
    m, n, cfg = CONFIGS[0]
    return out + [(m, n, cfg, OpaqueLayout(8))]


@pytest.fixture(params=["auto", "python"])
def core(request):
    """``python`` runs the test as on a host with no C compiler."""
    if request.param == "python":
        request.getfixturevalue("no_native")
    return request.param


@pytest.fixture
def cache(monkeypatch):
    c = cache_mod.CompiledGraphCache()
    monkeypatch.setattr(cache_mod, "_default", c)
    return c


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_answers_equal_the_paths_they_replace(core, cache, machine_name):
    machine = MACHINES[machine_name]
    setup = BenchSetup(b=B, grid_p=1, grid_q=1, machine=machine)
    qs = questions()
    for reuse in (False, True, True):  # the last call is answered, if keyed
        got = answers(qs, machine, B, reuse=reuse)
        for (m, n, cfg, layout), (result, _, _) in zip(qs, got):
            elims = hqr_elimination_list(m, n, cfg)
            # the explorer's and the restart's object path
            graph = TaskGraph.from_eliminations(elims, m, n)
            want = ClusterSimulator(machine, layout, B).run(graph)
            assert result == want, (machine_name, m, n, cfg)
            # run_config's compiled path, and run_config itself
            cg = compiled_from_eliminations(elims, m, n, layout, machine, B)
            assert result == run_core(cg, machine, B).result
            assert result == run_config(m, n, cfg, setup, layout=layout)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_each_question_costs_one_answer_and_one_graph_lookup(
    core, cache, machine_name
):
    machine = MACHINES[machine_name]
    qs = questions()
    keyed = len(qs) - 1
    before = cache.stats()
    first = answers(qs, machine, B, reuse=True)
    cold = cache.stats_since(before)
    before = cache.stats()
    second = answers(qs, machine, B, reuse=True)
    warm = cache.stats_since(before)
    assert [a[0] for a in first] == [a[0] for a in second]
    # cold: one answer lookup, then one graph lookup (a miss and a store)
    assert (cold["answer_miss"], cold["answer_hit"]) == (keyed, 0)
    assert (cold["miss"], cold["store"], cold["hit_memory"]) == (keyed, keyed, 0)
    assert [a[1:] for a in first] == [(False, False)] * len(qs)
    # warm: each keyed question is answered from its entry, nothing built;
    # the unkeyable one is built and simulated again
    assert (warm["answer_hit"], warm["answer_miss"]) == (keyed, 0)
    assert (warm["hit_memory"], warm["miss"], warm["store"]) == (keyed, 0, 0)
    assert [a[1:] for a in second] == [(True, True)] * keyed + [(False, False)]


def test_a_second_reuse_call_simulates_nothing(cache, monkeypatch):
    machine = MACHINES["flat"]
    qs = questions()[:-1]
    answers(qs, machine, B, reuse=True)
    simulated = simulated_points(monkeypatch)
    again = answers(qs, machine, B, reuse=True)
    assert simulated == []
    assert all(resident and remembered for _, resident, remembered in again)


def test_without_reuse_nothing_is_read_or_remembered(cache):
    qs = questions()
    answers(qs, MACHINES["flat"], B, reuse=False)
    stats = cache.stats()
    assert stats["answer_hit"] == stats["answer_miss"] == 0
    assert stats["store"] == 0  # neither graphs nor answers are kept
    assert len(cache._memory) == 0


def test_a_repeated_question_is_simulated_once_a_call(cache, monkeypatch):
    """Copies of one keyed question in a call share its first copy's graph
    and result; an unkeyable question has no key to share."""
    machine = MACHINES["flat"]
    qs = questions()
    simulated = simulated_points(monkeypatch)
    got = answers(qs + qs[:2] + qs[-1:], machine, B, reuse=True)
    assert len(simulated) == len(qs) + 1  # the unkeyable one runs twice
    want = [a[0] for a in got[:len(qs)]]
    assert [a[0] for a in got] == want + want[:2] + want[-1:]
    assert cache.stats()["store"] == len(qs) - 1
