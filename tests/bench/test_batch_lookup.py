"""The lookup path of a batch: one keying pass, one locked probe, no span
unless a trace is attached."""

from __future__ import annotations

import pytest

from repro import _ccore
from repro.bench import runner
from repro.bench.runner import BenchSetup, answers, run_config_sweep
from repro.dag import cache as cache_module
from repro.dag.cache import CompiledGraphCache, fingerprint, fingerprints
from repro.hqr.config import HQRConfig
from repro.obs.tracing import RequestTrace, attach, mint_trace_id
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D
from repro.verify.generator import generate_cases

#: Figure 6(a): 4 high trees x a in {1, 4, 8} x 6 values of m, on 15 x 4
FIGURE_6A = [
    (m, 16, HQRConfig(p=15, q=4, a=a, low_tree="greedy", high_tree=high,
                      domino=False))
    for high in ("greedy", "binary", "flat", "fibonacci")
    for a in (1, 4, 8)
    for m in (16, 32, 64, 128, 256, 512)
]


def one_by_one(questions, machine, b):
    out = []
    for question in questions:
        try:
            out.append(fingerprint(*question, machine, b))
        except TypeError:
            out.append(None)
    return out


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = CompiledGraphCache()
    monkeypatch.setattr(cache_module, "_default", cache)
    return cache


def test_batch_keys_are_fingerprints_on_the_figure_6a_points():
    setup = BenchSetup()
    questions = [(m, n, cfg, setup.layout) for m, n, cfg in FIGURE_6A]
    keys = fingerprints(questions, setup.machine, setup.b)
    assert len(set(keys)) == 72
    assert keys == one_by_one(questions, setup.machine, setup.b)


def test_batch_keys_are_fingerprints_on_the_verify_cases():
    """``repro verify --seed 0 --budget 200``: every case its own machine,
    layout kind and tile size."""
    for case in generate_cases(0, 200):
        questions = [(case.m, case.n, case.config(), case.layout())]
        assert fingerprints(questions, case.machine(), case.b) == one_by_one(
            questions, case.machine(), case.b
        )


def test_batch_keys_are_fingerprints_on_the_benchmark_tune_chains(
    tmp_path, monkeypatch, fresh_cache
):
    """Every proposal of the benchmark's chains 11 and 12 is keyed by the
    batch routine to its ``fingerprint``."""
    if not _ccore.native_available():
        pytest.skip("no native core: the chains simulate every proposal")
    from repro.tune import energy
    from repro.tune.energy import EnergyEvaluator, initial_case
    from repro.tune.sampler import Annealer, CoolingSchedule

    machine = Machine.edel()
    start = initial_case(96, 12, 280, machine, grid_p=15, grid_q=4).replaced(
        a=1, low_tree="greedy", high_tree="fibonacci", domino=True
    )

    def benchmark_chain(out_dir, seed):  # as tests/tune/test_bound_filter.py
        return Annealer(
            EnergyEvaluator(96, 12, 280, machine), start, str(out_dir),
            seed=seed, budget=400, batch_size=8,
            schedule=CoolingSchedule(t0=0.05, alpha=0.85, floor=1e-4),
        ).run()

    keyed = []

    def checking(questions, machine, b):
        keys = fingerprints(questions, machine, b)
        assert keys == one_by_one(questions, machine, b)
        keyed.extend(keys)
        return keys

    monkeypatch.setattr(energy, "fingerprints", checking)
    proposals = sum(
        benchmark_chain(tmp_path / str(seed), seed).proposals
        for seed in (11, 12)
    )
    assert len(keyed) == proposals == 800


class ListLayout(Cyclic1D):
    """A serializable layout attribute that cannot be hashed."""

    def __init__(self, nodes, extra):
        super().__init__(nodes)
        self.extra = extra


class OpaqueLayout(Cyclic1D):
    """A layout attribute with no stable serialization."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.scratch = object()


def test_an_unhashable_layout_gets_its_digest_and_an_unserializable_none():
    machine, cfg = Machine(nodes=8, cores_per_node=4), HQRConfig(p=4, q=2)
    listed = ListLayout(8, [1, 2])
    questions = [
        (16, 4, cfg, listed),
        (16, 4, cfg, OpaqueLayout(8)),
        (24, 4, cfg, listed),
        (16, 4, cfg, BlockCyclic2D(4, 2)),
    ]
    keys = fingerprints(questions, machine, 40)
    assert keys[0] == fingerprint(16, 4, cfg, ListLayout(8, (1, 2)), machine, 40)
    assert keys[1] is None
    assert keys[2] is not None and keys[2] != keys[0]
    assert keys == one_by_one(questions, machine, 40)
    with pytest.raises(TypeError, match="scratch"):
        fingerprint(16, 4, cfg, OpaqueLayout(8), machine, 40)


def small_sweep():
    """72 points shaped like Figure 6(a)'s, small enough to simulate in
    Python: 4 high trees x 3 values of a x 6 values of m."""
    return [
        (m, 4, HQRConfig(p=4, q=2, a=a, low_tree="greedy", high_tree=high,
                         domino=False))
        for high in ("greedy", "binary", "flat", "fibonacci")
        for a in (1, 2, 4)
        for m in (8, 12, 16, 20, 24, 28)
    ]


SMALL = BenchSetup(b=40, grid_p=4, grid_q=2,
                   machine=Machine(nodes=8, cores_per_node=4))


def test_a_warm_sweep_counts_one_answer_hit_a_point(fresh_cache):
    points = small_sweep()
    cold = run_config_sweep(points, SMALL)
    before = fresh_cache.stats()
    warm = run_config_sweep(points, SMALL)
    assert [r.makespan for r in warm] == [r.makespan for r in cold]
    moved = {k: v for k, v in fresh_cache.stats_since(before).items() if v}
    assert moved == {"hit_memory": 72, "answer_hit": 72}


def test_a_warm_untraced_sweep_opens_no_span_nor_flight(fresh_cache, monkeypatch):
    points = small_sweep()
    run_config_sweep(points, SMALL)
    entered = []
    real_span, real_flights = runner.span, CompiledGraphCache.flights

    def counting_span(*args, **kwargs):
        entered.append(args[0])
        return real_span(*args, **kwargs)

    def counting_flights(self, keys):
        entered.append("flights")
        return real_flights(self, keys)

    monkeypatch.setattr(runner, "span", counting_span)
    monkeypatch.setattr(CompiledGraphCache, "flights", counting_flights)
    monkeypatch.setattr(runner, "_answer", None)  # a call would raise
    run_config_sweep(points, SMALL)
    assert entered == []


def test_a_traced_question_has_one_cache_span_with_hit_and_answer(fresh_cache):
    m, n, cfg = small_sweep()[0]
    question = [(m, n, cfg, SMALL.layout)]
    answers(question, SMALL.machine, SMALL.b, reuse=True)
    trace = RequestTrace(mint_trace_id(), "gold", 0.0, job_id=1)
    with attach(trace):
        [(_, resident, remembered)] = answers(
            question, SMALL.machine, SMALL.b, reuse=True
        )
    assert resident and remembered
    [cache_span] = trace.root.children
    assert cache_span.name == "cache"
    assert cache_span.attrs == {"hit": True, "answer": True}


def test_a_traced_batch_has_one_cache_span_with_counts(fresh_cache):
    points = small_sweep()[:5]
    run_config_sweep(points[:3], SMALL)
    trace = RequestTrace(mint_trace_id(), "gold", 0.0, job_id=1)
    with attach(trace):
        run_config_sweep(points, SMALL)
    cache_spans = [s for s in trace.root.children if s.name == "cache"]
    assert [s.attrs for s in cache_spans] == [
        {"questions": 5, "hits": 3, "answers": 3}
    ]
