"""The bound filter changes what is simulated, never what the chain does.

A chain with the filter (the native core) must write the accepted stream,
acceptance history and best-k of a chain that simulates every proposal
(no native core: bounds are 0.0 there, the filter is off),
byte for byte, while needing fewer energies.
"""

import hashlib
import json
import random

import pytest

from repro import _ccore
from repro.dag import cache as cache_module
from repro.runtime.machine import Machine
from repro.tune import Annealer, CoolingSchedule, EnergyEvaluator, initial_case

MACHINES = {
    "edel": Machine.edel(),
    "16-node": Machine(nodes=16, cores_per_node=4),
    "unserialized": Machine(nodes=8, cores_per_node=2, comm_serialized=False),
    "site-network": Machine(nodes=8, cores_per_node=2, site_size=4),
    "ideal": Machine.ideal(nodes=8, cores_per_node=4),
}
SHAPES = ((24, 4), (32, 6), (16, 8), (40, 3))
#: (seed, machine, shape, batch size, top_k) of the 16 chains
CHAINS = [
    (seed, name, SHAPES[seed % 4], 1 + (5 * seed) % 16, 1 + seed % 5)
    for seed, name in enumerate(list(MACHINES) * 4)
][:16]


@pytest.fixture
def native(monkeypatch):
    """The native core, on a cache of this test's own, or skip."""
    if not _ccore.native_available():
        pytest.skip("no native core: the filter is off everywhere")
    # a cache of this test's own: answers left by other tests stay out
    monkeypatch.setattr(cache_module, "_default", cache_module.CompiledGraphCache())


def run_chain(out_dir, seed, machine, shape, batch_size, top_k):
    m, n = shape
    ev = EnergyEvaluator(m, n, 64, machine)
    result = Annealer(
        ev, initial_case(m, n, 64, machine), str(out_dir),
        seed=seed, budget=48, batch_size=batch_size, top_k=top_k,
        schedule=CoolingSchedule(t0=0.02, alpha=0.6, floor=1e-4),
    ).run()
    checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
    # every proposal is a memo hit, a bounded rejection or a needed energy
    assert result.memo_hits + result.bounded + result.evaluations == 49
    return {
        "samples": (out_dir / "samples.jsonl").read_bytes(),
        "accept_history": result.accept_history,
        "best": result.best,
        "checkpoint_best": checkpoint["best"],
    }, result


def test_filter_keeps_the_stream_bitwise(tmp_path, monkeypatch, native):
    fewer = 0
    for seed, name, shape, batch_size, top_k in CHAINS:
        args = (seed, MACHINES[name], shape, batch_size, top_k)
        on, filtered = run_chain(tmp_path / f"{seed}-on", *args)
        with monkeypatch.context() as no_native:  # as with no compiler
            no_native.setattr(_ccore, "get_lib", lambda: None)
            # a fresh cache: the baseline takes no answer the filtered
            # chain left
            no_native.setattr(
                cache_module, "_default", cache_module.CompiledGraphCache()
            )
            off, plain = run_chain(tmp_path / f"{seed}-off", *args)
        assert on == off, (seed, name)
        assert plain.bounded == 0
        assert filtered.evaluations <= plain.evaluations
        fewer += filtered.evaluations < plain.evaluations
    assert fewer > len(CHAINS) // 2


def benchmark_chain(out_dir, seed):
    """One of the repository benchmark's two tune chains."""
    machine = Machine.edel()
    start = initial_case(96, 12, 280, machine, grid_p=15, grid_q=4).replaced(
        a=1, low_tree="greedy", high_tree="fibonacci", domino=True
    )
    return Annealer(
        EnergyEvaluator(96, 12, 280, machine), start, str(out_dir),
        seed=seed, budget=400, batch_size=8,
        schedule=CoolingSchedule(t0=0.05, alpha=0.85, floor=1e-4),
    ).run()


def test_counts_do_not_depend_on_process_history(tmp_path, monkeypatch, native):
    """Chain 12 after chain 11 takes some energies from answers chain 11
    left on the graph cache; what it needs, and what it bounds, is what
    chain 12 alone needs and bounds."""
    first = benchmark_chain(tmp_path / "11", 11)
    after = benchmark_chain(tmp_path / "12-after", 12)
    answered = cache_module.default_cache().stats()["answer_hit"]
    assert answered > 0
    monkeypatch.setattr(cache_module, "_default", cache_module.CompiledGraphCache())
    alone = benchmark_chain(tmp_path / "12-alone", 12)
    assert cache_module.default_cache().stats()["answer_hit"] == 0
    assert (after.evaluations, after.bounded) == (alone.evaluations, alone.bounded)
    assert (first.evaluations, first.bounded) == (41, 195)
    assert (alone.evaluations, alone.bounded) == (62, 219)
    assert after.best == alone.best
    assert (
        (tmp_path / "12-after" / "samples.jsonl").read_bytes()
        == (tmp_path / "12-alone" / "samples.jsonl").read_bytes()
    )


def test_a_graph_is_bounded_once_per_process(tmp_path, monkeypatch, native):
    """The bound is read from the elimination list, once per key and
    process: a later evaluator bounds no key an earlier one bounded, its
    chain is unchanged by reading theirs, and a proposal the bound rejects
    is never built."""
    from repro.tune import energy

    bounded: list[str] = []  # the key of every bound computed
    passes = []
    real = energy.elimination_bound

    class Recording(dict):
        def __setitem__(self, key, value):
            bounded.append(key)
            super().__setitem__(key, value)

    def counting(*args):
        passes.append(args[0])
        return real(*args)

    monkeypatch.setattr(energy, "elimination_bound", counting)
    cache = cache_module.default_cache()
    cache.bounds = Recording()

    first = benchmark_chain(tmp_path / "11", 11)
    first_keys = list(bounded)
    assert len(first_keys) == len(set(first_keys)) == len(passes) > 0
    # every miss is a graph the chain simulated: a fresh cache answers none
    assert cache.stats()["miss"] == first.evaluations < len(first_keys)
    del bounded[:]
    again = benchmark_chain(tmp_path / "11-again", 11)
    assert bounded == []  # every key of the rerun is bounded already
    assert (again.evaluations, again.bounded, again.best) == (
        first.evaluations, first.bounded, first.best
    )
    after = benchmark_chain(tmp_path / "12", 12)
    assert len(bounded) == len(set(bounded)) > 0
    assert not set(first_keys) & set(bounded)
    assert len(passes) == len(first_keys) + len(bounded)
    assert (after.evaluations, after.bounded) == (62, 219)
    assert (
        (tmp_path / "11-again" / "samples.jsonl").read_bytes()
        == (tmp_path / "11" / "samples.jsonl").read_bytes()
    )


@pytest.mark.parametrize("order, counts", [
    ((11, 12), [(69, 0), (39, 0)]),
    ((12, 11), [(103, 0), (5, 0)]),
], ids=["11-then-12", "12-then-11"])
def test_a_build_never_regenerates_a_list_its_bound_made(
    tmp_path, monkeypatch, native, order, counts
):
    """Only a bound pass generates an elimination list in Python: the
    energies the chain then needs are expanded, built and simulated by
    one native call, so no build generates a list, of a configuration
    the chain has bounded or of any other."""
    from repro.bench import runner
    from repro.tune import energy

    generated = []  # (who, config) per elimination list, in call order

    def tagged(module, who):
        real = module.hqr_elimination_list

        def counting(m, n, cfg):
            generated.append((who, cfg))
            return real(m, n, cfg)

        monkeypatch.setattr(module, "hqr_elimination_list", counting)

    tagged(energy, "bound")
    tagged(runner, "build")
    per_chain = []
    for seed in order:
        del generated[:]
        benchmark_chain(tmp_path / str(seed), seed)
        bounded, regenerated = set(), 0
        for who, cfg in generated:
            if who == "bound":
                bounded.add(cfg)
            else:
                regenerated += cfg in bounded
        assert regenerated == 0, seed
        per_chain.append(tuple(
            sum(who == w for who, _ in generated) for w in ("bound", "build")
        ))
    assert per_chain == counts


def test_checkpoint_without_bounded_resumes_from_zero(tmp_path, native):
    """A checkpoint written before the filter has no ``bounded``: it
    resumes at 0 and the stream is still the uninterrupted one."""
    ref = benchmark_chain(tmp_path / "ref", 11)
    machine = Machine.edel()
    start = initial_case(96, 12, 280, machine, grid_p=15, grid_q=4).replaced(
        a=1, low_tree="greedy", high_tree="fibonacci", domino=True
    )

    def annealer(resume):
        return Annealer(
            EnergyEvaluator(96, 12, 280, machine), start, str(tmp_path / "run"),
            seed=11, budget=400, batch_size=8,
            schedule=CoolingSchedule(t0=0.05, alpha=0.85, floor=1e-4),
            resume=resume,
        )

    first = annealer(False)
    run_batch = first._run_batch

    def stop_after_ten():
        run_batch()
        if first.batch_idx == 10:
            first.request_stop()

    first._run_batch = stop_after_ten
    partial = first.run()
    path = tmp_path / "run" / "checkpoint.json"
    checkpoint = json.loads(path.read_text())
    assert checkpoint.pop("bounded") == partial.bounded
    path.write_text(json.dumps(checkpoint))

    resumed = annealer(True).run()
    assert 0 < resumed.bounded < ref.bounded
    assert resumed.best == ref.best
    assert resumed.accept_history == ref.accept_history
    assert (
        (tmp_path / "run" / "samples.jsonl").read_bytes()
        == (tmp_path / "ref" / "samples.jsonl").read_bytes()
    )


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: per benchmark chain, alone on a fresh cache: SHA-256 of samples.jsonl,
#: of the final checkpoint's ``best`` and ``rng_state`` (as ``json.dumps``
#: writes them, keys sorted), and (evaluations, bounded, memo_hits, accepted)
STREAMS = {
    11: (
        "cf448198d696c05c19af9c08ead8f915319e798103af264ff1ed35efd6000d76",
        "a476dc57074f17330c714be402cd4b8cc2a5192f062f6b18f01e4097d4475b40",
        "9a7f361c46d65deeeb2534a35e430a4aef7a772fae80fb3229abcb55e30dc470",
        (41, 195, 165, 30),
    ),
    12: (
        "86e337d786499c72c915314952b596536b78e43da401a2f5f977d35f7601ed2e",
        "91233ccb378114769c96a69937f4b831e03c009ba0a889380d34c65a70c204fa",
        "73826ce7653075d5c750f83538d736d07073ea657b3abba376abb7fc3ec2495b",
        (62, 219, 120, 54),
    ),
}


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_a_benchmark_chain_writes_its_pinned_stream(tmp_path, native, seed):
    """The benchmark's chains, byte for byte: the accepted stream, the
    final best-k and RNG state, and what the chain simulated."""
    result = benchmark_chain(tmp_path, seed)
    checkpoint = json.loads((tmp_path / "checkpoint.json").read_text())
    assert (
        _sha256((tmp_path / "samples.jsonl").read_bytes()),
        _sha256(json.dumps(checkpoint["best"], sort_keys=True).encode()),
        _sha256(json.dumps(checkpoint["rng_state"]).encode()),
        (result.evaluations, result.bounded, result.memo_hits, result.accepted),
    ) == STREAMS[seed]


def test_a_batch_keys_and_bounds_its_proposals_once(tmp_path, monkeypatch, native):
    """Chain 11's per-batch work: one ``bounds`` call a batch, one
    fingerprint a distinct case, at most one RNG state copy a round (plus
    one a checkpoint) and no ``random.Random`` built while it runs."""
    from repro.tune import energy, sampler

    calls = dict.fromkeys(
        ("bounds", "fingerprint", "rounds", "checkpoints", "getstate", "Random"), 0
    )
    cases = set()  # every proposal and what it was proposed from

    def counting(owner, name, tally):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[tally] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def proposing(case, *args, **kwargs):
        moved = propose(case, *args, **kwargs)
        cases.update((case, moved))
        return moved

    propose = sampler.propose_neighbor
    monkeypatch.setattr(sampler, "propose_neighbor", proposing)
    counting(energy.EnergyEvaluator, "bounds", "bounds")
    counting(energy, "fingerprint", "fingerprint")
    counting(sampler.Annealer, "_needed", "rounds")
    counting(sampler.Annealer, "_checkpoint", "checkpoints")
    run = sampler.Annealer.run

    def running(self):
        # the constructor seeds the chain's Random; count what run() does
        counting(random.Random, "getstate", "getstate")
        counting(random.Random, "__init__", "Random")
        return run(self)

    monkeypatch.setattr(sampler.Annealer, "run", running)
    result = benchmark_chain(tmp_path, 11)
    assert result.batches == calls["bounds"] == 50
    assert calls["fingerprint"] == len(cases)
    assert calls["getstate"] <= calls["rounds"] + calls["checkpoints"]
    assert calls["Random"] == 0


def test_a_pending_uniform_keeps_the_stream_bitwise(tmp_path, monkeypatch, native):
    """Chains where the dry run guesses wrong: the replay stops at a
    proposal whose bound drew a uniform that does not reject it, keeps that
    uniform pending for the exact energy's draw, and still writes the
    stream, best-k and final RNG state of a chain that simulates everything.
    No batch ends with a uniform pending."""
    from repro.tune import sampler

    machines = [
        Machine.edel(), Machine(nodes=16, cores_per_node=4),
        Machine(nodes=8, cores_per_node=2, site_size=4),
    ]
    stops = []  # per replay that stops early: was a uniform left pending?
    replay, run_batch = sampler.Annealer._replay, sampler.Annealer._run_batch

    def replaying(self, batch, i, t):
        done = replay(self, batch, i, t)
        if done < len(batch):
            stops.append(self._pending is not None)
        return done

    def batching(self):
        run_batch(self)
        assert self._pending is None

    monkeypatch.setattr(sampler.Annealer, "_replay", replaying)
    monkeypatch.setattr(sampler.Annealer, "_run_batch", batching)

    def chain(out_dir, seed):
        machine = machines[seed % 3]
        m, n = SHAPES[seed % 4]
        Annealer(
            EnergyEvaluator(m, n, 64, machine), initial_case(m, n, 64, machine),
            str(out_dir), seed=seed, budget=96, batch_size=1 + (5 * seed) % 16,
            top_k=1 + seed % 5,
            schedule=CoolingSchedule(t0=(0.02, 0.2, 1.0)[seed % 3], alpha=0.9),
        ).run()
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
        return (
            (out_dir / "samples.jsonl").read_bytes(),
            *(checkpoint[k] for k in ("best", "rng_state", "accept_history")),
        )

    for seed in (6, 7, 9, 10):
        del stops[:]
        on = chain(tmp_path / f"{seed}-on", seed)
        assert any(stops), seed  # the path under test was taken
        with monkeypatch.context() as no_native:
            no_native.setattr(_ccore, "get_lib", lambda: None)
            no_native.setattr(
                cache_module, "_default", cache_module.CompiledGraphCache()
            )
            assert chain(tmp_path / f"{seed}-off", seed) == on, seed


def test_a_resumed_chain_on_the_same_memo_bounds_what_it_would_have(
    tmp_path, native
):
    """Resumed on the evaluator (and so the memo) it stopped with, a chain
    needs, bounds and takes from the memo exactly what the uninterrupted
    chain does: the k-th best energy comes back with best-k."""
    ref = benchmark_chain(tmp_path / "ref", 11)
    machine = Machine.edel()
    start = initial_case(96, 12, 280, machine, grid_p=15, grid_q=4).replaced(
        a=1, low_tree="greedy", high_tree="fibonacci", domino=True
    )
    evaluator = EnergyEvaluator(96, 12, 280, machine)

    def annealer(resume):
        return Annealer(
            evaluator, start, str(tmp_path / "run"), seed=11, budget=400,
            batch_size=8,
            schedule=CoolingSchedule(t0=0.05, alpha=0.85, floor=1e-4),
            resume=resume,
        )

    first = annealer(False)
    run_batch = first._run_batch

    def stop_after_ten():
        run_batch()
        if first.batch_idx == 10:
            first.request_stop()

    first._run_batch = stop_after_ten
    assert first.run().interrupted
    resumed = annealer(True).run()
    assert (
        resumed.evaluations, resumed.bounded, resumed.memo_hits, resumed.best
    ) == (ref.evaluations, ref.bounded, ref.memo_hits, ref.best)
