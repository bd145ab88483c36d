"""Batched dispatch: bitwise equivalence with the per-point paths."""

import dataclasses
import threading

import numpy as np
import pytest

from _support import simulated_points
from repro.bench.runner import BenchSetup, run_config, run_config_sweep
from repro.dag.compiled import compiled_from_eliminations
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.runtime.core import run_core, run_core_batch, sim_threads
from repro.runtime.machine import Machine


def small_setup():
    return BenchSetup(
        b=40, grid_p=4, grid_q=2, machine=Machine(nodes=8, cores_per_node=4)
    )


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Isolated default graph cache (memory + tmp disk)."""
    from repro.dag import cache as cache_mod

    c = cache_mod.CompiledGraphCache(tmp_path / "graphs")
    monkeypatch.setattr(cache_mod, "_default", c)
    return c


def _graphs(setup):
    configs = [
        (12, 4, HQRConfig(p=4, q=2, a=2, high_tree="greedy")),
        (16, 4, HQRConfig(p=4, q=2, a=4, high_tree="flat", domino=False)),
        (8, 3, HQRConfig(p=4, q=2, a=1)),
        (6, 6, HQRConfig(p=4, q=2, a=2)),  # square: final-GEQRT path
    ]
    graphs = []
    for m, n, cfg in configs:
        elims = hqr_elimination_list(m, n, cfg)
        graphs.append(
            compiled_from_eliminations(
                elims, m, n, setup.layout, setup.machine, setup.b
            )
        )
    return graphs


@pytest.mark.parametrize("core", ["python", "c"])
def test_batch_matches_scalar(core, request):
    from repro._ccore import native_available

    if core == "python":
        request.getfixturevalue("no_native")
    elif not native_available():
        pytest.skip("no C toolchain")
    setup = small_setup()
    graphs = _graphs(setup)
    batched = run_core_batch(graphs, setup.machine, setup.b)
    for cg, got in zip(graphs, batched):
        assert got == run_core(cg, setup.machine, setup.b).result


def test_batch_respects_priorities():
    setup = small_setup()
    graphs = _graphs(setup)
    # reversed program order — any permutation must round-trip bitwise
    prios = [list(range(cg.ntasks))[::-1] for cg in graphs]
    batched = run_core_batch(graphs, setup.machine, setup.b, prios=prios)
    for cg, prio, got in zip(graphs, prios, batched):
        assert got == run_core(cg, setup.machine, setup.b, prio=prio).result


def test_batch_empty_and_length_checks():
    setup = small_setup()
    assert run_core_batch([], setup.machine, setup.b) == []
    graphs = _graphs(setup)[:2]
    with pytest.raises(ValueError):
        run_core_batch(graphs, setup.machine, setup.b, prios=[None])


def test_sim_threads_env(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
    assert sim_threads() == 0
    monkeypatch.setenv("REPRO_SIM_THREADS", "3")
    assert sim_threads() == 3
    monkeypatch.setenv("REPRO_SIM_THREADS", "many")
    with pytest.raises(ValueError):
        sim_threads()


def test_thread_count_does_not_change_results(monkeypatch):
    """OpenMP fan-out over points must be bit-identical to serial C."""
    setup = small_setup()
    graphs = _graphs(setup)
    base = run_core_batch(graphs, setup.machine, setup.b)
    monkeypatch.setenv("REPRO_SIM_THREADS", "2")
    assert run_core_batch(graphs, setup.machine, setup.b) == base
    monkeypatch.setenv("REPRO_SIM_THREADS", "1")
    assert run_core_batch(graphs, setup.machine, setup.b) == base


def _points():
    return [
        (12, 4, HQRConfig(p=4, q=2, a=a, high_tree=high))
        for a in (1, 2)
        for high in ("flat", "greedy")
    ]


def _key(result):
    return result.makespan, result.messages, result.busy_seconds


@pytest.mark.parametrize("core", ["auto", "python"])
def test_sweep_batched_matches_legacy(core, fresh_cache, request):
    """The sweep returns what the ``run_config`` loop returns, with the
    native core and (``python``) as on a host with no compiler."""
    if core == "python":
        request.getfixturevalue("no_native")
    setup = small_setup()
    points = _points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    got = run_config_sweep(points, setup)
    assert [_key(r) for r in got] == [_key(r) for r in want], f"core={core}"


def test_cold_sweep_same_for_any_worker_count(tmp_path, monkeypatch):
    """Cold points are built in line by the caller: a sweep on an empty
    cache writes no file and gives what the ``run_config`` loop gives;
    ``workers`` changes nothing."""
    from repro.dag import cache as cache_mod

    setup = small_setup()
    points = _points()
    cache = cache_mod.CompiledGraphCache(tmp_path / "graphs")
    monkeypatch.setattr(cache_mod, "_default", cache)
    got = run_config_sweep(points, setup, workers=2)
    assert cache.stats()["miss"] == cache.stats()["store"] == len(points)
    assert not cache.root.exists()
    assert got == [run_config(m, n, cfg, setup) for m, n, cfg in points]


def test_verify_case_batched_roundtrip():
    """Batched dispatch is part of the verification space: the field is
    drawn last (replay streams stable) and survives dict round-trips —
    including dicts predating the field."""
    from repro.verify.generator import VerifyCase, generate_cases

    cases = list(generate_cases(seed=0, budget=64))
    assert any(c.batched for c in cases)
    assert any(not c.batched for c in cases)
    c = cases[0]
    assert VerifyCase.from_dict(c.to_dict()) == c
    legacy = {k: v for k, v in c.to_dict().items() if k != "batched"}
    assert VerifyCase.from_dict(legacy).batched is False


def test_verify_batched_engines_agree():
    from repro.dag.compiled import compiled_from_eliminations
    from repro.verify.reference import TaskGraph
    from repro.verify.engines import result_key, run_engines
    from repro.verify.generator import sample_case

    found = 0
    for index in range(32):
        case = sample_case(seed=7, index=index)
        if not case.batched:
            continue
        found += 1
        elims = hqr_elimination_list(case.m, case.n, case.config())
        graph = TaskGraph.from_eliminations(elims, case.m, case.n)
        built = compiled_from_eliminations(
            elims, case.m, case.n, case.layout(), case.machine(), case.b
        )
        results = run_engines(case, graph, built)
        keys = {result_key(r) for r in results.values()}
        assert len(keys) == 1, f"engines diverged on {case.describe()}"
        if found >= 3:
            break
    assert found > 0


# --------------------------------------------------------------------- #
# the sweep's misses: one native call, expanding, building and simulating
# --------------------------------------------------------------------- #
@pytest.fixture
def batched_path(fresh_cache, monkeypatch):
    """The sweep on the native core, on an isolated cache, or skip."""
    from repro._ccore import native_available

    if not native_available():
        pytest.skip("no C toolchain")
    monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
    return fresh_cache


def _many_points():
    return [
        (m, 4, HQRConfig(p=4, q=2, a=a, high_tree=high))
        for m in (8, 12, 20)
        for a in (1, 2)
        for high in ("flat", "greedy", "fibonacci")
    ]


def _sweep_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("repro-")]


def test_overlapped_sweep_equals_the_run_config_loop(batched_path, monkeypatch):
    """Cold, half-warm and warm caches, repeated points, any worker count:
    which worker runs a point moves with timing, results and their order
    do not."""
    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]

    batched_path.clear_memory()
    assert run_config_sweep(points, setup) == want  # cold
    assert run_config_sweep(points, setup) == want  # warm
    batched_path.clear_memory()
    assert run_config_sweep(points[::2], setup) == want[::2]
    assert run_config_sweep(points, setup) == want  # half warm

    again = points + points[:3] + [points[0]] * 2
    batched_path.clear_memory()
    assert run_config_sweep(again, setup) == want + want[:3] + [want[0]] * 2

    monkeypatch.setenv("REPRO_SIM_THREADS", "1")
    batched_path.clear_memory()
    assert run_config_sweep(points, setup) == want
    assert _sweep_threads() == []


def test_overlapped_sweep_planning_error_propagates(batched_path, monkeypatch):
    """Preparing point k raises: the same exception reaches the caller,
    no thread is left, the cache holds no build gate and remembers
    nothing."""
    from repro.hqr.hierarchy import HQRTree

    boom = RuntimeError("tree tables refused")
    calls = []
    real = HQRTree.tables

    def flaky(tree):
        calls.append((tree.m, tree.n))
        if len(calls) == 4:
            raise boom
        return real(tree)

    monkeypatch.setattr(HQRTree, "tables", flaky)
    with pytest.raises(RuntimeError) as info:
        run_config_sweep(_many_points(), small_setup())
    assert info.value is boom
    assert len(calls) == 4
    assert _sweep_threads() == []
    assert batched_path._building == {}
    assert len(batched_path._memory) == 0


def test_overlapped_sweep_loop_error_stops_planning(batched_path, monkeypatch):
    """A graph the C loop refuses on point k - a resident graph with a
    kind it cannot index, run as it is - raises on the caller, for any
    OpenMP team size; no thread is left, the cache holds no build gate
    and no answer is remembered."""
    from repro.bench import runner
    from repro.dag.cache import fingerprint

    setup = small_setup()
    points = _many_points()
    m, n, cfg = points[2]
    key = fingerprint(m, n, cfg, setup.layout, setup.machine, setup.b)
    for workers in (1, 2, 4):
        monkeypatch.setenv("REPRO_SIM_THREADS", str(workers))
        batched_path.clear_memory()
        cg = runner._build_graph(m, n, cfg, setup.layout, setup.machine, setup.b)
        kind = np.array(cg.kind)
        kind[0] = 6
        batched_path.put(key, dataclasses.replace(cg, kind=kind))
        with pytest.raises(ValueError, match="graph 0: a task kind"):
            run_config_sweep(points, setup)
        assert _sweep_threads() == []
        assert batched_path._building == {}
        assert all(answer is None for _, answer in batched_path._memory.values())


@pytest.mark.parametrize("workers", [1, 2])
def test_a_cold_sweep_holds_at_most_one_graph_per_worker(
    workers, batched_path, monkeypatch
):
    """Each point's list and graph live in the core's scratch, freed
    before its thread takes the next point: no graph reaches Python, and
    the results are the ``run_config`` loop's for any team size."""
    from repro.bench import runner
    from repro.dag import compiled

    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    batched_path.clear_memory()
    built = []

    def counted(real):
        def call(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)
        return call

    for owner, name in ((runner, "_build_graph"), (runner, "hqr_elimination_list"),
                        (compiled, "compiled_from_eliminations")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    monkeypatch.setenv("REPRO_SIM_THREADS", str(workers))
    assert run_config_sweep(points, setup) == want
    assert built == []


def test_concurrent_planning_matches_serial_planning():
    """Sweep workers plan at once from shared tree instances.  Threads
    released together on fresh trees, each in its own point order (so
    ``table()`` grows under a race), build elimination lists and graphs
    bitwise equal to a serial run's."""
    import sys

    from repro.trees.factory import make_tree

    setup = small_setup()
    points = _many_points()

    def plan(m, n, cfg):
        elims = hqr_elimination_list(m, n, cfg)
        cg = compiled_from_eliminations(
            elims, m, n, setup.layout, setup.machine, setup.b
        )
        return [elims.panel, elims.victim, elims.killer, elims.ts,
                cg.kind, cg.wait, cg.node, cg.succ_ptr, cg.succ_idx]

    def same(got, want):
        return len(got) == len(want) and all(
            g.format == w.format and np.array_equal(g, w)
            for g, w in zip(got, want)
        )

    want = [plan(*point) for point in points]
    nthreads = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            fresh = {}  # one new instance per tree name, shared by all

            def shared(name):
                tree = make_tree(name)
                return fresh.setdefault(tree.name, type(tree)())

            configs = [
                cfg.with_(low_tree=shared(cfg.low_tree),
                          high_tree=shared(cfg.high_tree))
                for _, _, cfg in points
            ]
            start = threading.Barrier(nthreads)
            got, errors = {}, []

            def planner(slot):
                try:
                    order = list(range(len(points)))[slot::-1]
                    order += list(range(slot + 1, len(points)))
                    start.wait(30)
                    got[slot] = {
                        i: plan(points[i][0], points[i][1], configs[i])
                        for i in order
                    }
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=planner, args=(slot,))
                for slot in range(nthreads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            for slot in range(nthreads):
                assert sorted(got[slot]) == list(range(len(points)))
                for i, arrays in got[slot].items():
                    assert same(arrays, want[i]), (slot, points[i])
    finally:
        sys.setswitchinterval(interval)


def test_overlapped_sweep_records_every_point_once(batched_path):
    """Each distinct unanswered point is one ``c-batch`` ``simulate`` span
    of one point, whichever worker ran it: a request trace attached to the
    caller gets the helpers' spans too."""
    from repro.bench.runner import compiled_graph_for
    from repro.obs.tracing import RequestTrace, attach

    setup = small_setup()
    points = _many_points()
    trace = RequestTrace("0" * 31 + "1", "test", 0.0)
    with attach(trace):
        run_config_sweep(points, setup)
    ntasks = sum(
        compiled_graph_for(
            m, n, cfg, setup.layout, setup.machine, setup.b
        ).ntasks
        for m, n, cfg in points
    )
    spans = [s for s in trace.root.children if s.name == "simulate"]
    assert len(spans) == len(points)
    assert all(s.attrs["engine"] == "c-batch" for s in spans)
    assert all(s.attrs["points"] == 1 for s in spans)
    assert sum(s.attrs["ntasks"] for s in spans) == ntasks


def test_overlapped_sweep_spans_hang_under_the_open_span(batched_path):
    """The helpers re-attach the caller's open span with its trace: run
    inside ``span("sweep")``, every ``graph`` and ``simulate`` span, on
    whichever worker it was made, is a child of ``sweep`` and none of the
    root."""
    from repro.obs.tracing import RequestTrace, attach, span

    points = _many_points()
    trace = RequestTrace("0" * 31 + "2", "test", 0.0)
    with attach(trace), span("sweep"):
        run_config_sweep(points, small_setup())
    (sweep,) = trace.root.children
    assert sweep.name == "sweep"
    graphs = [s for s in sweep.children if s.name == "graph"]
    spans = [s for s in sweep.children if s.name == "simulate"]
    assert len(graphs) == len(spans) == len(points)
    assert sorted((s.attrs["m"], s.attrs["n"]) for s in graphs) == sorted(
        (m, n) for m, n, _ in points
    )


def _no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a sweep must not start a Python thread")

    monkeypatch.setattr(threading, "Thread", no_thread)


def test_empty_sweep_starts_no_thread(batched_path, monkeypatch):
    _no_thread(monkeypatch)
    assert run_config_sweep([], small_setup()) == []


def test_a_cold_sweep_starts_no_python_thread(batched_path, monkeypatch):
    """The fan-out is the core's OpenMP loop, not Python threads."""
    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    batched_path.clear_memory()
    _no_thread(monkeypatch)
    assert run_config_sweep(points, setup) == want


# --------------------------------------------------------------------- #
# the sweep asks before it simulates
# --------------------------------------------------------------------- #
def _spans(trace):
    """Every span of ``trace``, nested ones included."""
    spans, stack = [], list(trace.root.children)
    while stack:
        s = stack.pop()
        spans.append(s)
        stack.extend(s.children)
    return spans


def _traced_sweep(points, setup):
    """(results, ``simulate`` span attributes) of one sweep run under an
    attached request trace; every span is one ``c-batch`` dispatch."""
    from repro.obs.tracing import RequestTrace, attach

    trace = RequestTrace("0" * 31 + "3", "test", 0.0)
    with attach(trace):
        got = run_config_sweep(points, setup)
    runs = [s.attrs for s in _spans(trace) if s.name == "simulate"]
    assert all(r["engine"] == "c-batch" for r in runs)
    return got, runs


def _ntasks(points, setup):
    from repro.bench.runner import compiled_graph_for

    return sum(
        compiled_graph_for(m, n, cfg, setup.layout, setup.machine, setup.b).ntasks
        for m, n, cfg in points
    )


def test_a_repeated_sweep_simulates_nothing(batched_path):
    setup = small_setup()
    points = _many_points()
    first = run_config_sweep(points, setup)
    got, runs = _traced_sweep(points, setup)
    assert got == first
    assert runs == []


def test_a_half_answered_sweep_simulates_the_rest(batched_path):
    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    batched_path.clear_memory()
    run_config_sweep(points[::2], setup)
    got, runs = _traced_sweep(points, setup)
    assert got == want
    assert sum(r["points"] for r in runs) == len(points[1::2])
    assert sum(r["ntasks"] for r in runs) == _ntasks(points[1::2], setup)


def test_repeated_points_are_simulated_once(batched_path):
    """A point asked twice in one sweep shares its first copy's graph and
    result: the ``c-batch`` spans count each distinct point once."""
    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    batched_path.clear_memory()
    again = points + points[:3] + [points[0]] * 2
    got, runs = _traced_sweep(again, setup)
    assert got == want + want[:3] + [want[0]] * 2
    assert sum(r["points"] for r in runs) == len(points)
    assert sum(r["ntasks"] for r in runs) == _ntasks(points, setup)


def test_a_sweep_after_ranking_reuses_the_resident_graphs(
    batched_path, monkeypatch
):
    """Graphs stored through ``compiled_graph_for`` (no ranking stores one
    any more; ``tools/loop_ab.py`` does) are read by a later sweep, not
    built again."""
    from repro.bench import runner
    from repro.dag import compiled

    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    for m, n, cfg in points:
        runner.compiled_graph_for(m, n, cfg, setup.layout, setup.machine, setup.b)
    made = []

    def counted(real):
        def call(*args, **kwargs):
            made.append(real.__name__)
            return real(*args, **kwargs)
        return call

    for owner, name in ((runner, "hqr_elimination_list"),
                        (compiled, "compiled_from_eliminations")):
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    assert run_config_sweep(points, setup) == want
    assert made == []
    # the graphs stay, now beside their answers
    assert all(g is not None and r is not None
               for g, r in batched_path._memory.values())


def test_a_cold_sweep_leaves_graphless_entries(batched_path):
    setup = small_setup()
    points = _many_points()
    got = run_config_sweep(points, setup)
    entries = list(batched_path._memory.values())
    assert len(entries) == len(points)
    assert all(graph is None for graph, _ in entries)
    assert [result for _, result in entries] == got


def test_a_repeated_sweep_without_the_native_core_is_answered(
    fresh_cache, no_native
):
    """With no C compiler the sweep runs the same body as with one: the
    first sweep simulates on the Python loop, and a repeated one returns
    the same results with every point answered from its remembered entry,
    simulating nothing."""
    from repro.obs.tracing import RequestTrace, attach

    setup = small_setup()
    points = _points()
    cold = RequestTrace("0" * 31 + "4", "test", 0.0)
    with attach(cold):
        first = run_config_sweep(points, setup)
    assert [s.attrs["engine"] for s in _spans(cold)
            if s.name == "simulate"] == ["python"] * len(points)
    before = fresh_cache.stats()
    warm = RequestTrace("0" * 31 + "5", "test", 0.0)
    with attach(warm):
        assert run_config_sweep(points, setup) == first
    assert fresh_cache.stats_since(before)["answer_hit"] == len(points)
    assert not any(s.name == "simulate" for s in _spans(warm))


def test_an_answered_sweep_starts_no_thread(batched_path, monkeypatch):
    setup = small_setup()
    points = _many_points()
    first = run_config_sweep(points, setup)
    _no_thread(monkeypatch)
    assert run_config_sweep(points, setup) == first


@pytest.mark.parametrize("first_caller", ["sweep", "answers"])
def test_a_sweep_and_an_answers_caller_simulate_a_shared_key_once(
    first_caller, batched_path, monkeypatch
):
    """Whichever caller takes the key's gate first builds and simulates;
    the other waits at the gate and finds the answer remembered."""
    import time

    import repro.runtime.core as core_mod
    from repro.bench import runner
    from repro.dag.cache import fingerprint

    setup = small_setup()
    m, n, cfg = _many_points()[0]
    key = fingerprint(m, n, cfg, setup.layout, setup.machine, setup.b)
    got = {}
    callers = {
        "sweep": lambda: run_config_sweep([(m, n, cfg)], setup)[0],
        "answers": lambda: runner.answers(
            [(m, n, cfg, setup.layout)], setup.machine, setup.b, reuse=True
        )[0][0],
    }
    second_caller = "answers" if first_caller == "sweep" else "sweep"
    second = threading.Thread(
        target=lambda: got.update({second_caller: callers[second_caller]()}),
        name="test-second-caller",
    )
    real = core_mod._c_answers

    def answer_while_the_other_waits(*args):
        if second.ident is None:  # first call: let the other caller in
            second.start()
            deadline = time.monotonic() + 30
            while batched_path._building[key][1] < 2:  # holder + waiter
                assert time.monotonic() < deadline, "no caller at the gate"
                time.sleep(0.001)
        return real(*args)

    monkeypatch.setattr(core_mod, "_c_answers", answer_while_the_other_waits)
    simulated = simulated_points(monkeypatch)
    got[first_caller] = callers[first_caller]()
    second.join(30)
    assert not second.is_alive()
    assert len(simulated) == 1
    assert got["sweep"] == got["answers"] == run_config(m, n, cfg, setup)
    assert batched_path._building == {}


def test_run_config_on_a_swept_point_still_simulates(batched_path, monkeypatch):
    setup = small_setup()
    points = _many_points()
    swept = run_config_sweep(points, setup)
    simulated = simulated_points(monkeypatch)
    assert [run_config(m, n, cfg, setup) for m, n, cfg in points] == swept
    assert len(simulated) == len(points)


def test_racing_sweeps_and_answers_simulate_each_key_once(
    batched_path, monkeypatch
):
    """More callers than cores on overlapping keys, with a short switch
    interval: each distinct point is simulated once in all, and every
    caller gets the ``run_config`` result."""
    import sys

    from repro.bench import runner

    setup = small_setup()
    points = _many_points()
    want = [run_config(m, n, cfg, setup) for m, n, cfg in points]
    batched_path.clear_memory()
    simulated = simulated_points(monkeypatch)
    order = list(range(len(points)))
    picks = [order, order[::-1], order[5:] + order[:5], order[::2],
             order[1::3], order[::-3]]
    got, errors = {}, []

    def caller(slot, idx):
        try:
            if slot % 2 == 0:
                got[slot] = run_config_sweep([points[i] for i in idx], setup)
            else:
                got[slot] = [a[0] for a in runner.answers(
                    [(*points[i], setup.layout) for i in idx],
                    setup.machine, setup.b, reuse=True,
                )]
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=caller, args=(slot, idx))
            for slot, idx in enumerate(picks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for slot, idx in enumerate(picks):
        assert got[slot] == [want[i] for i in idx], slot
    assert len(simulated) == len(points)
    assert batched_path._building == {}
