"""``hqr_answer_batch``: the answers path's one native call.

Per question it expands the HQR list, checks it, builds the graph and
simulates it, keeping nothing; it must give what building the graph
(``compiled_from_eliminations``) and running it (``run_core``) gives, bit
for bit, and where it refuses a question the graph path answers or raises
its own typed error.
"""

import pytest

from repro import _ccore
from repro.bench.runner import BenchSetup, answers, run_config
from repro.dag.compiled import (
    CompiledGraph, compiled_from_eliminations, duration_table,
)
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import HQRTree, hqr_elimination_list
from repro.obs.tracing import RequestTrace, attach
from repro.runtime.core import _c_answers, run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D
from repro.verify.generator import generate_cases

pytestmark = pytest.mark.skipif(
    not _ccore.native_available(), reason="no C toolchain"
)


def _graph(m, n, cfg, layout, machine, b):
    return compiled_from_eliminations(
        hqr_elimination_list(m, n, cfg), m, n, layout, machine, b
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_each_answer_is_the_graph_paths(threads, monkeypatch):
    """Over the verify generator's cases on one machine, fanned out over
    any team: the result ``run_core`` gives on the built graph, and the
    graph's task count."""
    monkeypatch.setenv("REPRO_SIM_THREADS", threads)
    by_machine = {}
    for case in generate_cases(seed=3, budget=60):
        if case.m > 1:
            by_machine.setdefault((case.machine(), case.b), []).append(case)
    (machine, b), cases = max(by_machine.items(), key=lambda kv: len(kv[1]))
    assert len(cases) > 1
    graphs = [_graph(c.m, c.n, c.config(), c.layout(), machine, b) for c in cases]
    points = [(c.m, c.n, c.config(), c.layout()) for c in cases]
    got = _c_answers(_ccore.get_lib(), points, machine, b)
    for (result, ntasks, seconds), cg in zip(got, graphs):
        assert result == run_core(cg, machine, b).result
        assert ntasks == cg.ntasks
        assert len(seconds) == 3 and min(seconds) >= 0


def test_stage_times_are_the_cores_and_become_spans():
    setup = BenchSetup(b=40, grid_p=4, grid_q=2, machine=Machine(nodes=8))
    cfg = HQRConfig(p=4, q=2, a=2)
    ((result, ntasks, (elim, build, simulate)),) = _c_answers(
        _ccore.get_lib(), [(24, 6, cfg, setup.layout)], setup.machine, setup.b
    )
    assert elim > 0 and build > 0 and simulate > 0
    trace = RequestTrace("0" * 31 + "7", "test", 0.0)
    with attach(trace):
        assert run_config(24, 6, cfg, setup) == result
    graph, sim = trace.root.children
    assert (graph.name, sim.name) == ("graph", "simulate")
    assert [c.name for c in graph.children] == ["elim", "dag_build"]
    assert graph.end == sim.start and sim.duration > 0
    assert sim.attrs == {"engine": "c-batch", "points": 1, "ntasks": ntasks}


def test_an_empty_graph_answers_zero(monkeypatch):
    """A graph of no task, resident in the cache, is run as it is."""
    from repro.dag import cache as cache_mod
    from repro.dag.cache import CompiledGraphCache, fingerprint

    cache = CompiledGraphCache()
    monkeypatch.setattr(cache_mod, "_default", cache)
    machine, layout, cfg = Machine(nodes=2), BlockCyclic2D(2, 1), HQRConfig(p=2, q=1)
    empty = CompiledGraph(
        m=1, n=1, kind=_ccore.typed("b"), wait=_ccore.typed("B"),
        node=_ccore.typed("h"), succ_ptr=_ccore.typed("i", [0]),
        succ_idx=_ccore.typed("i"), dur_table=duration_table(machine, 40),
    )
    cache.put(fingerprint(4, 2, cfg, layout, machine, 40), empty)
    ((result, _, _),) = answers([(4, 2, cfg, layout)], machine, 40, reuse=True)
    assert result == run_core(empty, machine, 40).result
    assert (result.makespan, result.busy_seconds, result.messages) == (0.0, 0.0, 0)


def _same_error(call_a, call_b):
    with pytest.raises(Exception) as a:
        call_a()
    with pytest.raises(Exception) as b:
        call_b()
    assert (type(a.value), str(a.value)) == (type(b.value), str(b.value))
    return a.value


@pytest.mark.parametrize("victim", ["past-the-last-row", "the-diagonal-row"])
def test_an_elimination_outside_the_matrix_raises_the_graph_paths_error(
    victim, monkeypatch,
):
    """A high tree table whose victims lie past the last row, or are the
    panel's diagonal row: the core's check refuses the point, and the
    graph path raises its ``ValueError``."""
    cfg = HQRConfig(p=4, q=2, a=2)
    real = HQRTree.tables

    def broken(tree):
        low, (start, victims, killers) = real(tree)
        if victim == "past-the-last-row":
            return low, (start, _ccore.typed("i", [tree.m] * len(victims)), killers)
        # row k killed by row k + 1, in every panel k
        return low, (start, *(_ccore.typed("i", [r] * len(victims)) for r in (0, 1)))

    monkeypatch.setattr(HQRTree, "tables", broken)
    machine, layout = Machine(nodes=8), BlockCyclic2D(4, 2)
    assert _c_answers(
        _ccore.get_lib(), [(12, 4, cfg, layout)], machine, 40
    ) == [None]
    err = _same_error(
        lambda: answers([(12, 4, cfg, layout)], machine, 40, reuse=False),
        lambda: _graph(12, 4, cfg, layout, machine, 40),
    )
    assert isinstance(err, ValueError)


def test_an_owner_outside_the_machine_raises_the_graph_paths_error():
    cfg = HQRConfig(p=4, q=4, a=2)
    machine, layout = Machine(nodes=8), BlockCyclic2D(4, 4)  # 16 owners
    assert _c_answers(
        _ccore.get_lib(), [(12, 4, cfg, layout)], machine, 40
    ) == [None]
    err = _same_error(
        lambda: answers([(12, 4, cfg, layout)], machine, 40, reuse=False),
        lambda: run_core(_graph(12, 4, cfg, layout, machine, 40), machine, 40),
    )
    assert isinstance(err, ValueError) and "outside [0, 8)" in str(err)


def test_an_owner_past_int16_raises_the_graph_paths_error():
    cfg = HQRConfig(p=2, q=1, a=1)
    # row 1 of the grid starts at node 32768
    machine, layout = Machine(nodes=2**16), BlockCyclic2D(2, 2**15)
    err = _same_error(
        lambda: answers([(4, 2, cfg, layout)], machine, 40, reuse=False),
        lambda: _graph(4, 2, cfg, layout, machine, 40),
    )
    assert isinstance(err, OverflowError)


def test_the_figure_6a_sweep_plans_what_the_graph_path_plans():
    """The 72 Figure 6(a) points (the benchmark's sweep): the native call's
    task counts are the built graphs', and those graphs hold 183,744
    eliminations, 2,377,696 tasks and 5,872,584 edges in all; a dropped
    level or a doubled edge fails a count."""
    setup = BenchSetup()
    points = [
        (m, 16, HQRConfig(p=15, q=4, a=a, low_tree="greedy", high_tree=high,
                          domino=False))
        for high in ("greedy", "binary", "flat", "fibonacci")
        for a in (1, 4, 8) for m in (16, 32, 64, 128, 256, 512)
    ]
    got = _c_answers(
        _ccore.get_lib(), [(*p, setup.layout) for p in points],
        setup.machine, setup.b,
    )
    elims = tasks = edges = 0
    for (m, n, cfg), (_, ntasks, _) in zip(points, got):
        cg = _graph(m, n, cfg, setup.layout, setup.machine, setup.b)
        assert ntasks == cg.ntasks
        elims += len(hqr_elimination_list(m, n, cfg))
        tasks += cg.ntasks
        edges += len(cg.succ_idx)
    assert (elims, tasks, edges) == (183744, 2377696, 5872584)
