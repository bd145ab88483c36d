"""The unified core vs the frozen golden fixtures, flag by flag.

Every capability combination of :func:`repro.runtime.core.run_core` must
reproduce — bitwise — the values captured from the PRE-unification
engines (``tests/runtime/fixtures/golden_core.json``): Python and C
inner loops, trace recording, an attached request trace, batched
dispatch, and fault hooks — including the empty-schedule identity (fault
hooks with no fault == no hooks) that used to be its own verify engine.

The Python loop is reached as the process reaches it: by asking for a
trace, or with no native core (the ``no_native`` fixture).
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro._ccore import native_available
from repro.verify.reference import ClusterSimulator, Task, TaskGraph, compile_graph
from repro.kernels.weights import KernelKind
from repro.runtime.core import (
    FaultHooks,
    run_core,
    run_core_batch,
)
from repro.runtime.machine import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D

from golden import (
    GOLDEN_RELPATH,
    comm_digest,
    fault_golden_cases,
    float_hex,
    golden_cases,
    queue_digest,
    trace_digest,
)

FIXTURE = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / GOLDEN_RELPATH).read_text()
)

CASES = {c.name: c for c in golden_cases()}
FAULT_CASES = {c.name: c for c in fault_golden_cases()}


def _compiled(case):
    """Compile one golden case; returns (graph, sim, cg, prio)."""
    graph = case.graph()
    sim = ClusterSimulator(
        case.machine,
        case.layout(),
        case.b,
        priority=case.priority_keys(graph),
        data_reuse=case.data_reuse,
    )
    cg = compile_graph(graph, sim.layout, sim.machine, case.b)
    return graph, sim, cg, sim.priority_values(graph)


def _assert_scalar(res, frozen):
    assert float_hex(res.makespan) == frozen["makespan"]
    assert float_hex(res.busy_seconds) == frozen["busy_seconds"]
    assert float_hex(res.flops) == frozen["flops"]
    assert res.messages == frozen["messages"]
    assert res.bytes_sent == frozen["bytes_sent"]


@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_python_loop_with_traces_matches_golden(name):
    """The Python loop with record_trace: every field including both
    digests."""
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    frozen = FIXTURE["scalar"][name]
    assert cg.ntasks == frozen["ntasks"]
    res = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse, record_trace=True,
    ).result
    _assert_scalar(res, frozen)
    assert trace_digest(res.trace) == frozen["trace"]
    assert comm_digest(res.comm_trace) == frozen["comm"]


@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_python_loop_untraced_matches_golden(name, no_native):
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    res = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse,
    ).result
    _assert_scalar(res, FIXTURE["scalar"][name])
    assert res.trace is None and res.comm_trace is None
    assert res.queue_trace is None


@pytest.mark.skipif(not native_available(), reason="no C toolchain")
@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_c_loop_matches_golden(name):
    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    out = run_core(
        cg, case.machine, case.b,
        prio=prio, data_reuse=case.data_reuse,
    )
    assert out.engine == "c"
    _assert_scalar(out.result, FIXTURE["scalar"][name])


@pytest.mark.parametrize("core", ["python", "c"])
def test_batched_dispatch_matches_golden(core, request):
    """One batched call over every golden case == per-case fixtures."""
    _use(core, request)
    # all graphs in one dispatch must share machine/b/data_reuse: group
    groups = {}
    for name in sorted(FIXTURE["scalar"]):
        case = CASES[name]
        key = (id(case.machine), case.b, case.data_reuse)
        groups.setdefault(key, []).append(name)
    for names in groups.values():
        cases = [CASES[n] for n in names]
        compiled = [_compiled(c) for c in cases]
        results = run_core_batch(
            [cg for _, _, cg, _ in compiled],
            cases[0].machine,
            cases[0].b,
            prios=[prio for _, _, _, prio in compiled],
            data_reuse=cases[0].data_reuse,
        )
        for name, res in zip(names, results):
            _assert_scalar(res, FIXTURE["scalar"][name])


def _foreign(cg):
    """``cg`` with every array the native loop reads given the wrong
    dtype or a non-contiguous stride — same values, normalised per call."""

    def strided(arr):
        return np.repeat(arr, 2)[::2]

    return dataclasses.replace(
        cg,
        kind=strided(cg.kind),
        node=cg.node.astype(np.int64),
        wait=strided(cg.wait.astype(np.int64)),
        succ_ptr=cg.succ_ptr.astype(np.int64),
        succ_idx=strided(cg.succ_idx.astype(np.int64)),
        dur_table=strided(cg.dur_table),
    )


def _use(core, request):
    """Run the test on ``core``: ``python`` takes the no-compiler path,
    ``c`` needs the native core (else the test skips)."""
    if core == "python":
        request.getfixturevalue("no_native")
    elif not native_available():
        pytest.skip("no C toolchain")


def _untraced(res):
    """``res`` without its per-task record, to compare with a C run."""
    return dataclasses.replace(
        res, trace=None, comm_trace=None, queue_trace=None
    )


def _set_threads(monkeypatch, threads):
    """``REPRO_SIM_THREADS`` = ``threads``, or unset for ``None``."""
    if threads is None:
        monkeypatch.delenv("REPRO_SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("REPRO_SIM_THREADS", threads)


@pytest.mark.parametrize("threads", [None, "1"])
@pytest.mark.parametrize("core", ["python", "c"])
@pytest.mark.parametrize("name", sorted(FIXTURE["scalar"]))
def test_batch_equals_per_graph_equals_golden(
    name, core, threads, monkeypatch, request
):
    """run_core_batch == run_core per graph == the frozen fixture, with the
    batch holding foreign-typed arrays, an empty graph in the middle, and an
    explicit priority vector next to ``None``."""
    _use(core, request)
    _set_threads(monkeypatch, threads)
    case = CASES[name]
    _, sim, cg, prio = _compiled(case)
    empty = compile_graph(
        TaskGraph(1, 1, [], []), sim.layout, sim.machine, case.b
    )
    graphs = [_foreign(cg), empty, cg, cg]
    prios = [prio, None, prio, None]
    kw = dict(data_reuse=case.data_reuse)
    batch = run_core_batch(graphs, case.machine, case.b, prios=prios, **kw)
    single = [
        run_core(g, case.machine, case.b, prio=p, **kw).result
        for g, p in zip(graphs, prios)
    ]
    assert batch == single
    frozen = FIXTURE["scalar"][name]
    _assert_scalar(batch[0], frozen)
    _assert_scalar(batch[2], frozen)
    assert (batch[1].makespan, batch[1].messages, batch[1].flops) == (0.0, 0, 0.0)
    if prio is None:
        _assert_scalar(batch[3], frozen)


@pytest.mark.parametrize("core", ["python", "c"])
def test_int64_offsets_give_the_same_result_by_value(core, request):
    """A hand-built graph still carrying wider arrays — int64 offsets,
    int32 wait counts and nodes — runs, and equals the narrow graph, through
    every loop: single and batch."""
    _use(core, request)
    case = CASES["flat-serialized"]
    _, _, cg, prio = _compiled(case)
    assert (cg.wait.dtype, cg.node.dtype, cg.succ_ptr.dtype) == (
        np.uint8, np.int16, np.int32
    )
    wide = dataclasses.replace(
        cg,
        wait=cg.wait.astype(np.int32),
        node=cg.node.astype(np.int32),
        succ_ptr=cg.succ_ptr.astype(np.int64),
    )
    assert wide.pred_counts.tolist() == cg.pred_counts.tolist()
    assert np.array_equal(wide.pred_ptr, cg.pred_ptr)
    kw = dict(data_reuse=case.data_reuse)
    want = run_core(cg, case.machine, case.b, prio=prio, **kw).result
    _assert_scalar(want, FIXTURE["scalar"]["flat-serialized"])
    assert run_core(wide, case.machine, case.b, prio=prio, **kw).result == want
    assert run_core_batch(
        [wide, cg], case.machine, case.b, prios=[prio, prio], **kw
    ) == [want, want]


def test_batch_refuses_arrays_that_do_not_fit_together():
    """Lengths are checked before any address reaches the C loop; a kind
    or node the loop cannot index with (its finish rings are per kind, its
    cores per node) is refused inside it.  Either is a ValueError naming
    the graph, alone and mid-batch, never a fallback to Python."""
    if not native_available():
        pytest.skip("no C toolchain")
    case = CASES["flat-serialized"]
    assert case.machine.nodes == 8
    _, _, cg, _ = _compiled(case)
    short = dataclasses.replace(cg, node=cg.node[:-1])
    with pytest.raises(ValueError, match="graph 1"):
        run_core_batch([cg, short], case.machine, case.b)
    # a wide node array whose values int16 would wrap onto valid nodes
    wrapped = dataclasses.replace(cg, node=cg.node.astype(np.int32) + 2**16)
    with pytest.raises(ValueError, match="graph 1: node values outside int16"):
        run_core_batch([cg, wrapped], case.machine, case.b)
    for name, value in [("kind", 6), ("kind", -1), ("node", 8), ("node", -1)]:
        arr = getattr(cg, name).copy()
        arr[len(arr) // 2] = value
        bad = dataclasses.replace(cg, **{name: arr})
        with pytest.raises(ValueError, match="graph 0"):
            run_core(bad, case.machine, case.b)
        with pytest.raises(ValueError, match="graph 1"):
            run_core_batch([cg, bad, cg], case.machine, case.b)


def _fan_out_graph():
    """Task 0 (node 0) feeds one local consumer, three on node 1 and two on
    node 2, in the other site; task 7 (node 3) also messages node 1, and a
    sink on node 0 gathers the rest.  Under ``Cyclic1D(4)`` a task's node
    is its row mod 4."""
    K = KernelKind
    rows_kinds_preds = [
        (0, K.GEQRT, []),
        (4, K.UNMQR, [0]),
        (1, K.UNMQR, [0]),
        (5, K.UNMQR, [0]),
        (9, K.TSQRT, [0]),
        (2, K.UNMQR, [0]),
        (6, K.TTQRT, [0]),
        (3, K.GEQRT, []),
        (13, K.TSMQR, [7, 2]),
        (8, K.TTMQR, [1, 2, 3, 4, 5, 6, 8]),
    ]
    tasks = [Task(t, kind, row, 0) for t, (row, kind, _) in enumerate(rows_kinds_preds)]
    return TaskGraph(14, 1, tasks, [preds for *_, preds in rows_kinds_preds])


@pytest.mark.parametrize("serialized", [True, False])
def test_a_tile_goes_once_to_each_remote_node(serialized):
    """Task 0's five cross-node edges are two messages, one a destination
    node: 9 in all, where one message an edge would be 12.  Every cluster
    loop — C, Python, traced, and the fault branch with its ``sent`` dict —
    agrees bit for bit."""
    from repro.resilience.faults import FaultSchedule

    graph, layout, b = _fan_out_graph(), Cyclic1D(4), 64
    machine = Machine(
        nodes=4, cores_per_node=1, site_size=2, comm_serialized=serialized
    )
    cg = compile_graph(graph, layout, machine, b)
    assert cg.node.tolist() == [0, 0, 1, 1, 1, 2, 2, 3, 1, 0]
    traced = ClusterSimulator(machine, layout, b, record_trace=True).run(graph)
    assert [dst for t, _, dst, *_ in traced.comm_trace if t == 0] == [1, 2]
    hooks = FaultHooks(FaultSchedule(), replan=lambda dead: cg.node.tolist())
    cluster = [
        traced,
        run_core(cg, machine, b, record_trace=True).result,
        run_core(cg, machine, b, fault=hooks).result,
        run_core(cg, machine, b).result,  # C where it loaded
    ]
    assert [r.messages for r in cluster] == [9] * len(cluster)
    assert [r.makespan for r in cluster] == [cluster[0].makespan] * len(cluster)


@pytest.mark.parametrize("change", [-1, +1], ids=["lowered", "raised"])
def test_a_wrong_wait_count_is_refused_by_every_loop(change):
    """One task's wait count off its in-degree: lowered, the task starts
    before its last input and the loop used to return a wrong makespan;
    raised, the task never starts.  Either way its count does not end at 0,
    and every loop — C and Python cluster and the fault branch, alone and
    mid-batch — raises a typed error naming the graph (or, in Python, the
    task)."""
    from repro.resilience.faults import FaultSchedule

    machine, b = Machine(nodes=4, cores_per_node=1, site_size=2), 64
    cg = compile_graph(_fan_out_graph(), Cyclic1D(4), machine, b)
    assert cg.wait.tolist() == [0, 1, 1, 1, 1, 1, 1, 0, 2, 7]
    wait = cg.wait.copy()
    wait[9] = 7 + change
    bad = dataclasses.replace(cg, wait=wait)
    hooks = FaultHooks(FaultSchedule(), replan=lambda dead: cg.node.tolist())
    refusals = [
        ("python", lambda: run_core(bad, machine, b, record_trace=True)),
        ("python", lambda: run_core(bad, machine, b, fault=hooks)),
    ]
    if native_available():
        refusals += [
            ("c", lambda: run_core(bad, machine, b)),
            ("c", lambda: run_core_batch([cg, bad], machine, b)),
        ]
    for core, simulate in refusals:
        where = "task 9" if core == "python" else "graph [01]"
        with pytest.raises(ValueError, match=rf"{where}: a wait count"):
            simulate()


# the C loop keeps finish events in one sorted ring per kernel kind, which
# is fastest when each kind's finish times arrive in order, arrivals in a
# 4-ary heap and each node's ready tasks in a heap of ranks; these inputs
# are where that order is least assured, and every queue must still pop in
# the order of the Python loop's heapq
_QUEUE_DURS = {
    "native": None,
    "equal": [1.0e-3] * 6,
    "zero": [2.0e-3, 0.0, 3.0e-3, 1.0e-3, 2.5e-3, 1.5e-3],
    "decreasing": [6.0e-3, 5.0e-3, 4.0e-3, 3.0e-3, 2.0e-3, 1.0e-3],
}
# (machine, process grid, tile rows x columns); the graph is
# "flat-serialized" at that size
_QUEUE_MACHINES = {
    "base": (CASES["flat-serialized"].machine, (4, 2), (16, 5)),
    # a ring of 1
    "one-core": (Machine(nodes=1, cores_per_node=1), (1, 1), (16, 5)),
    "ideal": (Machine.ideal(nodes=8, cores_per_node=3), (4, 2), (16, 5)),
    # an arrival's time depends on the link it crossed, so arrivals enter
    # the heap out of time order
    "two-site": (CASES["hierarchical"].machine, (4, 2), (16, 5)),
    # 72 to 77 arrivals wait at once (16 at 16 x 5), past the 21 slots of
    # a 4-ary heap's first two levels, so a sift that stops early shows
    "base-32x12": (CASES["flat-serialized"].machine, (4, 2), (32, 12)),
    "two-site-32x12": (CASES["hierarchical"].machine, (4, 2), (32, 12)),
    # one node's ready heap reaches 37 ready tasks in program order and 50
    # reversed (15 and 19 at 16 x 5), past the 31 slots of a binary heap's
    # first five levels, so a ready sift-down that stops early shows
    "one-core-32x12": (Machine(nodes=1, cores_per_node=1), (1, 1), (32, 12)),
    # 69 and 87 ready at once: past the ready heap's first 64-slot
    # allocation, so its growth path runs (Figure 6(a) peaks at 57)
    "one-core-80x16": (Machine(nodes=1, cores_per_node=1), (1, 1), (80, 16)),
}


@pytest.mark.parametrize("threads", [None, "1"])
@pytest.mark.parametrize("reverse_prio", [False, True])
@pytest.mark.parametrize("machine", sorted(_QUEUE_MACHINES))
@pytest.mark.parametrize("durs", sorted(_QUEUE_DURS))
def test_event_queue_orders_like_heapq(
    durs, machine, reverse_prio, threads, monkeypatch
):
    if not native_available():
        pytest.skip("no C toolchain")
    _set_threads(monkeypatch, threads)
    mach, grid, (m, n) = _QUEUE_MACHINES[machine]
    case = dataclasses.replace(CASES["flat-serialized"], m=m, n=n)
    cg = compile_graph(case.graph(), BlockCyclic2D(*grid), mach, case.b)
    if _QUEUE_DURS[durs] is not None:
        cg = dataclasses.replace(cg, dur_table=np.array(_QUEUE_DURS[durs]))
    # reversed: equal-time events enter a ring or the heap in descending code
    prio = list(range(cg.ntasks, 0, -1)) if reverse_prio else None
    for reuse in (False, True):
        kw = dict(prio=prio, data_reuse=reuse)
        ref = run_core(cg, mach, case.b, record_trace=True, **kw)
        out = run_core(cg, mach, case.b, **kw)
        assert (ref.engine, out.engine) == ("python", "c")
        want = _untraced(ref.result)
        assert out.result == want
        batch = run_core_batch(
            [cg, cg], mach, case.b, prios=[prio, prio], data_reuse=reuse,
        )
        assert batch == [want, want]


@pytest.mark.parametrize("detail", ["summary", "tasks"])
@pytest.mark.parametrize("name", ["flat-serialized", "hierarchical-reuse"])
def test_obs_recording_is_bitwise_neutral(name, detail):
    """An attached request trace must not move a single bit, over the run
    summary alone (the C loop where it is built) or with the per-task
    trace; its one ``simulate`` span names the loop that ran."""
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id

    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    frozen = FIXTURE["scalar"][name]
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    with attach(trace):
        res = run_core(
            cg, case.machine, case.b,
            prio=prio, data_reuse=case.data_reuse,
            record_trace=detail == "tasks",
        ).result
    _assert_scalar(res, frozen)
    (sp,) = trace.root.children
    c_loop = detail == "summary" and native_available()
    assert sp.attrs["engine"] == ("c" if c_loop else "python")
    if detail == "tasks":
        assert trace_digest(res.trace) == frozen["trace"]
        assert comm_digest(res.comm_trace) == frozen["comm"]


@pytest.mark.parametrize("name", ["flat-serialized", "hierarchical-reuse"])
def test_tracing_span_hook_is_bitwise_neutral(name):
    """The core's ``simulate`` span must not move a single bit.

    A trace attached — the maximally instrumented configuration — still
    reproduces the golden fixtures, and the core emits exactly one
    "simulate" span per run."""
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id

    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    with attach(trace):
        res = run_core(
            cg, case.machine, case.b,
            prio=prio, data_reuse=case.data_reuse,
        ).result
    _assert_scalar(res, FIXTURE["scalar"][name])
    spans = [s for s in trace.root.children if s.name == "simulate"]
    assert len(spans) == 1
    assert spans[0].attrs["ntasks"] == cg.ntasks


def test_tracing_span_hook_is_bitwise_neutral_batched():
    """Same neutrality through the batched dispatch path."""
    from repro.obs.tracing import RequestTrace, attach, mint_trace_id

    names = ["flat-serialized", "flat-critical-path"]
    cases = [CASES[n] for n in names]
    compiled = [_compiled(c) for c in cases]
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    with attach(trace):
        results = run_core_batch(
            [cg for _, _, cg, _ in compiled],
            cases[0].machine,
            cases[0].b,
            prios=[prio for _, _, _, prio in compiled],
            data_reuse=cases[0].data_reuse,
        )
    for name, res in zip(names, results):
        _assert_scalar(res, FIXTURE["scalar"][name])
    assert any(s.name == "simulate" for s in trace.root.children)


def _shrunken_grid_replan(graph, layout, machine):
    """Post-crash node of every task, re-derived from the object graph: a
    block-cyclic layout re-places each task's tile on the shrunken grid of
    the survivors (the recovery policy, kept here as an oracle)."""
    from repro.resilience.replan import shrunken_grid

    def replan(dead):
        survivors = [k for k in range(machine.nodes) if k not in dead]
        grid = BlockCyclic2D(*shrunken_grid(layout.p, layout.q, len(survivors)))
        return [
            survivors[grid.owner(t.row, t.panel if t.col < 0 else t.col)]
            for t in graph.tasks
        ]

    return replan


def _assert_faulty(res, fo, ntasks, frozen):
    assert float_hex(res.makespan) == frozen["makespan"]
    assert float_hex(res.busy_seconds) == frozen["busy_seconds"]
    assert float_hex(fo.wasted) == frozen["wasted_seconds"]
    assert res.messages == frozen["messages"]
    assert fo.executions - ntasks == frozen["tasks_reexecuted"]
    assert fo.aborted == frozen["tasks_aborted"]
    assert fo.refetches == frozen["refetch_messages"]
    assert fo.dropped == frozen["messages_dropped"]
    assert fo.retransmits == frozen["retransmits"]
    assert list(fo.dead) == frozen["crashed_nodes"]
    assert trace_digest(res.trace) == frozen["trace"]


@pytest.mark.parametrize("name", sorted(FIXTURE["faulty"]))
def test_fault_hooks_match_golden(name):
    """The fault capability branch, driven directly through FaultHooks."""
    from repro.resilience.faults import FaultSchedule

    fcase = FAULT_CASES[name]
    base = fcase.base
    graph, sim, cg, prio = _compiled(base)
    frozen = FIXTURE["faulty"][name]
    baseline = run_core(
        cg, base.machine, base.b, prio=prio, data_reuse=base.data_reuse
    ).result.makespan
    assert float_hex(baseline) == frozen["baseline_makespan"]
    schedule = FaultSchedule.scenario(
        fcase.scenario,
        seed=fcase.seed,
        nodes=base.machine.nodes,
        horizon=baseline,
        severity=fcase.severity,
    )
    hooks = FaultHooks(
        schedule=schedule,
        replan=_shrunken_grid_replan(graph, sim.layout, sim.machine),
        fault_events=[],
    )
    out = run_core(
        cg, base.machine, base.b,
        prio=prio,
        data_reuse=base.data_reuse,
        record_trace=True,
        fault=hooks,
    )
    _assert_faulty(out.result, out.fault, cg.ntasks, frozen)


@pytest.mark.parametrize("name", sorted(FIXTURE["faulty"]))
def test_run_with_faults_matches_golden(name):
    """The production fault entry point — one plan on the C planner, the
    post-crash nodes from its arrays — reproduces every frozen value."""
    from golden import _run_faulty

    assert _run_faulty(FAULT_CASES[name]) == FIXTURE["faulty"][name]


@pytest.mark.parametrize(
    "name", ["flat-serialized", "flat-critical-path", "hierarchical"]
)
def test_empty_schedule_fault_loop_is_bit_identical(name):
    """Fault hooks with an empty schedule == fault hooks disabled, bitwise
    (the old verify engine, now a flag identity)."""
    from repro.resilience.faults import FaultSchedule

    case = CASES[name]
    _, _, cg, prio = _compiled(case)
    out = run_core(
        cg, case.machine, case.b,
        prio=prio,
        data_reuse=case.data_reuse,
        fault=FaultHooks(FaultSchedule(), replan=lambda dead: cg.node.tolist()),
    )
    frozen = FIXTURE["scalar"][name]
    _assert_scalar(out.result, frozen)
    assert out.fault.executions == cg.ntasks  # nothing re-executed
    assert out.fault.aborted == 0
    assert out.fault.wasted == 0.0


#: the ready-queue series of 16 x 4 tiles on 2-core nodes, where cores run
#: out: (length, queue_digest, peak depth per node), frozen from the
#: recorder's ``queue`` family before the series moved to ``queue_trace``
QUEUE_PINS = {
    1: (
        338,
        "2e39e306e3f81cc183d94b631b4ddc4199ba6711a7ba054ef7b346a00c8a0d25",
        {0: 11},
    ),
    2: (
        242,
        "2123f97e0baa2377f78649790fb569e9ece7fd66f478c138c87d6f670e69f624",
        {0: 6, 1: 6},
    ),
}


@pytest.mark.parametrize("nodes", sorted(QUEUE_PINS))
def test_queue_trace_is_the_pinned_ready_queue_series(nodes):
    """A traced run records every ready-queue change once, as
    ``(time, node, depth)``, and every queue drains; a faulted run records
    none."""
    from repro.dag.compiled import compiled_from_eliminations
    from repro.hqr.config import HQRConfig
    from repro.hqr.hierarchy import hqr_elimination_list
    from repro.resilience.faults import FaultSchedule

    m, n, b = 16, 4, 200
    mach = Machine(
        nodes=nodes, cores_per_node=2, latency=1.0e-5, bandwidth=1.0e9
    )
    cfg = HQRConfig(
        p=nodes, q=1, a=4, low_tree="greedy", high_tree="fibonacci",
        domino=False,
    )
    cg = compiled_from_eliminations(
        hqr_elimination_list(m, n, cfg), m, n, BlockCyclic2D(nodes, 1), mach, b
    )
    queue = run_core(cg, mach, b, record_trace=True).result.queue_trace
    peaks, last = {}, {}
    for _, node, depth in queue:
        peaks[node] = max(peaks.get(node, 0), depth)
        last[node] = depth
    assert (len(queue), queue_digest(queue), peaks) == QUEUE_PINS[nodes]
    assert set(last.values()) == {0}

    hooks = FaultHooks(FaultSchedule(), replan=lambda dead: cg.node.tolist())
    faulted = run_core(cg, mach, b, record_trace=True, fault=hooks).result
    assert faulted.trace and faulted.queue_trace is None
