"""The native counting pre-pass, the fused build and the native transpose
against the pure-Python builder and the numpy ``_succ_csr``: every
``CompiledGraph`` array bit for bit, dtype included, and — the graph no
longer storing them — the derived predecessor lists against the emitted
ones and ``task_coordinates`` against the ``(row, panel, col, killer)`` of
``TaskGraph.from_eliminations``, so "task *t* is the same kernel on the
same tiles, after the same tasks" stays pinned."""

import ctypes
import dataclasses
import json
import logging
import sys
import threading

import numpy as np
import pytest

from _support import random_elimination_list
from repro import _ccore
from repro.dag.cache import _ARRAY_FIELDS
from repro.dag import compiled
from repro.dag.compiled import (
    CompiledGraph,
    _build_arrays_py,
    _build_native,
    _check_int32,
    _succ_csr,
    _transpose,
    compiled_from_eliminations,
    duration_table,
    placement_array,
    task_coordinates,
)
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.kernels.weights import KernelKind
from repro.runtime.core import run_core
from repro.runtime.machine import Machine
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D, Layout, SingleNode
from repro.verify.reference import Task, TaskGraph, compile_graph
from repro.trees.base import EliminationArray
from repro.verify.generator import LAYOUT_KINDS, generate_cases

needs_native = pytest.mark.skipif(
    not _ccore.native_available(), reason="no C compiler for the native core"
)


class DiagonalOwner(Layout):
    """A layout only its scalar ``owner`` describes (no array fast path)."""

    def __init__(self, nodes: int):
        self.nodes = nodes

    def owner(self, i: int, j: int) -> int:
        return (i + 2 * j) % self.nodes

    def local_row(self, i: int) -> int:
        return i


def _cases():
    """Verifier cases covering all four layout families, plus a custom-owner
    layout on each shape."""
    cases = list(generate_cases(seed=1553, budget=60))
    assert {c.layout_kind for c in cases} == set(LAYOUT_KINDS)
    for case in cases:
        yield case.m, case.n, case.config(), case.layout(), case.machine(), case.b
        if case.index % 5 == 0:
            machine = Machine(nodes=5, cores_per_node=2)
            yield case.m, case.n, case.config(), DiagonalOwner(5), machine, case.b


#: the layout every builder emits: 8 bytes a task, 4 an edge
DTYPES = {
    "kind": np.int8, "wait": np.uint8, "node": np.int16,
    "succ_ptr": np.int32, "succ_idx": np.int32, "dur_table": np.float64,
}


def _py_arrays(elims, m, n, layout):
    """``kind, node, pred_ptr, pred_idx`` of the pure-Python builder."""
    kind, row, panel, col, _, pred_ptr, pred_idx = _build_arrays_py(elims, m, n)
    node = placement_array(layout, row, np.where(col < 0, panel, col))
    return kind, node, pred_ptr, pred_idx


def _reference_graph(elims, m, n, layout, machine, b):
    """The graph as the no-compiler path builds it, spelled out."""
    kind, node, pred_ptr, pred_idx = _py_arrays(elims, m, n, layout)
    succ_ptr, succ_idx = _succ_csr(pred_ptr, pred_idx, len(kind))
    return CompiledGraph(
        m=m, n=n, kind=kind, wait=np.diff(pred_ptr).astype(np.uint8),
        node=node.astype(np.int16), succ_ptr=succ_ptr, succ_idx=succ_idx,
        dur_table=duration_table(machine, b),
    )


def _assert_same_graph(got, want):
    assert (got.m, got.n) == (want.m, want.n)
    for field in _ARRAY_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == DTYPES[field], field
        assert a.shape == b.shape and np.array_equal(a, b), field


def _assert_emitted_predecessors(cg, elims, m, n):
    """The graph's wait counts are the Python builder's emitted in-degrees,
    and its derived predecessor lists the emitted lists, each sorted, on
    the same offsets."""
    _, _, pred_ptr, pred_idx = _py_arrays(elims, m, n, SingleNode())
    assert np.array_equal(cg.wait, np.diff(pred_ptr))
    assert np.array_equal(np.diff(cg.pred_ptr), cg.wait)
    derived = cg.pred_idx
    assert derived.dtype == np.int32 and len(derived) == cg.succ_ptr[-1]
    assert np.array_equal(cg.pred_ptr, pred_ptr)
    for t in range(cg.ntasks):
        span = slice(pred_ptr[t], pred_ptr[t + 1])
        assert derived[span].tolist() == sorted(pred_idx[span].tolist()), t


def _assert_coordinates(elims, m, n):
    """``task_coordinates`` == the Task objects' fields, int32, in order."""
    tasks = TaskGraph.from_eliminations(elims, m, n).tasks
    got = task_coordinates(elims, m, n)
    assert len(got) == 4
    for arr, name in zip(got, ("row", "panel", "col", "killer")):
        assert arr.dtype == np.int32, name
        assert arr.tolist() == [getattr(t, name) for t in tasks], name


def test_first_use_logs_one_load_line(monkeypatch, caplog):
    """With no compiler the library is ``None``, and the first call says
    so in one ``ccore_load`` line; a second call logs nothing."""
    monkeypatch.setattr(_ccore, "_lib", None)
    monkeypatch.setattr(_ccore, "_lib_tried", False)
    monkeypatch.setattr(_ccore, "_compiler", lambda: None)
    with caplog.at_level(logging.INFO, logger="repro._ccore"):
        assert _ccore.get_lib() is None
        assert _ccore.get_lib() is None
    (record,) = [r for r in caplog.records if r.name == "repro._ccore"]
    line = json.loads(record.getMessage())
    assert (line["event"], line["available"]) == ("ccore_load", False)
    assert line["seconds"] >= 0


@needs_native
def test_native_graph_equals_python_core_graph(monkeypatch):
    built = [
        (args, compiled_from_eliminations(
            hqr_elimination_list(args[0], args[1], args[2]),
            args[0], args[1], *args[3:],
        ))
        for args in _cases()
    ]
    monkeypatch.setattr(_ccore, "get_lib", lambda: None)  # as with no compiler
    for (m, n, cfg, layout, machine, b), native in built:
        elims = hqr_elimination_list(m, n, cfg)
        fallback = compiled_from_eliminations(elims, m, n, layout, machine, b)
        _assert_same_graph(native, fallback)
        # ... and the TaskGraph route lands on the same arrays
        graph = TaskGraph.from_eliminations(elims, m, n)
        _assert_same_graph(native, compile_graph(graph, layout, machine, b))
        _assert_coordinates(elims, m, n)


@needs_native
@pytest.mark.parametrize(
    "layout,nodes",
    [
        (BlockCyclic2D(3, 2), 6),
        (Cyclic1D(4, block=2), 4),
        (Block1D(3, 14), 3),
        (SingleNode(), 1),
        (DiagonalOwner(5), 5),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Layout) else None,
)
def test_fused_build_equals_the_reference_field_by_field(layout, nodes):
    machine = Machine(nodes=nodes, cores_per_node=2)
    configs = [
        HQRConfig(p=3, q=2, a=2, low_tree="binary", high_tree="greedy"),
        HQRConfig(p=2, a=4, low_tree="flat", high_tree="fibonacci", domino=False),
        HQRConfig.bbd10(),
    ]
    for m, n in [(1, 1), (1, 4), (2, 1), (5, 5), (6, 9), (14, 4), (13, 13)]:
        for cfg in configs:
            elims = hqr_elimination_list(m, n, cfg)
            got = _build_native(elims, m, n, layout, machine, 16)
            assert got is not None
            _assert_same_graph(
                got, _reference_graph(elims, m, n, layout, machine, 16)
            )
            _assert_coordinates(elims, m, n)


@needs_native
def test_finish_pass_equals_numpy_finish():
    """The native transpose == ``_succ_csr``, bitwise, both ways: the
    emitted predecessor lists into successors, and those back."""
    for m, n, cfg, layout, machine, b in _cases():
        elims = hqr_elimination_list(m, n, cfg)
        kind, _, pred_ptr, pred_idx = _py_arrays(elims, m, n, layout)
        ptr, idx = pred_ptr, pred_idx
        for _ in range(2):
            want = _succ_csr(ptr, idx, len(kind))
            got = _transpose(ptr, idx)
            for a, b_ in zip(got, want):
                assert a.dtype == b_.dtype == np.int32
                assert np.array_equal(a, b_)
            ptr, idx = got
        assert np.array_equal(ptr, pred_ptr)


@pytest.mark.parametrize("core", ["auto", "python"])
def test_derived_predecessors_are_the_emitted_lists_sorted(core, request):
    """Fused, Python and ``compile_graph`` builders over random trees: each
    graph's derived predecessor lists are what its builder emitted."""
    if core == "python":
        request.getfixturevalue("no_native")
    layout, machine = BlockCyclic2D(2, 2), Machine(nodes=4, cores_per_node=2)
    for seed in range(12):
        m, n = 3 + seed, 1 + seed % 5
        elims = EliminationArray.of(random_elimination_list(m, n, seed=seed))
        graph = TaskGraph.from_eliminations(elims, m, n)
        for cg in (
            compiled_from_eliminations(elims, m, n, layout, machine, 16),
            compile_graph(graph, layout, machine, 16),
        ):
            _assert_emitted_predecessors(cg, elims, m, n)


def test_one_node_machine_sends_no_messages():
    m, n, cfg = 9, 4, HQRConfig(p=2, a=2)
    machine = Machine(nodes=1)
    cg = compiled_from_eliminations(
        hqr_elimination_list(m, n, cfg), m, n, SingleNode(), machine, 16
    )
    assert len(cg.succ_idx) == len(cg.pred_idx) > 0
    assert run_core(cg, machine, 16).result.messages == 0


@pytest.mark.parametrize("core", ["auto", "python"])
def test_transpose_refuses_out_of_range_indices(core, request):
    """An index outside ``[0, ntasks)`` is a typed error on either path,
    never a write out of bounds (the sanitizer build watches that)."""
    if core == "python":
        request.getfixturevalue("no_native")
    elims = hqr_elimination_list(6, 3, HQRConfig(p=2))
    kind, _, pred_ptr, pred_idx = _py_arrays(elims, 6, 3, SingleNode())
    ntasks = len(kind)
    for bad in (pred_idx + ntasks, pred_idx - 5):
        with pytest.raises(ValueError, match=rf"outside \[0, {ntasks}\)"):
            _transpose(pred_ptr, bad)
    with pytest.raises(ValueError, match="offsets end at"):
        _transpose(pred_ptr, pred_idx[:-1])


@needs_native
def test_owner_outside_the_machine_is_refused_then_raised_by_the_loop():
    """A layout that places tiles on nodes the machine does not have: the
    fused pass refuses its owner table, the reference path still builds the
    graph (as before), and the event loop raises the typed error."""
    m, n, b = 6, 3, 16
    elims = hqr_elimination_list(m, n, HQRConfig(p=2))
    layout, machine = DiagonalOwner(5), Machine(nodes=3, cores_per_node=2)
    assert _build_native(elims, m, n, layout, machine, b) is None
    cg = compiled_from_eliminations(elims, m, n, layout, machine, b)
    _assert_same_graph(cg, _reference_graph(elims, m, n, layout, machine, b))
    with pytest.raises(ValueError, match=r"node outside \[0, 3\)"):
        run_core(cg, machine, b)


def _raw_build(lib, write, m, n, elims, owner, nnodes, ntasks, nedges, arrays):
    counted = ctypes.c_int64()
    rc = lib.hqr_build_dag(
        write, m, n, len(elims), elims.panel.ctypes.data,
        elims.victim.ctypes.data, elims.killer.ctypes.data, elims.ts.ctypes.data,
        owner.ctypes.data, nnodes, ntasks, nedges,
        *[a.ctypes.data for a in arrays], ctypes.byref(counted),
        None, None, None,  # the bound mode's machine and output
    )
    return rc, counted.value


@needs_native
def test_write_pass_refuses_counts_it_does_not_reproduce():
    """Every write is checked against the sizes the caller allocated: too
    few or too many tasks or edges is rc -2, and nothing past the arrays
    is touched (the sanitizer build watches that)."""
    lib = _ccore.get_lib()
    m, n = 7, 4
    elims = hqr_elimination_list(m, n, HQRConfig(p=2, a=2))
    owner = np.zeros(m * n, np.int32)
    nothing = [np.empty(0, np.int32)] * 5
    nedges, ntasks = _raw_build(lib, 0, m, n, elims, owner, 1, 0, 0, nothing)
    assert ntasks == len(TaskGraph.from_eliminations(elims, m, n).tasks)
    assert nedges > ntasks

    def arrays(nt, ne):  # kind, wait, node, succ_ptr, succ_idx
        sizes = [nt, nt, nt, nt + 1, ne]
        dtypes = [np.int8, np.uint8, np.int16, np.int32, np.int32]
        return [np.empty(s, d) for s, d in zip(sizes, dtypes)]

    assert _raw_build(
        lib, 1, m, n, elims, owner, 1, ntasks, nedges, arrays(ntasks, nedges)
    )[0] == 0
    for nt, ne in [
        (ntasks - 1, nedges), (ntasks, nedges - 1),
        (ntasks + 1, nedges), (ntasks, nedges + 1), (0, 0),
    ]:
        assert _raw_build(
            lib, 1, m, n, elims, owner, 1, nt, ne, arrays(nt, ne)
        )[0] == -2
    # counts the 32-bit offsets cannot hold are refused before any write
    for nt, ne in [(2**31, nedges), (ntasks, 2**31)]:
        assert _raw_build(
            lib, 1, m, n, elims, owner, 1, nt, ne, nothing
        )[0] == -2
    # so is an owner the int16 nodes cannot hold, even on a machine that
    # has that node
    wide = np.full(m * n, 2**15, np.int32)
    assert _raw_build(
        lib, 1, m, n, elims, wide, 2**15 + 1, ntasks, nedges,
        arrays(ntasks, nedges),
    )[0] == -2
    # an elimination outside the shape is refused by both passes
    for shape in [(m - 1, n), (m, n - 1)]:
        small = np.zeros(shape[0] * shape[1], np.int32)
        assert _raw_build(lib, 0, *shape, elims, small, 1, 0, 0, nothing)[0] == -2


@needs_native
def test_prepass_sizes_the_arrays_exactly():
    layout, machine = BlockCyclic2D(2, 2), Machine(nodes=4, cores_per_node=2)
    for seed in range(12):
        m, n = 3 + seed, 1 + seed % 5
        elims = EliminationArray.of(random_elimination_list(m, n, seed=seed))
        native = _build_native(elims, m, n, layout, machine, 16)
        _assert_same_graph(
            native, _reference_graph(elims, m, n, layout, machine, 16)
        )
        for field in _ARRAY_FIELDS:  # sized exactly, not slices of more
            assert getattr(native, field).base is None, field


def test_duration_tables_are_equal_but_never_shared():
    machine = Machine(nodes=4, cores_per_node=2)
    first, second = duration_table(machine, 16), duration_table(machine, 16)
    assert first is not second and not np.shares_memory(first, second)
    assert first.dtype == np.float64 and first.shape == (6,)
    assert first.tolist() == [machine.task_seconds(k, 16) for k in KernelKind]
    first.flags.writeable = False  # what the graph cache does to an entry
    second[0] = 0.0
    assert first[0] != 0.0


@needs_native
def test_two_threads_plan_equal_graphs_on_cold_tables():
    """The planner's two calls hold no lock and the daemon runs two workers:
    with the trees' pairs tables unbuilt, both threads must come back with
    the graph a single thread builds."""
    from repro.trees.factory import _REGISTRY

    layout, machine = BlockCyclic2D(3, 2), Machine(nodes=6, cores_per_node=2)
    questions = [
        (m, n, HQRConfig(p=3, q=2, a=a, low_tree=low, high_tree=high, domino=dom))
        for (m, n), a in zip([(31, 5), (18, 18), (47, 3), (26, 9)], [1, 2, 3, 5])
        for low, high, dom in [
            ("greedy", "fibonacci", True), ("binary", "flat", False),
        ]
    ]

    def plan_all(out):
        for m, n, cfg in questions:
            elims = hqr_elimination_list(m, n, cfg)
            out.append(
                (elims, compiled_from_eliminations(elims, m, n, layout, machine, 16))
            )

    for tree in _REGISTRY.values():
        tree.__init__()  # forget pairs and tables: a cold process
    results = [[], []]
    threads = [threading.Thread(target=plan_all, args=(out,)) for out in results]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results[0]) == len(results[1]) == len(questions)
    for (m, n, cfg), (elims_a, cg_a), (elims_b, cg_b) in zip(questions, *results):
        assert elims_a == elims_b
        _assert_same_graph(cg_a, cg_b)
        _assert_same_graph(
            cg_a, _reference_graph(elims_a, m, n, layout, machine, 16)
        )


def test_list_that_does_not_fit_the_shape_is_rejected():
    elims = hqr_elimination_list(8, 3, HQRConfig(p=2))
    layout, machine = SingleNode(), Machine(nodes=1)
    for m, n in [(7, 3), (8, 2)]:
        with pytest.raises(ValueError, match="does not fit"):
            compiled_from_eliminations(elims, m, n, layout, machine, 16)


def test_bytes_per_task():
    """8 bytes a task, 4 an edge, one extra offset and the six-float
    duration table, each array at its pinned dtype: a later change cannot
    widen the layout unnoticed."""
    layout, machine = BlockCyclic2D(3, 2), Machine(nodes=6, cores_per_node=2)
    for m, n in [(1, 1), (5, 5), (14, 4), (6, 9)]:
        elims = hqr_elimination_list(m, n, HQRConfig(p=3, q=2, a=2))
        graph = TaskGraph.from_eliminations(elims, m, n)
        for cg in (
            compiled_from_eliminations(elims, m, n, layout, machine, 16),
            compile_graph(graph, layout, machine, 16),
        ):
            ntasks, nedges = cg.ntasks, int(cg.succ_ptr[-1])
            assert ntasks == len(graph.tasks)
            assert nedges == len(cg.pred_idx) == sum(map(len, graph.predecessors))
            arrays = {
                name: value for name, value in vars(cg).items()
                if isinstance(value, np.ndarray)
            }
            assert [a.dtype for a in arrays.values()] == [
                np.int8, np.uint8, np.int16, np.int32, np.int32, np.float64
            ]
            assert sum(a.nbytes for a in arrays.values()) == (
                8 * ntasks + 4 * nedges + 4 + 48
            )


def test_array_fields_are_every_array_of_the_dataclass():
    """The cache's freeze list is derived, and complete: a stored graph has
    no writable array left."""
    assert _ARRAY_FIELDS == tuple(DTYPES)
    assert {f.name for f in dataclasses.fields(CompiledGraph)} == set(
        _ARRAY_FIELDS
    ) | {"m", "n"}
    from repro.dag.cache import CompiledGraphCache

    m, n = 6, 3
    cg = compiled_from_eliminations(
        hqr_elimination_list(m, n, HQRConfig(p=2)), m, n,
        SingleNode(), Machine(nodes=1), 16,
    )
    CompiledGraphCache(memory_slots=1).put("k", cg)
    for name, value in vars(cg).items():
        if isinstance(value, np.ndarray):
            assert name in _ARRAY_FIELDS and not value.flags.writeable, name


def test_int32_guard_is_a_typed_error_naming_both_counts():
    top = 2**31 - 1
    _check_int32(top, top)
    _check_int32(0, 0)
    for ntasks, nedges in [(top + 1, 0), (5, top + 1), (2**40, 2**41)]:
        with pytest.raises(OverflowError) as err:
            _check_int32(ntasks, nedges)
        assert f"ntasks={ntasks}" in str(err.value)
        assert f"nedges={nedges}" in str(err.value)


@pytest.mark.parametrize("core", ["auto", "python"])
def test_a_graph_past_the_limit_raises_before_it_is_built(core, monkeypatch, request):
    """The limit lowered to 100 (a real 2**31-edge graph cannot be allocated
    here): every builder raises, and the native path does not fall through
    to the Python builder on the way."""
    if core == "python":
        request.getfixturevalue("no_native")
    monkeypatch.setattr(compiled, "_INT32_MAX", 100)
    m, n = 9, 4
    elims = hqr_elimination_list(m, n, HQRConfig(p=2, a=2))
    layout, machine = SingleNode(), Machine(nodes=1)
    graph = TaskGraph.from_eliminations(elims, m, n)
    assert len(graph.tasks) > 100
    with pytest.raises(OverflowError, match="ntasks="):
        compile_graph(graph, layout, machine, 16)
    if _ccore.get_lib() is not None:
        def unreachable(*args):
            raise AssertionError("fell through to the Python builder")

        monkeypatch.setattr(compiled, "_build_arrays_py", unreachable)
    with pytest.raises(OverflowError, match="nedges="):
        compiled_from_eliminations(elims, m, n, layout, machine, 16)
    # a graph under the limit is untouched by the guard
    small = hqr_elimination_list(3, 2, HQRConfig(p=1))
    assert compiled_from_eliminations(small, 3, 2, layout, machine, 16).ntasks < 100


@needs_native
def test_finish_pass_refuses_more_tasks_than_int32():
    """Checked before ``ptr[ntasks]`` is read, so nothing is touched."""
    lib = _ccore.get_lib()
    arr = np.zeros(2, np.int32)
    addr = arr.ctypes.data
    assert lib.hqr_transpose(2**31, addr, addr, addr, addr) == -1


def _join(width: int) -> TaskGraph:
    """``width`` independent GEQRTs, one a row, and a TTQRT on row 0 that
    waits for all of them: a ``width``-predecessor join."""
    tasks = [Task(t, KernelKind.GEQRT, t, 0) for t in range(width)]
    tasks.append(Task(width, KernelKind.TTQRT, 0, 0, killer=1))
    return TaskGraph(width, 1, tasks, [[]] * width + [list(range(width))])


@pytest.mark.parametrize("core", ["auto", "python"])
def test_a_task_past_255_predecessors_is_refused(core, request):
    """A wait count is uint8: a 255-predecessor join builds, with its
    in-degree stored exactly, and simulates alike on both loops; a
    256-predecessor join raises before a graph exists, never wraps to 0."""
    if core == "python":
        request.getfixturevalue("no_native")
    layout, machine = Cyclic1D(4), Machine(nodes=4, cores_per_node=2)
    widest = compile_graph(_join(255), layout, machine, 16)
    assert widest.wait.dtype == np.uint8 and widest.wait[-1] == 255
    assert np.array_equal(np.diff(widest.pred_ptr), widest.wait)
    traced = run_core(widest, machine, 16, record_trace=True).result
    assert run_core(widest, machine, 16).result == dataclasses.replace(
        traced, trace=None, comm_trace=None, queue_trace=None
    )
    with pytest.raises(OverflowError, match="wait count 256 at entry 256"):
        compile_graph(_join(256), layout, machine, 16)


class FarNode(Layout):
    """A layout that places every tile on node 40,000."""

    def owner(self, i: int, j: int) -> int:
        return 40_000

    def local_row(self, i: int) -> int:
        return i


@pytest.mark.parametrize("core", ["auto", "python"])
def test_a_node_past_int16_is_refused(core, monkeypatch, request):
    """A node is int16: every builder raises for a layout that places a
    task on node 40,000, and the fused build raises before its counting
    pass, without falling through to the Python builder."""
    if core == "python":
        request.getfixturevalue("no_native")
    m, n = 6, 3
    elims = hqr_elimination_list(m, n, HQRConfig(p=2))
    machine = Machine(nodes=2)
    with pytest.raises(OverflowError, match="node 40000 at entry 0"):
        compile_graph(
            TaskGraph.from_eliminations(elims, m, n), FarNode(), machine, 16
        )
    if _ccore.get_lib() is not None:
        def unreachable(*args):
            raise AssertionError("fell through to the Python builder")

        monkeypatch.setattr(compiled, "_build_arrays_py", unreachable)
    with pytest.raises(OverflowError, match="node 40000"):
        compiled_from_eliminations(elims, m, n, FarNode(), machine, 16)
