"""The native counting pre-pass, builder and finish pass against the
pure-Python builder and the numpy ``_succ_csr`` / ``_edge_slots``: every
``CompiledGraph`` field bit for bit."""

import numpy as np
import pytest

from repro import _ccore
from repro.dag.cache import _ARRAY_FIELDS
from repro.dag.compiled import (
    _build_arrays_native,
    _build_arrays_py,
    _edge_slots,
    _finish_native,
    _succ_csr,
    compile_graph,
    compiled_from_eliminations,
    count_tasks,
    placement_array,
)
from repro.dag.graph import TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.runtime.machine import Machine
from repro.tiles.layout import Layout, SingleNode
from repro.trees.base import EliminationArray
from repro.trees.random_tree import random_elimination_list
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


def _assert_same_graph(got, want):
    assert (got.m, got.n, got.nslots) == (want.m, want.n, want.nslots)
    assert type(got.nslots) is int
    for field in _ARRAY_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert np.array_equal(a, b), field


@needs_native
def test_native_graph_equals_python_core_graph(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    built = [
        (args, compiled_from_eliminations(
            hqr_elimination_list(args[0], args[1], args[2]),
            args[0], args[1], *args[3:],
        ))
        for args in _cases()
    ]
    monkeypatch.setenv("REPRO_SIM_CORE", "python")
    assert _ccore.get_lib() is None
    for (m, n, cfg, layout, machine, b), native in built:
        elims = hqr_elimination_list(m, n, cfg)
        fallback = compiled_from_eliminations(elims, m, n, layout, machine, b)
        _assert_same_graph(native, fallback)
        # ... and the TaskGraph route lands on the same arrays
        graph = TaskGraph.from_eliminations(elims, m, n)
        _assert_same_graph(native, compile_graph(graph, layout, machine, b))


@needs_native
def test_finish_pass_equals_numpy_finish():
    for m, n, cfg, layout, machine, b in _cases():
        elims = hqr_elimination_list(m, n, cfg)
        kind, row, panel, col, _, pred_ptr, pred_idx = _build_arrays_py(elims, m, n)
        node = placement_array(layout, row, panel, col)
        succ_ptr, succ_idx = _succ_csr(pred_ptr, pred_idx, len(kind))
        edge_slot, nslots = _edge_slots(node, succ_ptr, succ_idx, machine.nodes)
        got = _finish_native(pred_ptr, pred_idx, node, machine.nodes)
        for a, b_ in zip(got, (succ_ptr, succ_idx, edge_slot, nslots)):
            assert np.array_equal(a, b_)
        for a, b_ in zip(got[:3], (succ_ptr, succ_idx, edge_slot)):
            assert a.dtype == b_.dtype


@needs_native
def test_one_node_machine_has_no_slots():
    m, n, cfg = 9, 4, HQRConfig(p=2, a=2)
    cg = compiled_from_eliminations(
        hqr_elimination_list(m, n, cfg), m, n, SingleNode(), Machine(nodes=1), 16
    )
    assert cg.nslots == 0 and (cg.edge_slot == -1).all()
    assert len(cg.edge_slot) == len(cg.succ_idx) == len(cg.pred_idx) > 0


@needs_native
def test_finish_pass_refuses_out_of_range_nodes():
    elims = hqr_elimination_list(6, 3, HQRConfig(p=2))
    kind, row, panel, col, _, pred_ptr, pred_idx = _build_arrays_py(elims, 6, 3)
    node = np.full(len(kind), 4, dtype=np.int32)
    assert _finish_native(pred_ptr, pred_idx, node, 4) is None
    assert _finish_native(pred_ptr, pred_idx, node - 5, 4) is None


@needs_native
def test_prepass_sizes_the_arrays_exactly():
    for seed in range(12):
        m, n = 3 + seed, 1 + seed % 5
        elims = EliminationArray.of(random_elimination_list(m, n, seed=seed))
        native = _build_arrays_native(elims, m, n)
        python = _build_arrays_py(elims, m, n)
        for a, b in zip(native, python):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert native[6].base is None  # pred_idx: sized exactly, not a slice


def test_count_tasks_matches_the_builders():
    shapes = [(1, 1), (1, 4), (2, 1), (5, 5), (3, 7), (7, 3), (12, 4)]
    for m, n in shapes:
        for cfg in (HQRConfig(p=2, a=2), HQRConfig(p=3, a=1, domino=False)):
            elims = hqr_elimination_list(m, n, cfg)
            want = len(TaskGraph.from_eliminations(elims, m, n).tasks)
            assert count_tasks(elims, m, n) == want
            assert count_tasks(list(elims), m, n) == want
    for seed in range(8):
        elims = random_elimination_list(7, 5, seed=seed)
        want = len(TaskGraph.from_eliminations(elims, 7, 5).tasks)
        assert count_tasks(elims, 7, 5) == want


def test_list_that_does_not_fit_the_shape_is_rejected():
    elims = hqr_elimination_list(8, 3, HQRConfig(p=2))
    layout, machine = SingleNode(), Machine(nodes=1)
    for m, n in [(7, 3), (8, 2)]:
        with pytest.raises(ValueError, match="does not fit"):
            compiled_from_eliminations(elims, m, n, layout, machine, 16)
