"""Structure-of-arrays task graph for the compiled simulation pipeline.

:class:`CompiledGraph` flattens a kernel DAG into numpy arrays — int8 kind
codes, uint8 wait counts, int16 node placement, CSR successor adjacency
with int32 offsets and a 6-entry per-kernel-kind duration table — so the
event-loop core (:mod:`repro.runtime.core`) touches only flat arrays
and scalar ints.  It holds only what the loops read, each at the narrowest
type that holds it, 8 bytes a task and 4 an edge; a task's tiles follow
from the elimination list (:func:`task_coordinates`), its predecessor lists
from its successor lists (:attr:`CompiledGraph.pred_idx`).
Every engine runs this one graph: the event loops, the numeric executors
(:mod:`repro.runtime.executor`) and the message-passing engine
(:mod:`repro.distributed.engine`).  It is built straight from an
elimination list, in program order: per elimination, the killer's GEQRT
and its UNMQR row on first use (and the victim's, for a TT kill), then
the kill and its trailing updates; dependencies follow each tile's access
order plus the reflector edges.  The verifier's object graph
(:mod:`repro.verify.reference`) builds the same graph the slow way.
With the native core the elimination arrays go to a C counting pre-pass and
then one C write pass that emits tasks and edges, places each task from a
per-tile owner table and transposes the predecessor lists into the
successor CSR in O(E); without a compiler the pure-Python builder and the
numpy ``_succ_csr`` produce the same arrays bit for bit.
Compiled graphs are cacheable — see :mod:`repro.dag.cache`.

Kind codes follow the :class:`~repro.kernels.weights.KernelKind`
declaration order: GEQRT=0, UNMQR=1, TSQRT=2, TSMQR=3, TTQRT=4, TTMQR=5.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import _ccore
from repro.kernels.weights import KernelKind
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D, Layout, SingleNode
from repro.trees.base import Elimination, EliminationArray

if TYPE_CHECKING:  # the runtime package imports this module's graph
    from repro.runtime.machine import Machine

#: kernel kinds in code order (index == code)
KIND_ORDER: tuple[KernelKind, ...] = tuple(KernelKind)
KIND_CODE: dict[KernelKind, int] = {k: i for i, k in enumerate(KIND_ORDER)}


@lru_cache(maxsize=64)
def _kind_seconds(machine: Machine, b: int) -> tuple[float, ...]:
    return tuple(machine.task_seconds(k, b) for k in KIND_ORDER)


def duration_table(machine: Machine, b: int) -> np.ndarray:
    """Per-kernel-kind execution seconds — 6 entries instead of ``ntasks``
    calls to ``machine.task_seconds``.  The six floats are computed once
    per ``(machine, b)``; every call returns an array of its own, so a
    graph frozen by the cache shares no memory with the next one."""
    return np.array(_kind_seconds(machine, b))


@dataclass
class CompiledGraph:
    """Flat-array form of a kernel DAG, bound to a layout and machine.

    ``succ_ptr``/``succ_idx`` is CSR adjacency (successor lists
    ascending); ``wait`` is each task's in-degree,
    and :attr:`pred_ptr` / :attr:`pred_idx` derive the predecessor lists.

    Every builder emits exactly these dtypes and raises ``OverflowError``
    for what they cannot hold: past ``2**31 - 1`` edges, 255 predecessors
    on a task (a tiled-QR kernel has at most 3) or node 32767.  The event
    loops convert any other dtype, by value.  Task coordinates are not
    stored: :func:`task_coordinates`.
    """

    m: int
    n: int
    kind: np.ndarray  # int8[ntasks]
    wait: np.ndarray  # uint8[ntasks] — in-degree
    node: np.ndarray  # int16[ntasks] — placement under the layout
    succ_ptr: np.ndarray  # int32[ntasks+1]
    succ_idx: np.ndarray  # int32[nedges]
    dur_table: np.ndarray  # float64[6] seconds per kernel kind

    @property
    def pred_ptr(self) -> np.ndarray:
        """Offsets of the predecessor lists: the wait counts' prefix sum."""
        return np.insert(np.cumsum(self.wait, dtype=np.int32), 0, 0)

    @property
    def pred_idx(self) -> np.ndarray:
        """Predecessor lists aligned with ``pred_ptr``, each ascending —
        the successor CSR transposed, on every access (the fault path's
        recovery cone reads them; no fault-free loop does)."""
        return _transpose(self.succ_ptr, self.succ_idx)[1]

    @property
    def ntasks(self) -> int:
        return len(self.kind)

    def __len__(self) -> int:
        return len(self.kind)

    @property
    def pred_counts(self) -> np.ndarray:
        """In-degree of each task, widened to int32 (``wait`` is uint8)."""
        return self.wait.astype(np.int32)


# --------------------------------------------------------------------- #
# placement
# --------------------------------------------------------------------- #
def placement_array(
    layout: Layout, row: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Vectorized placement: the node owning each tile ``(row, c)``.

    A task runs on the owner of its tile: its victim row in the trailing
    column for update kernels, in the panel otherwise.
    Known layouts are computed with array arithmetic; unknown subclasses
    fall back to the layout's scalar ``owner``.
    """
    if isinstance(layout, BlockCyclic2D):
        out = (row % layout.p) * layout.q + (c % layout.q)
    elif isinstance(layout, Cyclic1D):
        out = (row // layout.block) % layout.p
    elif isinstance(layout, Block1D):
        out = np.minimum(row // layout.chunk, layout.p - 1)
    elif isinstance(layout, SingleNode):
        out = np.zeros(len(row), dtype=np.int32)
    else:
        owner = layout.owner
        out = np.fromiter(
            (owner(int(i), int(j)) for i, j in zip(row, c)), np.int32, len(row)
        )
    return np.ascontiguousarray(out, dtype=np.int32)


def tile_owners(layout: Layout, m: int, n: int) -> np.ndarray:
    """The node of every tile by the layout's own rule, row-major: m*n
    entries, not ntasks — what the native builder places tasks from."""
    rows = np.repeat(np.arange(m, dtype=np.int32), n)
    cols = np.tile(np.arange(n, dtype=np.int32), m)
    return placement_array(layout, rows, cols)


# --------------------------------------------------------------------- #
# CSR helpers
# --------------------------------------------------------------------- #
_INT32_MAX, _INT16_MAX = 2**31 - 1, 2**15 - 1


def _check_int32(ntasks: int, nedges: int) -> None:
    """Refuse, before allocating, a graph int32 offsets cannot index."""
    if ntasks > _INT32_MAX or nedges > _INT32_MAX:
        raise OverflowError(
            f"graph too large for a CompiledGraph: ntasks={ntasks}, "
            f"nedges={nedges}, both limited to {_INT32_MAX} (int32 offsets)"
        )


def _narrow(values: np.ndarray, dtype, what: str) -> np.ndarray:
    """``values`` as ``dtype``, or ``OverflowError`` naming one it cannot hold."""
    info = np.iinfo(dtype)
    bad = np.flatnonzero((values < info.min) | (values > info.max))
    if len(bad):
        raise OverflowError(
            f"{what} {values[bad[0]]} at entry {bad[0]} exceeds {info.dtype}"
        )
    return values.astype(dtype)


def _out_of_range(ntasks: int) -> ValueError:
    return ValueError(f"CSR index outside [0, {ntasks})")


def _succ_csr(
    ptr: np.ndarray, idx: np.ndarray, ntasks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Transpose a CSR over ``ntasks`` rows — predecessor lists into
    successor lists, or back — every output list ascending."""
    if len(idx) and not (0 <= idx.min() and idx.max() < ntasks):
        raise _out_of_range(ntasks)
    counts = np.diff(ptr)
    row = np.repeat(np.arange(ntasks, dtype=np.int32), counts)
    # a stable sort by index keeps rows ascending per index
    order = np.argsort(idx, kind="stable")
    out_idx = np.ascontiguousarray(row[order], dtype=np.int32)
    out_counts = np.bincount(idx, minlength=ntasks)
    out_ptr = np.zeros(ntasks + 1, dtype=np.int32)
    np.cumsum(out_counts, out=out_ptr[1:])
    return out_ptr, out_idx


def _transpose(ptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_succ_csr`` as one native O(E) counting sort, or numpy without a
    native core; either refuses an index outside ``[0, ntasks)`` with
    ``ValueError``."""
    ntasks = len(ptr) - 1
    if ptr[ntasks] != len(idx):
        raise ValueError(f"CSR offsets end at {ptr[ntasks]}, not {len(idx)}")
    lib = _ccore.get_lib()
    if lib is None:
        return _succ_csr(ptr, idx, ntasks)
    ptr = np.ascontiguousarray(ptr, np.int32)
    idx = np.ascontiguousarray(idx, np.int32)
    out_ptr = np.empty(ntasks + 1, np.int32)
    out_idx = np.empty(len(idx), np.int32)
    if lib.hqr_transpose(
        ntasks, ptr.ctypes.data, idx.ctypes.data,
        out_ptr.ctypes.data, out_idx.ctypes.data,
    ) < 0:
        raise _out_of_range(ntasks)
    return out_ptr, out_idx


def _finish(
    m: int, n: int, kind: np.ndarray, node: np.ndarray,
    pred_ptr: np.ndarray, pred_idx: np.ndarray, machine: Machine, b: int,
) -> CompiledGraph:
    """The graph of built predecessor lists: their counts and successor
    CSR are kept, the lists themselves are not."""
    _check_int32(len(kind), len(pred_idx))
    wait = _narrow(np.diff(pred_ptr), np.uint8, "wait count")
    node = _narrow(node, np.int16, "node")
    succ_ptr, succ_idx = _transpose(pred_ptr, pred_idx)
    return CompiledGraph(
        m=m, n=n, kind=kind, wait=wait, node=node, succ_ptr=succ_ptr,
        succ_idx=succ_idx, dur_table=duration_table(machine, b),
    )


# --------------------------------------------------------------------- #
# build from an elimination list
# --------------------------------------------------------------------- #
def _build_native(
    elims: EliminationArray, m: int, n: int, layout: Layout,
    machine: Machine, b: int,
) -> CompiledGraph | None:
    """The whole graph in two native calls, or ``None`` (no native core,
    or a refusal: an owner outside the machine, a count the write pass
    does not reproduce) for the Python builder; a graph past the int32
    limit or an owner past int16 raises, before anything is allocated."""
    lib = _ccore.get_lib()
    if lib is None:
        return None
    owner = tile_owners(layout, m, n)
    if owner.max() > _INT16_MAX:
        _narrow(owner, np.int16, "node")  # raises, naming the node
    counted = ctypes.c_int64()
    shape_and_elims = (
        m, n, len(elims), elims.panel.ctypes.data, elims.victim.ctypes.data,
        elims.killer.ctypes.data, elims.ts.ctypes.data,
    )
    # counting pre-pass (mode 0): sizes every array exactly
    nedges = lib.hqr_build_dag(
        0, *shape_and_elims, None, 0, 0, 0, *[None] * 5, ctypes.byref(counted),
        None, None, None,
    )
    if nedges < 0:
        return None
    ntasks = counted.value
    _check_int32(ntasks, nedges)
    # CompiledGraph's arrays, in the order the C signature lists them
    arrays = {
        name: np.empty(size, dtype)
        for name, size, dtype in (
            ("kind", ntasks, np.int8),
            ("wait", ntasks, np.uint8),
            ("node", ntasks, np.int16),
            ("succ_ptr", ntasks + 1, np.int32),
            ("succ_idx", nedges, np.int32),
        )
    }
    if lib.hqr_build_dag(
        1, *shape_and_elims, owner.ctypes.data, machine.nodes, ntasks, nedges,
        *[arr.ctypes.data for arr in arrays.values()], ctypes.byref(counted),
        None, None, None,
    ) < 0:
        return None
    return CompiledGraph(m=m, n=n, dur_table=duration_table(machine, b), **arrays)


def _build_arrays_py(elims: Sequence[Elimination], m: int, n: int) -> tuple:
    """Pure-Python array builder — the native write pass's emission
    order, appending plain ints.  Returns ``(kind, row, panel, col,
    killer, pred_ptr, pred_idx)``: the one place coordinates are written."""
    kind_l, row_l, panel_l, col_l, killer_l = [], [], [], [], []
    pred_ptr_l, pred_idx_l = [0], []
    last_writer = [-1] * (m * n)
    triangled = bytearray(m * n)

    kind_append = kind_l.append
    row_append = row_l.append
    panel_append = panel_l.append
    col_append = col_l.append
    killer_append = killer_l.append
    ptr_append = pred_ptr_l.append
    idx_append = pred_idx_l.append

    def emit(kc: int, row: int, panel: int, killer: int = -1) -> int:
        tid = len(kind_l)
        ndeps = 0
        c = panel
        if killer >= 0:
            idx = killer * n + c
            w = last_writer[idx]
            if w >= 0:
                idx_append(w)
                ndeps = 1
            last_writer[idx] = tid
        idx = row * n + c
        w = last_writer[idx]
        if w >= 0 and (ndeps == 0 or w != pred_idx_l[-1]):
            idx_append(w)
        last_writer[idx] = tid
        kind_append(kc)
        row_append(row)
        panel_append(panel)
        col_append(-1)
        killer_append(killer)
        ptr_append(len(pred_idx_l))
        return tid

    def triangularize(row: int, panel: int) -> None:
        idx = row * n + panel
        if triangled[idx]:
            return
        triangled[idx] = 1
        fact = emit(0, row, panel)  # GEQRT
        base = row * n
        for col in range(panel + 1, n):
            tid = len(kind_l)
            w = last_writer[base + col]
            idx_append(fact)
            if w >= 0:
                idx_append(w)
            last_writer[base + col] = tid
            kind_append(1)  # UNMQR
            row_append(row)
            panel_append(panel)
            col_append(col)
            killer_append(-1)
            ptr_append(len(pred_idx_l))

    elims = EliminationArray.of(elims)
    for victim, killer, panel, ts in zip(
        elims.victim.tolist(), elims.killer.tolist(),
        elims.panel.tolist(), elims.ts.tolist(),
    ):
        triangularize(killer, panel)
        if ts:
            kill, update = 2, 3  # TSQRT, TSMQR
        else:
            triangularize(victim, panel)
            kill, update = 4, 5  # TTQRT, TTMQR
        kid = emit(kill, victim, panel, killer=killer)
        base_k = killer * n
        base_v = victim * n
        for col in range(panel + 1, n):
            tid = len(kind_l)
            idx_append(kid)
            w = last_writer[base_k + col]
            if w >= 0:
                idx_append(w)
            last_writer[base_k + col] = tid
            w = last_writer[base_v + col]
            if w >= 0:
                idx_append(w)
            last_writer[base_v + col] = tid
            kind_append(update)
            row_append(victim)
            panel_append(panel)
            col_append(col)
            killer_append(killer)
            ptr_append(len(pred_idx_l))

    if m <= n:
        triangularize(m - 1, m - 1)
    return (
        np.array(kind_l, np.int8),
        np.array(row_l, np.int32),
        np.array(panel_l, np.int32),
        np.array(col_l, np.int32),
        np.array(killer_l, np.int32),
        np.array(pred_ptr_l, np.int32),
        np.array(pred_idx_l, np.int32),
    )


def task_coordinates(
    elims: Sequence[Elimination], m: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(row, panel, col, killer)`` of every task, int32, in task order
    (``row`` the victim or target row, ``col`` the trailing column, -1 for
    factorization kernels, ``killer`` -1 for GEQRT / UNMQR).  No event loop
    reads them, so a :class:`CompiledGraph` does not store them:
    the elimination list determines them, re-derived here on demand."""
    return _build_arrays_py(elims, m, n)[1:5]


def compiled_from_eliminations(
    elims: Sequence[Elimination],
    m: int,
    n: int,
    layout: Layout,
    machine: Machine,
    b: int,
) -> CompiledGraph:
    """Expand an elimination list straight into a :class:`CompiledGraph`.

    An
    :class:`~repro.trees.base.EliminationArray` is consumed as is (any other
    sequence is converted once); its arrays feed the native builder when
    available, the pure-Python builder and finish otherwise.
    """
    elims = EliminationArray.of(elims)
    if len(elims) and not (
        0 <= elims.panel.min()
        and elims.panel.max() < n
        and max(elims.victim.max(), elims.killer.max()) < m
    ):
        raise ValueError(f"elimination list does not fit {m} x {n} tiles")
    built = _build_native(elims, m, n, layout, machine, b)
    if built is None:
        kind, row, panel, col, _, pred_ptr, pred_idx = _build_arrays_py(
            elims, m, n
        )
        node = placement_array(layout, row, np.where(col < 0, panel, col))
        built = _finish(m, n, kind, node, pred_ptr, pred_idx, machine, b)
    return built
