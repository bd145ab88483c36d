"""Structure-of-arrays task graph for the compiled simulation pipeline.

:class:`CompiledGraph` flattens a kernel DAG into flat typed arrays — int8
kind codes, uint8 wait counts, int16 node placement, CSR successor
adjacency with int32 offsets and a 6-entry per-kernel-kind duration table,
each a read-only ``memoryview`` over a ``bytearray`` the C core fills
(:func:`repro._ccore.typed`) — so the event-loop core
(:mod:`repro.runtime.core`) touches only flat arrays and scalar ints.  It
holds only what the loops read, each at the narrowest type that holds it,
8 bytes a task and 4 an edge; a task's tiles follow
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
per-tile owner table (:func:`tile_owners`, memoised) and transposes the
predecessor lists into the successor CSR in O(E), importing no numpy;
without a compiler the pure-Python builder and the numpy ``_succ_csr``
produce the same arrays bit for bit.
Compiled graphs are cacheable — see :mod:`repro.dag.cache`.

Kind codes follow the :class:`~repro.kernels.weights.KernelKind`
declaration order: GEQRT=0, UNMQR=1, TSQRT=2, TSMQR=3, TTQRT=4, TTMQR=5.
"""

from __future__ import annotations

import ctypes
import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from repro import _ccore
from repro._ccore import address, typed, zeros
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


def duration_table(machine: Machine, b: int) -> memoryview:
    """Per-kernel-kind execution seconds — 6 entries instead of ``ntasks``
    calls to ``machine.task_seconds``.  The six floats are computed once
    per ``(machine, b)``; every call returns an array of its own, so no
    two graphs share memory."""
    return typed("d", _kind_seconds(machine, b))


@dataclass
class CompiledGraph:
    """Flat-array form of a kernel DAG, bound to a layout and machine.

    ``succ_ptr``/``succ_idx`` is CSR adjacency (successor lists
    ascending); ``wait`` is each task's in-degree,
    and :attr:`pred_ptr` / :attr:`pred_idx` derive the predecessor lists.

    Every builder emits exactly these types — read-only typed
    ``memoryview``s, so a write raises — and raises ``OverflowError`` for
    what they cannot hold: past ``2**31 - 1`` edges, 255 predecessors on a
    task (a tiled-QR kernel has at most 3) or node 32767.  The event loops
    convert any other array type, by value.  Numpy code reads a field with
    ``np.asarray``, which copies nothing.  Task coordinates are not
    stored: :func:`task_coordinates`.
    """

    m: int
    n: int
    kind: memoryview  # int8[ntasks] ("b")
    wait: memoryview  # uint8[ntasks] ("B") — in-degree
    node: memoryview  # int16[ntasks] ("h") — placement under the layout
    succ_ptr: memoryview  # int32[ntasks+1] ("i")
    succ_idx: memoryview  # int32[nedges] ("i")
    dur_table: memoryview  # float64[6] ("d") seconds per kernel kind

    @property
    def pred_ptr(self) -> memoryview:
        """Offsets of the predecessor lists: the wait counts' prefix sum."""
        return typed("i", accumulate(self.wait.tolist(), initial=0))

    @property
    def pred_idx(self) -> memoryview:
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
    def pred_counts(self) -> memoryview:
        """In-degree of each task, widened to int32 (``wait`` is uint8)."""
        return typed("i", self.wait.tolist())


# --------------------------------------------------------------------- #
# placement
# --------------------------------------------------------------------- #
def placement_array(layout: Layout, row, c):
    """Vectorized placement: the node owning each tile ``(row, c)``, an
    int32 ndarray (numpy twins and tools only; the native builder reads
    :func:`tile_owners`).

    A task runs on the owner of its tile: its victim row in the trailing
    column for update kernels, in the panel otherwise.
    Known layouts are computed with array arithmetic; unknown subclasses
    fall back to the layout's scalar ``owner``.
    """
    import numpy as np

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


def _owner_row(layout: Layout, i: int, n: int) -> list[int]:
    """The owners of tile row ``i``, by :func:`placement_array`'s rule."""
    if isinstance(layout, BlockCyclic2D):
        first = (i % layout.p) * layout.q
        return [first + j % layout.q for j in range(n)]
    if isinstance(layout, Cyclic1D):
        return [(i // layout.block) % layout.p] * n
    if isinstance(layout, Block1D):
        return [min(i // layout.chunk, layout.p - 1)] * n
    if isinstance(layout, SingleNode):
        return [0] * n
    return [layout.owner(i, j) for j in range(n)]


#: (layout class, layout parameters, m, n) -> (owner table, index of its
#: first node past int16 or -1), oldest first
_OWNERS: dict[tuple, tuple[memoryview, int]] = {}
_OWNERS_LOCK = threading.Lock()
_OWNERS_SLOTS = 128


def _owners(layout: Layout, m: int, n: int) -> tuple[memoryview, int]:
    """:func:`tile_owners` and the index of its first node past int16, or
    -1: computed once per ``(layout, m, n)``, a layout keyed by its class
    and parameters as a fingerprint keys it (one with an unhashable
    parameter is computed on every call)."""
    try:
        key = (type(layout), tuple(sorted(vars(layout).items())), m, n)
        hash(key)
    except TypeError:
        key = None
    with _OWNERS_LOCK:
        found = _OWNERS.get(key)
    if found is None:
        values = [v for i in range(m) for v in _owner_row(layout, i, n)]
        bad = -1
        if max(values, default=0) > _INT16_MAX:
            bad = next(i for i, v in enumerate(values) if v > _INT16_MAX)
        found = (typed("i", values), bad)
        if key is not None:
            with _OWNERS_LOCK:
                _OWNERS[key] = found
                if len(_OWNERS) > _OWNERS_SLOTS:
                    del _OWNERS[next(iter(_OWNERS))]
    return found


def tile_owners(layout: Layout, m: int, n: int) -> memoryview:
    """The node of every tile by the layout's own rule, row-major: m*n
    int32 entries, not ntasks — what the native builder places tasks from.
    Memoised per ``(layout, m, n)`` (ROADMAP item 14(b)); read-only, so
    every graph and bound of that shape shares it."""
    return _owners(layout, m, n)[0]


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


def _narrow(values, dtype, what: str):
    """``values`` as ``dtype``, or ``OverflowError`` naming one it cannot hold."""
    import numpy as np

    info = np.iinfo(dtype)
    bad = np.flatnonzero((values < info.min) | (values > info.max))
    if len(bad):
        raise OverflowError(
            f"{what} {values[bad[0]]} at entry {bad[0]} exceeds {info.dtype}"
        )
    return values.astype(dtype)


def _out_of_range(ntasks: int) -> ValueError:
    return ValueError(f"CSR index outside [0, {ntasks})")


def _succ_csr(ptr, idx, ntasks: int):
    """Transpose a CSR over ``ntasks`` rows — predecessor lists into
    successor lists, or back — every output list ascending (numpy: the
    twin of ``hqr_transpose``)."""
    import numpy as np

    ptr, idx = np.asarray(ptr), np.asarray(idx)
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


def _transpose(ptr, idx) -> tuple[memoryview, memoryview]:
    """``_succ_csr`` as one native O(E) counting sort, or numpy without a
    native core, as two int32 views; either refuses an index outside
    ``[0, ntasks)`` with ``ValueError``."""
    ntasks = len(ptr) - 1
    if ptr[ntasks] != len(idx):
        raise ValueError(f"CSR offsets end at {ptr[ntasks]}, not {len(idx)}")
    lib = _ccore.get_lib()
    if lib is None:
        return tuple(typed("i", arr) for arr in _succ_csr(ptr, idx, ntasks))
    ptr, idx = typed("i", ptr), typed("i", idx)
    out = zeros("i", ntasks + 1), zeros("i", len(idx))
    if lib.hqr_transpose(ntasks, *map(address, (ptr, idx, *out))) < 0:
        raise _out_of_range(ntasks)
    return out


def _finish(
    m: int, n: int, kind, node, pred_ptr, pred_idx, machine: Machine, b: int,
) -> CompiledGraph:
    """The graph of built predecessor lists (ndarrays of the Python
    builders): their counts and successor CSR are kept, the lists
    themselves are not."""
    import numpy as np

    _check_int32(len(kind), len(pred_idx))
    wait = _narrow(np.diff(pred_ptr), np.uint8, "wait count")
    node = _narrow(node, np.int16, "node")
    succ_ptr, succ_idx = _transpose(pred_ptr, pred_idx)
    return CompiledGraph(
        m=m, n=n, kind=typed("b", kind), wait=typed("B", wait),
        node=typed("h", node), succ_ptr=succ_ptr, succ_idx=succ_idx,
        dur_table=duration_table(machine, b),
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
    owner, bad = _owners(layout, m, n)
    if bad >= 0:
        raise OverflowError(f"node {owner[bad]} at entry {bad} exceeds int16")
    counted = ctypes.c_int64()
    shape_and_elims = (
        m, n, len(elims),
        *map(address, (elims.panel, elims.victim, elims.killer, elims.ts)),
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
        name: zeros(fmt, size)
        for name, size, fmt in (
            ("kind", ntasks, "b"),
            ("wait", ntasks, "B"),
            ("node", ntasks, "h"),
            ("succ_ptr", ntasks + 1, "i"),
            ("succ_idx", nedges, "i"),
        )
    }
    if lib.hqr_build_dag(
        1, *shape_and_elims, address(owner), machine.nodes, ntasks, nedges,
        *map(address, arrays.values()), ctypes.byref(counted),
        None, None, None,
    ) < 0:
        return None
    return CompiledGraph(m=m, n=n, dur_table=duration_table(machine, b), **arrays)


def _build_arrays_py(elims: Sequence[Elimination], m: int, n: int) -> tuple:
    """Pure-Python array builder — the native write pass's emission
    order, appending plain ints.  Returns ``(kind, row, panel, col,
    killer, pred_ptr, pred_idx)`` as ndarrays: the one place coordinates
    are written."""
    import numpy as np

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


def task_coordinates(elims: Sequence[Elimination], m: int, n: int) -> tuple:
    """``(row, panel, col, killer)`` of every task, int32 ndarrays, in task order
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
    available (fit check included, no numpy), the pure-Python builder and
    finish otherwise.
    """
    elims = EliminationArray.of(elims)
    if elims._first_bad(m, n) >= 0:
        raise ValueError(f"elimination list does not fit {m} x {n} tiles")
    built = _build_native(elims, m, n, layout, machine, b)
    if built is None:
        import numpy as np

        kind, row, panel, col, _, pred_ptr, pred_idx = _build_arrays_py(
            elims, m, n
        )
        node = placement_array(layout, row, np.where(col < 0, panel, col))
        built = _finish(m, n, kind, node, pred_ptr, pred_idx, machine, b)
    return built
