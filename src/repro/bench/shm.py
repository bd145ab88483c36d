"""Zero-copy :class:`CompiledGraph` transport for pool workers.

The legacy sweep path ships ``(m, n, config)`` tuples and has every
worker rebuild its own copy of each compiled graph.  The batched sweep
builds the graphs once in the parent and publishes their arrays into a
single :class:`multiprocessing.shared_memory.SharedMemory` block; workers
attach numpy *views* over the same physical pages — no pickling, no
per-point deserialization, one copy of the arena per machine.

Lifecycle: the parent owns the segment.  :meth:`GraphArena.publish`
creates it, :meth:`GraphArena.handle` returns a small picklable
descriptor for the pool items, and the parent calls
:meth:`GraphArena.dispose` in a ``finally`` block — so the segment is
unlinked even when a worker crashes mid-sweep (the kernel frees the
pages once the last surviving mapping closes).  Workers call
:func:`attach` which caches one mapping per process and detaches it from
their ``resource_tracker`` so a worker exit never double-unlinks a
segment it does not own.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass

import numpy as np

from repro.dag.compiled import CompiledGraph

__all__ = ["ArenaHandle", "GraphArena", "attach", "dispose_owned", "owned_segments"]

#: CompiledGraph array fields shipped through the arena, in layout order
_ARRAY_FIELDS = (
    "kind", "row", "panel", "col", "killer",
    "pred_ptr", "pred_idx", "succ_ptr", "succ_idx",
    "node", "edge_slot", "dur_table",
)
_ALIGN = 64  # cache-line align every array


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable descriptor of a published arena (name + array table).

    ``graphs`` holds one entry per graph: the scalar fields plus, for
    each array, ``(dtype string, shape, byte offset)`` into the segment.
    """

    name: str
    size: int
    graphs: tuple


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class GraphArena:
    """Parent-side owner of one shared-memory graph arena."""

    def __init__(self, shm, handle: ArenaHandle):
        self._shm = shm
        self._handle = handle
        self._disposed = False
        _live[handle.name] = self

    @classmethod
    def publish(cls, graphs) -> "GraphArena":
        """Copy every graph's arrays into one fresh shared segment."""
        from multiprocessing import shared_memory

        metas = []
        offset = 0
        for cg in graphs:
            table = {}
            for field in _ARRAY_FIELDS:
                arr = np.ascontiguousarray(getattr(cg, field))
                offset = _aligned(offset)
                table[field] = (arr.dtype.str, arr.shape, offset)
                offset += arr.nbytes
            metas.append(
                {"m": cg.m, "n": cg.n, "nslots": cg.nslots, "arrays": table}
            )
        size = max(offset, 1)  # zero-size segments are rejected
        shm = shared_memory.SharedMemory(create=True, size=size)
        try:
            for cg, meta in zip(graphs, metas):
                for field, (dt, shape, off) in meta["arrays"].items():
                    src = np.ascontiguousarray(getattr(cg, field))
                    dst = np.frombuffer(
                        shm.buf, dtype=np.dtype(dt), count=src.size, offset=off
                    )
                    dst[:] = src.ravel()
                    del dst  # release the buffer export before close()
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        handle = ArenaHandle(
            name=shm.name, size=size, graphs=tuple(metas)
        )
        _owned.add(shm.name)
        return cls(shm, handle)

    @property
    def handle(self) -> ArenaHandle:
        return self._handle

    def dispose(self) -> None:
        """Close and unlink the segment (idempotent).

        Workers still holding a mapping keep reading valid pages; the
        kernel frees them when the last mapping goes away — including
        the case where a worker died and never detached.
        """
        if self._disposed:
            return
        self._disposed = True
        _live.pop(self._handle.name, None)
        # the serial fallback attaches to our own segment: evict that
        # cached mapping too, or the parent leaks one mapping per sweep
        cached = _attached.pop(self._handle.name, None)
        if cached is not None:
            shm = cached[0]
            cached = None  # drop the graph views before closing
            try:
                shm.close()
            except BufferError:
                # a view escaped to the caller: keep the object alive (so
                # __del__ does not raise the same error) and retry at exit
                _zombies.append(shm)
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _owned.discard(self._handle.name)

    def __enter__(self) -> "GraphArena":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()


# ------------------------------------------------------------------ #
# worker side
# ------------------------------------------------------------------ #
_attached: dict[str, tuple] = {}
_owned: set[str] = set()  # segments created by *this* process
#: undisposed arenas owned by this process, for shutdown sweeps
_live: dict[str, "GraphArena"] = {}


def owned_segments() -> tuple[str, ...]:
    """Names of shared segments this process created and has not freed."""
    return tuple(sorted(_owned))


def dispose_owned() -> int:
    """Dispose every arena this process still owns; returns the count.

    The graceful-shutdown path of the serving daemon (and any other
    long-lived host) calls this so a SIGTERM mid-sweep cannot leak
    ``/dev/shm`` segments — a normally completed sweep already disposed
    its arena, making this a no-op.
    """
    arenas = list(_live.values())
    for arena in arenas:
        arena.dispose()
    return len(arenas)
#: mappings whose close() hit a BufferError (a view escaped): kept alive
#: so SharedMemory.__del__ stays quiet, retried once more at exit
_zombies: list = []
_atexit_armed = False


def _untrack(shm) -> None:
    """Detach a worker-side mapping from its resource tracker.

    The parent owns the segment; without this, every attaching worker
    registers it too and the *first* worker to exit unlinks it under the
    others (and spews KeyError warnings at interpreter shutdown).
    """
    try:  # pragma: no cover - tracker internals differ across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def attach(handle: ArenaHandle) -> list[CompiledGraph]:
    """Reconstruct the graphs as views over the shared segment.

    One mapping per process, cached for the worker's lifetime (views
    into it are handed to every sweep point); closed at interpreter
    exit.  Safe to call in the parent process too — the serial fallback
    path attaches to its own segment.
    """
    cached = _attached.get(handle.name)
    if cached is None:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=handle.name)
        if handle.name not in _owned:
            # only the creating process may stay registered: otherwise the
            # first worker to exit unlinks the segment under everyone else
            _untrack(shm)
        graphs = []
        for meta in handle.graphs:
            fields = {}
            for field, (dt, shape, off) in meta["arrays"].items():
                dtype = np.dtype(dt)
                count = int(np.prod(shape, dtype=np.int64))
                arr = np.frombuffer(
                    shm.buf, dtype=dtype, count=count, offset=off
                ).reshape(shape)
                fields[field] = arr
            graphs.append(
                CompiledGraph(
                    m=meta["m"], n=meta["n"], nslots=meta["nslots"], **fields
                )
            )
        cached = (shm, graphs)
        _attached[handle.name] = cached
        global _atexit_armed
        if not _atexit_armed:
            _atexit_armed = True
            atexit.register(_detach_all)
    return cached[1]


def _detach_all() -> None:  # pragma: no cover - interpreter teardown
    import gc

    shms = [cached[0] for cached in _attached.values()] + _zombies
    # the cache holds the only internal references to the graph views;
    # dropping them (and collecting any cycles) releases the buffer
    # exports so close() can unmap
    _attached.clear()
    _zombies.clear()
    gc.collect()
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            # a numpy view escaped into user code: park the mapping for
            # process teardown rather than poking SharedMemory internals
            _zombies.append(shm)
