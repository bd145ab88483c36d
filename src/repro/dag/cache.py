"""Memoization of compiled task graphs.

Building a :class:`~repro.dag.compiled.CompiledGraph` is deterministic in
``(m, n, b, HQRConfig, Layout, Machine)`` — the elimination list is a pure
function of the config, and placement/durations are pure functions of the
layout and machine.  This module caches compiled graphs, in memory only,
under a SHA-256 fingerprint of those inputs: a bounded LRU whose entries
hold the built graphs themselves, frozen read-only, so every later stage
(dispatch, the C event loop) reads the arrays where the builder left them.
An entry can also carry the fault-free simulation result of its graph
(:meth:`CompiledGraphCache.answer` / :meth:`~CompiledGraphCache.remember`):
a makespan is a pure function of the same inputs, so the planning service
answers a repeated question from the entry instead of re-simulating it;
the entry needs no graph for that (:func:`~repro.bench.runner.answers`
lets it go).  So is the makespan lower bound the tuner reads from an
elimination list: ``CompiledGraphCache.bounds`` keeps it by key, once per
process, with no entry at all.

There is no disk tier: rebuilding a graph costs less than writing it out
(EXPERIMENTS.md, "Zero-copy handoff"), so a new process rebuilds.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import sys
import threading
from collections import OrderedDict
from contextlib import ExitStack, contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable

from repro._ccore import cache_root, sha256_hex
from repro.dag.compiled import CompiledGraph
from repro.hqr.config import HQRConfig
from repro.runtime.machine import Machine
from repro.tiles.layout import Layout

__all__ = [
    "CACHE_VERSION",
    "CompiledGraphCache",
    "default_cache",
    "fingerprint",
]

#: salt of the fingerprint.  An array-layout change does not bump it: with
#: no disk tier (PR 17) no entry outlives the code that built it, and a bump
#: rewrites every key tune wrote into ``samples.jsonl`` / checkpoints (they
#: break best-k ties).  Bump when equal inputs stop meaning an equal graph.
CACHE_VERSION = 1

#: LRU capacity: a Figure-6 sweep's 72 answers (a repeated sweep simulates
#: nothing) or its 72 graphs (≈ 40.5 MiB of arrays) fit
MEMORY_SLOTS = 128

#: every array of a CompiledGraph, derived: none can be stored writable
_ARRAY_FIELDS = tuple(
    f.name for f in dataclasses.fields(CompiledGraph) if f.type == "memoryview"
)


def _canonical(value, path: str = "payload"):
    """Reduce ``value`` to JSON-stable primitives, or raise ``TypeError``.

    Fingerprints must be equal across processes for equal inputs, so only
    values with process-independent serializations are accepted.  The old
    ``json.dumps(..., default=repr)`` escape hatch silently produced a
    *different* digest per process for any object whose repr embeds a
    memory address (``<... at 0x7f...>``) — and the digest is written into
    tune checkpoints and breaks best-k ties, so it must not do that.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return [type(value).__name__, _canonical(value.value, path)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name), f"{path}.{f.name}")
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        out = {}
        for k in sorted(value, key=str):
            if not isinstance(k, (str, int)):
                raise TypeError(
                    f"fingerprint: non-primitive dict key {k!r} at {path}"
                )
            out[str(k)] = _canonical(value[k], f"{path}[{k!r}]")
        return out
    numpy = sys.modules.get("numpy")  # a numpy scalar means numpy is loaded
    if numpy is not None and isinstance(value, numpy.generic):
        return _canonical(value.item(), path)
    raise TypeError(
        f"fingerprint: cannot canonicalize {type(value).__name__} at {path}; "
        "its serialization would not be stable across processes"
    )


def fingerprint(
    m: int,
    n: int,
    config: HQRConfig,
    layout: Layout,
    machine: Machine,
    b: int,
) -> str:
    """Deterministic key over everything a compiled graph depends on.

    Any field change in the config (trees, ``a``, domino, grid), the
    layout (class or parameters), or the machine (rates, network, shape)
    yields a different digest.  Equal inputs produce equal digests in any
    process; inputs carrying fields with no stable serialization (custom
    layout attributes holding arbitrary objects) raise ``TypeError``
    rather than silently defeating the cache.

    A sweep, a tune chain and a served request ask for the same few
    inputs over and over, so the digest is memoised on the inputs'
    hashable form and computed once per distinct input (inputs that
    compare equal, such as ``latency=0`` and ``0.0``, share the digest
    of whichever was seen first).
    """
    args = (
        m, n, b, config, type(layout),
        tuple(sorted(vars(layout).items())), machine,
    )
    try:
        return _digest(*args)
    except TypeError:
        # an unhashable layout attribute cannot be memoised: compute it
        # directly (an unserializable one raises the same error again)
        return _digest.__wrapped__(*args)


@lru_cache(maxsize=4096)
def _digest(m, n, b, config, layout_type, layout_params, machine) -> str:
    payload = {
        "version": CACHE_VERSION,
        "m": m,
        "n": n,
        "b": b,
        "config": _canonical(config, "config"),
        "layout": {
            "class": layout_type.__name__,
            "params": _canonical(dict(layout_params), "layout"),
        },
        "machine": _canonical(machine, "machine"),
    }
    blob = json.dumps(payload, sort_keys=True)
    return sha256_hex(blob.encode())


class CompiledGraphCache:
    """In-memory LRU of compiled graphs and their answers.

    ``get``/``put`` take the fingerprint key; ``get_or_build`` wraps the
    usual lookup-else-build-else-store dance.  A stored graph's arrays
    are read-only (every builder's views are; ``put`` freezes a
    hand-built graph's ndarrays): the C core reads them in place, without
    the GIL, while other threads plan from the same entry, so an in-place
    write by any caller must raise rather than corrupt a neighbour's plan.

    Safe for concurrent readers and writers: the LRU is guarded by an
    ``RLock`` (the parallel daemon workers of :mod:`repro.serve` share
    one process-wide instance), and :meth:`flights` holds one gate per
    key, so a thundering herd on a cold entry builds the graph (and,
    through :func:`~repro.bench.runner.answers`, simulates it) once
    instead of once per thread.  Operation counters (:meth:`stats`) feed
    the serving cache-hit-ratio SLO.

    An entry is ``[graph or None, answer or None]``, one LRU slot either
    way: :meth:`put` and :meth:`remember` each create it when absent and
    otherwise fill their half, keeping the other; eviction and
    :meth:`clear_memory` drop it whole.  ``bounds`` maps a key to its
    makespan lower bound, which needs no entry: it takes no LRU slot,
    outlives eviction and is dropped by :meth:`clear_memory`.
    """

    def __init__(self, root: Path | None = None, memory_slots: int = MEMORY_SLOTS):
        # vestigial: nothing is written here; perf/ reads the attribute
        self.root = Path(root) if root is not None else cache_root() / "graphs"
        self.memory_slots = memory_slots
        self._memory: OrderedDict[str, list] = OrderedDict()
        self._lock = threading.RLock()
        self._building: dict[str, list] = {}
        self.bounds: dict[str, float] = {}
        self._stats = {
            "hit_memory": 0,
            "hit_disk": 0,  # vestigial, always 0: perf/ and metrics read it
            "miss": 0,
            "store": 0,
            "evict": 0,
            "answer_hit": 0,
            "answer_miss": 0,
        }

    def _lookup(self, key: str, count: bool = True) -> CompiledGraph | None:
        with self._lock:
            entry = self._memory.get(key)
            cg = entry[0] if entry is not None else None
            if cg is not None:
                self._memory.move_to_end(key)
            if count:
                self._stats["hit_memory" if cg is not None else "miss"] += 1
        return cg

    def get(self, key: str) -> CompiledGraph | None:
        return self._lookup(key)

    def contains(self, key: str) -> bool:
        """Presence probe (of the entry, graph or not) that neither counts
        nor touches the LRU order."""
        with self._lock:
            return key in self._memory

    def _store(self, key: str, half: int, value) -> None:
        """Set ``entry[half]`` of ``key`` (0 graph, 1 answer); storing a
        graph, or creating the entry (one LRU slot), is one ``store``."""
        with self._lock:
            mem = self._memory
            if half == 1 and key in mem:  # an answer joins its entry
                mem[key][1] = value
                return
            mem.setdefault(key, [None, None])[half] = value
            mem.move_to_end(key)
            while len(mem) > self.memory_slots:
                mem.popitem(last=False)
                self._stats["evict"] += 1
            self._stats["store"] += 1

    def put(self, key: str, cg: CompiledGraph) -> None:
        """Store ``cg`` as the graph of ``key``; an answer already on the
        entry stays."""
        for name in _ARRAY_FIELDS:
            arr = getattr(cg, name)
            if not isinstance(arr, memoryview):
                arr.flags.writeable = False
        self._store(key, 0, cg)

    def answer(self, key: str, count: bool = True):
        """``(resident, result)`` of one locked lookup.

        ``resident`` says whether ``key`` has an entry, with or without
        a graph; ``result`` is what :meth:`remember` stored on it, else
        ``None``.  Finding a result is a use of the entry: it counts as
        ``hit_memory`` (and ``answer_hit``) and touches the LRU order.
        Finding none counts ``answer_miss`` only — the caller goes on to
        :meth:`get`, which counts the graph lookup itself.  With
        ``count=False`` the lookup counts and touches nothing: the
        re-check of a caller that waited at a gate of :meth:`flights`.
        """
        with self._lock:
            entry = self._memory.get(key)
            result = entry[1] if entry is not None else None
            if count and result is not None:
                self._memory.move_to_end(key)
                self._stats["hit_memory"] += 1
                self._stats["answer_hit"] += 1
            elif count:
                self._stats["answer_miss"] += 1
        return entry is not None, result

    def remember(self, key: str, result) -> None:
        """Store ``result`` on the entry of ``key``.  A key with no entry
        gets a graphless one (one LRU slot, one ``store``): an answer
        needs no graph, so its graph need not stay resident to keep it."""
        self._store(key, 1, result)

    @contextmanager
    def flights(self, keys):
        """Hold the single-flight gate of every key in ``keys`` while the
        block runs: a second caller on one of them waits, then finds what
        the first stored.  Gates are taken in sorted key order, so two
        callers holding overlapping sets cannot deadlock; a gate is not
        re-entrant."""
        with self._lock:
            gates = []  # [lock, holders and waiters] per key
            for key in sorted(keys):
                gate = self._building.setdefault(key, [threading.Lock(), 0])
                gate[1] += 1
                gates.append((key, gate))
        try:
            with ExitStack() as held:
                for _, gate in gates:
                    held.enter_context(gate[0])
                yield
        finally:
            # the last user drops the gate, also when the block raises: a
            # leaked gate would outlive the failed key for the life of the
            # process, and one dropped while a caller still waits on it
            # would let the next caller in beside that one
            with self._lock:
                for key, gate in gates:
                    gate[1] -= 1
                    if not gate[1]:
                        del self._building[key]

    def get_or_build(
        self, key: str, builder: Callable[[], CompiledGraph]
    ) -> CompiledGraph:
        cg = self.get(key)
        if cg is not None:
            return cg
        with self.flights([key]):
            # losers of the race find the winner's graph here — probed
            # without counting, so one logical miss stays one miss
            cg = self._lookup(key, count=False)
            if cg is None:
                cg = builder()
                self.put(key, cg)
        return cg

    def stats(self) -> dict[str, int]:
        """Operation counters since construction (hit_memory, hit_disk,
        miss, store, evict, answer_hit, answer_miss) — the measured
        source of the daemon's cache-hit-ratio SLO."""
        with self._lock:
            return dict(self._stats)

    def stats_since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Counter increments since ``snapshot`` (an earlier :meth:`stats`).

        The cache is process-wide, so phase-scoped accounting — the
        :mod:`repro.tune` annealer attributing hits to one search, a
        benchmark isolating its own warm-up — diffs two snapshots rather
        than resetting shared counters under other threads' feet.
        """
        now = self.stats()
        return {k: v - snapshot.get(k, 0) for k, v in now.items()}

    def clear_memory(self) -> None:
        """Drop every entry, graphs, answers and bounds (counters stay);
        the next lookups rebuild, re-bound and re-simulate."""
        with self._lock:
            self._memory.clear()
            self.bounds.clear()


_default: CompiledGraphCache | None = None


def default_cache() -> CompiledGraphCache:
    """Process-wide cache instance."""
    global _default
    if _default is None:
        _default = CompiledGraphCache()
    return _default
