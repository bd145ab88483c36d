"""Memoization of compiled task graphs.

Building a :class:`~repro.dag.compiled.CompiledGraph` is deterministic in
``(m, n, b, HQRConfig, Layout, Machine)`` — the elimination list is a pure
function of the config, and placement/durations are pure functions of the
layout and machine.  This module caches compiled graphs under a SHA-256
fingerprint of those inputs: an in-memory LRU for the common
sweep-over-one-config case, backed by an ``.npz`` store under the repro
cache directory so repeated paper-scale runs skip DAG construction
entirely.

Disk entries embed the fingerprint and a format version; anything stale —
version bump, truncated file, fingerprint mismatch (hash collision in the
file name space) — is rejected and rebuilt.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable
from zipfile import BadZipFile

import numpy as np

from repro._ccore import cache_root
from repro.dag.compiled import CompiledGraph
from repro.obs.events import active as _obs_active
from repro.hqr.config import HQRConfig
from repro.runtime.machine import Machine
from repro.tiles.layout import Layout

__all__ = [
    "CACHE_VERSION",
    "CompiledGraphCache",
    "default_cache",
    "fingerprint",
]

#: bump when the CompiledGraph array layout or builder semantics change
CACHE_VERSION = 1

_ARRAY_FIELDS = (
    "kind",
    "row",
    "panel",
    "col",
    "killer",
    "pred_ptr",
    "pred_idx",
    "succ_ptr",
    "succ_idx",
    "node",
    "edge_slot",
    "dur_table",
)


def _canonical(value, path: str = "payload"):
    """Reduce ``value`` to JSON-stable primitives, or raise ``TypeError``.

    Fingerprints must be equal across processes for equal inputs, so only
    values with process-independent serializations are accepted.  The old
    ``json.dumps(..., default=repr)`` escape hatch silently produced a
    *different* digest per process for any object whose repr embeds a
    memory address (``<... at 0x7f...>``) — the disk cache then never hit.
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
    if isinstance(value, np.generic):
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
    """
    payload = {
        "version": CACHE_VERSION,
        "m": m,
        "n": n,
        "b": b,
        "config": _canonical(config, "config"),
        "layout": {
            "class": type(layout).__name__,
            "params": _canonical(dict(vars(layout)), "layout"),
        },
        "machine": _canonical(machine, "machine"),
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _mmap_enabled() -> bool:
    """Memory-mapped loads are on by default; ``REPRO_CACHE_MMAP=0`` opts
    out (e.g. filesystems where mapped pages behave badly)."""
    return os.environ.get("REPRO_CACHE_MMAP", "1") != "0"


def _mmap_load(path: Path, key: str) -> CompiledGraph | None:
    """Load a cache entry as read-only views over a file mapping.

    ``np.savez`` stores members uncompressed (``ZIP_STORED``), so every
    array's bytes sit contiguously inside the archive — one ``mmap`` of
    the file yields zero-copy arrays backed by the page cache, which the
    OS shares physically across every process loading the same entry
    (the pool workers of one sweep).  Returns ``None`` for anything this
    fast path cannot handle; the caller falls back to ``np.load``.
    """
    import mmap as _mmaplib
    import zipfile

    try:
        fh = open(path, "rb")
    except OSError:
        return None
    mm = None
    arrays: dict = {}
    handed_off = False
    try:
        try:
            mm = _mmaplib.mmap(fh.fileno(), 0, access=_mmaplib.ACCESS_READ)
        except (ValueError, OSError):
            return None  # empty/truncated file or no-mmap filesystem
        with zipfile.ZipFile(fh) as zf:
            members = {}
            for name in (
                "fingerprint", "cache_version", "m", "n", "nslots",
                *_ARRAY_FIELDS,
            ):
                info = zf.getinfo(name + ".npy")
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                members[name] = info
            # small scalars: cheap regular reads
            def scalar(name):
                with zf.open(members[name]) as f:
                    return np.lib.format.read_array(f)

            if (
                str(scalar("fingerprint")) != key
                or int(scalar("cache_version")) != CACHE_VERSION
            ):
                return None
            for field in _ARRAY_FIELDS:
                info = members[field]
                # the central directory's offset points at the local
                # header; its name/extra lengths decide where data starts
                fh.seek(info.header_offset + 26)
                name_len = int.from_bytes(fh.read(2), "little")
                extra_len = int.from_bytes(fh.read(2), "little")
                data_off = info.header_offset + 30 + name_len + extra_len
                fh.seek(data_off)
                version = np.lib.format.read_magic(fh)
                if version == (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(fh)
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(fh)
                    )
                else:
                    return None
                if fortran or dtype.hasobject:
                    return None
                count = int(np.prod(shape, dtype=np.int64))
                arrays[field] = np.frombuffer(
                    mm, dtype=dtype, count=count, offset=fh.tell()
                ).reshape(shape)
            cg = CompiledGraph(
                m=int(scalar("m")),
                n=int(scalar("n")),
                nslots=int(scalar("nslots")),
                **arrays,
            )
            handed_off = True
            return cg
    except (OSError, KeyError, ValueError, BadZipFile):
        return None
    finally:
        if mm is not None and not handed_off:
            # bail-out: drop any views already taken so the mapping can
            # be released now instead of at garbage collection
            arrays.clear()
            try:
                mm.close()
            except BufferError:  # pragma: no cover - view escaped
                pass
        fh.close()  # the mapping (held by the arrays) survives the fd


def _default_memory_slots() -> int:
    """Memory-cache capacity: ``REPRO_CACHE_SLOTS`` or 128 entries.

    The default comfortably holds a full Figure-6 sweep (72 graphs,
    ~110 MB of arrays) so the batched dispatch right after a per-point
    run packs RAM-resident arrays instead of re-faulting memory-mapped
    pages; mmap-backed entries cost page-cache-shared memory only.
    """
    env = os.environ.get("REPRO_CACHE_SLOTS")
    if not env:
        return 128
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_CACHE_SLOTS must be an integer, got {env!r}"
        ) from None


class CompiledGraphCache:
    """Two-level (memory + disk) cache of compiled graphs.

    ``get``/``put`` take the fingerprint key; ``get_or_build`` wraps the
    usual lookup-else-build-else-store dance.  Disk persistence is atomic
    (tmp file + ``os.replace``, so a concurrent reader sees either the
    old entry or the complete new one, never a torn write) and
    failure-tolerant: any I/O or format problem silently degrades to a
    rebuild.

    Safe for concurrent readers and writers: the memory LRU is guarded
    by an ``RLock`` (the parallel daemon workers of :mod:`repro.serve`
    share one process-wide instance), and ``get_or_build`` single-flights
    concurrent builds of the same key so a thundering herd on a cold
    entry builds the graph once instead of once per thread.  Operation
    counters (:meth:`stats`) feed the serving cache-hit-ratio SLO.
    """

    def __init__(self, root: Path | None = None, memory_slots: int | None = None):
        self.root = Path(root) if root is not None else cache_root() / "graphs"
        if memory_slots is None:
            memory_slots = _default_memory_slots()
        self.memory_slots = memory_slots
        self._memory: OrderedDict[str, CompiledGraph] = OrderedDict()
        self._lock = threading.RLock()
        self._building: dict[str, threading.Lock] = {}
        self._stats = {
            "hit_memory": 0,
            "hit_disk": 0,
            "miss": 0,
            "store": 0,
            "evict": 0,
        }

    # -- memory ------------------------------------------------------- #
    def _remember(self, key: str, cg: CompiledGraph) -> None:
        with self._lock:
            mem = self._memory
            mem[key] = cg
            mem.move_to_end(key)
            while len(mem) > self.memory_slots:
                mem.popitem(last=False)
                self._stats["evict"] += 1

    # -- disk --------------------------------------------------------- #
    def _path(self, key: str) -> Path:
        return self.root / f"cg_{key[:32]}.npz"

    def _load_disk(self, key: str) -> CompiledGraph | None:
        path = self._path(key)
        if not path.exists():
            return None
        if _mmap_enabled():
            cg = _mmap_load(path, key)
            if cg is not None:
                return cg
            # fall through: compressed/legacy entry, or mmap unsupported
        try:
            with np.load(path) as data:
                if (
                    str(data["fingerprint"]) != key
                    or int(data["cache_version"]) != CACHE_VERSION
                ):
                    return None  # stale or colliding entry: rebuild
                arrays = {f: data[f] for f in _ARRAY_FIELDS}
                return CompiledGraph(
                    m=int(data["m"]),
                    n=int(data["n"]),
                    nslots=int(data["nslots"]),
                    **arrays,
                )
        except (OSError, KeyError, ValueError, BadZipFile):
            return None

    def _store_disk(self, key: str, cg: CompiledGraph) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".npz", dir=self.root)
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(
                        fh,
                        fingerprint=key,
                        cache_version=CACHE_VERSION,
                        m=cg.m,
                        n=cg.n,
                        nslots=cg.nslots,
                        **{f: getattr(cg, f) for f in _ARRAY_FIELDS},
                    )
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            pass  # read-only cache dir etc. — memory cache still works

    # -- public ------------------------------------------------------- #
    def _lookup(self, key: str, count: bool = True) -> CompiledGraph | None:
        rec = _obs_active()
        with self._lock:
            cg = self._memory.get(key)
            if cg is not None:
                self._memory.move_to_end(key)
                if count:
                    self._stats["hit_memory"] += 1
        if cg is not None:
            if count and rec is not None:
                rec.cache_event("hit-memory", key[:16])
            return cg
        cg = self._load_disk(key)
        if cg is not None:
            self._remember(key, cg)
            if count:
                with self._lock:
                    self._stats["hit_disk"] += 1
                if rec is not None:
                    rec.cache_event("hit-disk", key[:16])
        elif count:
            with self._lock:
                self._stats["miss"] += 1
            if rec is not None:
                rec.cache_event("miss", key[:16])
        return cg

    def get(self, key: str) -> CompiledGraph | None:
        return self._lookup(key)

    def contains(self, key: str) -> bool:
        """Cheap presence probe: memory hit or a disk entry on file.

        Does *not* load (or validate) the disk entry — callers planning
        work around warm entries (the batched sweep's cold scan, the
        incremental planner) only need existence; a stale entry is
        caught by the eventual :meth:`get`, which rebuilds.
        """
        with self._lock:
            if key in self._memory:
                return True
        return self._path(key).exists()

    def put(self, key: str, cg: CompiledGraph) -> None:
        self._remember(key, cg)
        self._store_disk(key, cg)
        with self._lock:
            self._stats["store"] += 1
        rec = _obs_active()
        if rec is not None:
            rec.cache_event("store", key[:16])

    def get_or_build(
        self, key: str, builder: Callable[[], CompiledGraph]
    ) -> CompiledGraph:
        cg = self.get(key)
        if cg is not None:
            return cg
        with self._lock:
            gate = self._building.setdefault(key, threading.Lock())
        try:
            with gate:
                # losers of the race find the winner's entry here — probed
                # without counting, so one logical miss stays one miss
                cg = self._lookup(key, count=False)
                if cg is None:
                    cg = builder()
                    self.put(key, cg)
        finally:
            # also when the builder raises: a leaked gate would outlive
            # the failed key for the life of the process
            with self._lock:
                self._building.pop(key, None)
        return cg

    def stats(self) -> dict[str, int]:
        """Operation counters since construction (hit_memory, hit_disk,
        miss, store, evict) — the measured source of the daemon's
        cache-hit-ratio SLO."""
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
        with self._lock:
            self._memory.clear()


_default: CompiledGraphCache | None = None


def default_cache() -> CompiledGraphCache:
    """Process-wide cache instance (respects ``REPRO_CACHE_DIR``)."""
    global _default
    if _default is None:
        _default = CompiledGraphCache()
    return _default
