"""Native (C, via ctypes) core for the compiled simulation pipeline.

The hot paths of the reproduction — expanding an elimination list into the
kernel DAG and replaying that DAG through the event-driven cluster
simulator — are pure integer/float loops.  This module carries a small,
dependency-free C translation of both, compiled on first use with the
system C compiler into a shared library cached under the repro cache
directory.  Everything here is optional: when no compiler is available,
:func:`get_lib` returns ``None`` and callers fall back to the pure-Python
array loops in :mod:`repro.runtime.core` and :mod:`repro.dag.compiled`,
which implement exactly the same algorithms.  There is no switch: the
engine is what the process can run.  The arrays the core reads and fills
are the planning chain's own type, read-only typed ``memoryview``s over
``bytearray``s (:func:`typed`, :func:`zeros`, :func:`address`), so the
chain never imports numpy.

Bit-exactness: the C event loops perform the same double-precision
operations in the same order as the reference Python simulators, and every
queue key is distinct (event codes and priority ranks are unique), so pop
order is fully determined by the key total order and any correct priority
queue produces the same schedule as Python's ``heapq``.  The cluster loop
uses that freedom: finish events sit in one sorted ring per kernel kind,
data-arrival events in a 4-ary heap, each key as one 128-bit integer, and
the next event is a branch-free minimum over the seven queue heads.  The
library is built with ``-ffp-contract=off`` (no FMA contraction) to keep
arithmetic IEEE-identical to CPython's.
"""

from __future__ import annotations

import array
import ctypes
import logging
import os
import struct
import sysconfig
import time
from pathlib import Path

__all__ = [
    "address", "cache_root", "get_lib", "native_available", "openmp_available",
    "sha256_hex", "typed", "zeros",
]


def typed(fmt: str, values=()) -> memoryview:
    """``values`` as the array type of every list and graph the core reads
    or writes: a read-only typed ``memoryview`` (``fmt`` a ``struct`` code,
    "b", "B", "h", "i", "q" or "d") over a ``bytearray`` of its own.  Such a
    view is taken as is; a buffer of that item format (``array.array``, an
    ndarray) is copied by bytes, any other sequence converted by value
    (``OverflowError`` for one the format cannot hold)."""
    if isinstance(values, memoryview) and _owned(values) and values.format == fmt:
        return values
    try:
        view = memoryview(values)
    except TypeError:  # a plain sequence
        view = None
    if view is not None and view.ndim != 1:
        raise ValueError(f"expected a 1-D array, got {view.ndim}-D")
    code = view.format.lstrip("@=") if view is not None else None
    if code == fmt or (code == "?" and fmt == "B"):  # a bool is a 0 / 1 byte
        data = bytearray(view.tobytes())
    else:
        data = bytearray(array.array(fmt, values))
    return memoryview(data).cast(fmt).toreadonly()


def zeros(fmt: str, count: int) -> memoryview:
    """:func:`typed` of ``count`` zeros, for a C call to fill through
    :func:`address`."""
    return memoryview(bytearray(count * struct.calcsize(fmt))).cast(fmt).toreadonly()


def _owned(view: memoryview) -> bool:
    """True when ``view`` is read-only and spans a whole ``bytearray``."""
    return (
        view.readonly and isinstance(view.obj, bytearray)
        and view.nbytes == len(view.obj) and view.ndim == 1
    )


def address(view) -> int:
    """The C address of an array's first item, for a ``void *`` argument.

    A :func:`typed` view is read-only, so its address is taken from the
    ``bytearray`` that owns it (which a live view keeps from resizing); an
    empty one gets a spare byte's, never NULL; an ndarray - the numpy
    twins' and tests' arrays - gives its own.
    """
    if isinstance(view, memoryview) and _owned(view):
        if not view.obj:
            return ctypes.addressof(_SPARE)
        return ctypes.addressof(ctypes.c_char.from_buffer(view.obj))
    return view.ctypes.data


#: what an empty array's address points at: C reads no item of it
_SPARE = ctypes.c_char()


def _sha256_constructor():
    """CPython's built-in SHA-256, so planning never maps OpenSSL's
    ``libcrypto``; ``hashlib``'s (the same digest) only where neither exists."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10, 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


#: found once: a failed import searches ``sys.path`` again on every try
_sha256 = _sha256_constructor()


def sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data`` (:func:`_sha256_constructor`)."""
    return _sha256(data).hexdigest()


def cache_root() -> Path:
    """Root directory of what the package writes to disk: the compiled
    native core (``ccore/``) and nothing else.

    ``REPRO_CACHE_DIR`` overrides; the default follows the XDG convention.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base).expanduser() if base else Path.home() / ".cache"
    return root / "repro-hqr"


_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* 1 when this library was compiled with OpenMP support (the build tries
 * -fopenmp first and silently falls back), 0 otherwise. */
int32_t hqr_openmp(void) {
#ifdef _OPENMP
    return 1;
#else
    return 0;
#endif
}

/* ------------------------------------------------------------------ *
 * Event keys, ordered by (time, code): codes are unique per event, so
 * pop order is implementation-independent.  Every queue holds a key as
 * one 128-bit integer of that order, an hkey (time bits sign-folded on
 * top, code below; event times are sums grown from +0.0, never -0.0), so
 * each comparison is one unsigned compare and a minimum compiles to
 * conditional moves; HK_NONE, {+inf, INT64_MAX}, marks an empty slot.
 * Each push and pop refreshes its queue's head slot.
 * ------------------------------------------------------------------ */
typedef unsigned __int128 hkey;
#define HK_NONE (((hkey)0xFFF0000000000000ull << 64) | INT64_MAX)

static inline hkey hk_of(double t, int64_t c) {
    union { double d; uint64_t u; } b = {t};
    b.u ^= (uint64_t)((int64_t)b.u >> 63) | 0x8000000000000000ull;
    return ((hkey)b.u << 64) | (uint64_t)c;
}

static inline double hk_time(hkey h) {
    union { uint64_t u; double d; } b = {(uint64_t)(h >> 64)};
    b.u ^= b.u >> 63 ? 0x8000000000000000ull : ~0ull;
    return b.d;
}

/* 4-ary min-heap, half a binary heap's depth.  The four slots past the
 * last key hold HK_NONE (a push pads one, a pop resets the one it frees),
 * so a sift-down takes the least of four children with conditional moves. */
typedef struct { hkey *k; int64_t len; } evheap;

static void ev_push(evheap *h, hkey x, hkey *head) {
    int64_t i = h->len++;
    h->k[i + 4] = HK_NONE;
    for (int64_t p; i > 0 && h->k[p = (i - 1) >> 2] > x; i = p)
        h->k[i] = h->k[p];
    h->k[i] = x;
    *head = h->k[0];
}

static void ev_pop(evheap *h, hkey *head) {
    hkey *k = h->k;
    int64_t n = --h->len, i = 0, c;
    hkey x = k[n];
    while ((c = 4 * i + 1) < n) {
        int64_t a = k[c + 1] < k[c], b = 2 + (k[c + 3] < k[c + 2]);
        int64_t s = c + (k[c + b] < k[c + a] ? b : a);
        if (k[s] > x)
            break;
        k[i] = k[s];
        i = s;
    }
    k[i] = x;
    k[n] = HK_NONE;  /* after the write: when n is 0, i is too */
    *head = k[0];
}

/* ------------------------------------------------------------------ *
 * Finish ring: a circular buffer of keys kept sorted by backward
 * insertion, so a correct priority queue for any input and O(1) when
 * keys arrive in order.  head and tail count pops and pushes and are
 * reduced modulo the power-of-two capacity (mask + 1) on access.
 * ------------------------------------------------------------------ */
typedef struct { hkey *k; int64_t head, tail; } evring;

static void ring_push(evring *r, int64_t mask, hkey x, hkey *head) {
    int64_t i = r->tail++;
    for (; i > r->head && r->k[(i - 1) & mask] > x; i--)
        r->k[i & mask] = r->k[(i - 1) & mask];
    r->k[i & mask] = x;
    *head = r->k[r->head & mask];
}

static void ring_pop(evring *r, int64_t mask, hkey *head) {
    r->head++;
    *head = r->head == r->tail ? HK_NONE : r->k[r->head & mask];
}

/* ------------------------------------------------------------------ *
 * Ready queue: growable min-heap of int32 priority ranks (all unique).
 * ------------------------------------------------------------------ */
typedef struct {
    int32_t *d;
    int32_t len, cap;
} iheap;

static int ih_push(iheap *h, int32_t v) {
    if (h->len == h->cap) {
        int32_t cap = h->cap ? h->cap * 2 : 64;
        int32_t *d = (int32_t *)realloc(h->d, (size_t)cap * sizeof(int32_t));
        if (!d)
            return -1;
        h->d = d;
        h->cap = cap;
    }
    int32_t i = h->len++;
    h->d[i] = v;
    while (i > 0) {
        int32_t p = (i - 1) >> 1;
        if (h->d[p] < h->d[i])
            break;
        int32_t tmp = h->d[p]; h->d[p] = h->d[i]; h->d[i] = tmp;
        i = p;
    }
    return 0;
}

static int32_t ih_pop(iheap *h) {
    int32_t top = h->d[0];
    h->len--;
    if (h->len > 0) {
        int32_t v = h->d[h->len];
        int32_t i = 0;
        for (;;) {
            int32_t l = 2 * i + 1;
            if (l >= h->len)
                break;
            int32_t s = l, r = l + 1;
            if (r < h->len && h->d[r] < h->d[l])
                s = r;
            if (h->d[s] < v) {
                h->d[i] = h->d[s];
                i = s;
            } else
                break;
        }
        h->d[i] = v;
    }
    return top;
}

/* ------------------------------------------------------------------ *
 * HQR generator (section IV-B): the full panel-major elimination list of
 * an m x n tile matrix on p virtual clusters with TS domains of a local
 * rows.  Mirrors HQRTree._assemble exactly: per panel, levels 0, 1, 2 each
 * over the clusters r = 0 .. p-1 that have a row on or below the diagonal,
 * then level 3 over the top tiles.
 *
 * A tree arrives as its positional pairs table: start[q] is where
 * pairs(q), q - 1 (victim, killer) positions, begins in pos_v / pos_k, or
 * negative when the table does not hold that q; qmax is the last index of
 * start.  a is 64-bit: "one domain per cluster" is spelled a = 10^9.
 *
 * Every write is checked against cap.  Returns the number of eliminations
 * written, or -1 when the table lacks a q some cluster needs or cap is
 * too small; the caller compares the count with the closed form.
 * ------------------------------------------------------------------ */
int64_t hqr_expand(
    int32_t m, int32_t n, int32_t p, int64_t a, int32_t domino,
    int64_t low_qmax, const int64_t *low_start,
    const int32_t *low_v, const int32_t *low_k,
    int64_t high_qmax, const int64_t *high_start,
    const int32_t *high_v, const int32_t *high_k,
    int64_t cap,
    int32_t *e_panel, int32_t *e_victim, int32_t *e_killer, uint8_t *e_ts)
{
    int64_t ne = 0;
    int64_t panels = n < m - 1 ? n : m - 1;
    int64_t nclusters = p < m ? p : m;  /* cluster r >= m has no row at all */

#define ELIM(VICTIM, KILLER, TS)                                              \
    do {                                                                      \
        if (ne >= cap)                                                        \
            return -1;                                                        \
        e_panel[ne] = (int32_t)k;                                             \
        e_victim[ne] = (int32_t)(VICTIM);                                     \
        e_killer[ne] = (int32_t)(KILLER);                                     \
        e_ts[ne] = (TS);                                                      \
        ne++;                                                                 \
    } while (0)

    for (int64_t k = 0; k < panels; k++) {
        for (int level = 0; level < 3; level++) {
            for (int64_t r = 0; r < nclusters; r++) {
                /* local rows: top tile, last row, reduction base */
                int64_t ltop = k > r ? (k - r + p - 1) / p : 0;
                if (ltop * p + r >= m)
                    continue;
                int64_t lmax = (m - 1 - r) / p;
                int64_t base = domino ? (k < lmax ? k : lmax) : ltop;
                if (level == 0) {
                    /* TS: a domain's first participant kills the others;
                     * domains start at base and at the multiples of a */
                    int64_t leader = base, next = (base / a + 1) * a;
                    for (int64_t loc = base + 1; loc <= lmax; loc++) {
                        if (loc == next) {
                            leader = loc;
                            next += a;
                        } else
                            ELIM(loc * p + r, leader * p + r, 1);
                    }
                } else if (level == 1) {
                    /* low tree over the leaders: position 0 is base, never a
                     * victim (PanelTree.pairs); position j > 0 is (d0 + j) * a */
                    int64_t d0 = base / a, q = 1 + lmax / a - d0;
                    if (q > low_qmax || low_start[q] < 0)
                        return -1;
                    const int32_t *pv = low_v + low_start[q];
                    const int32_t *pk = low_k + low_start[q];
                    for (int64_t i = 0; i < q - 1; i++) {
                        int64_t v = (d0 + pv[i]) * a;
                        int64_t w = pk[i] ? (d0 + pk[i]) * a : base;
                        ELIM(v * p + r, w * p + r, 0);
                    }
                } else {
                    /* domino: the top tile kills (ltop, base] */
                    for (int64_t loc = ltop + 1; loc <= base; loc++)
                        ELIM(loc * p + r, ltop * p + r, 0);
                }
            }
        }
        /* high tree over the top tiles: rows k .. k+q-1 */
        int64_t q = p < m - k ? p : m - k;
        if (q > high_qmax || high_start[q] < 0)
            return -1;
        const int32_t *pv = high_v + high_start[q];
        const int32_t *pk = high_k + high_start[q];
        for (int64_t i = 0; i < q - 1; i++)
            ELIM(k + pv[i], k + pk[i], 0);
    }
#undef ELIM
    return ne;
}

/* ------------------------------------------------------------------ *
 * One pass over an elimination list: the first entry that breaks the
 * Elimination invariants (victim != killer, victim below the panel's
 * diagonal, killer on or below it) or, with m >= 0, does not fit m x n
 * tiles; -1 when none does.  The caller raises the matching error.
 * ------------------------------------------------------------------ */
int64_t hqr_check_elims(
    int64_t count, const int32_t *e_panel, const int32_t *e_victim,
    const int32_t *e_killer, int32_t m, int32_t n)
{
    for (int64_t e = 0; e < count; e++) {
        int32_t p = e_panel[e], v = e_victim[e], k = e_killer[e];
        if (v == k || v <= p || k < p ||
            (m >= 0 && (p < 0 || p >= n || v >= m || k >= m)))
            return e;
    }
    return -1;
}

/* ------------------------------------------------------------------ *
 * Counting-sort transpose of a checked CSR over ntasks rows, O(E): the
 * predecessor lists into successor lists, or back.  On entry out_ptr[0]
 * is 0 and out_ptr[r + 1] is how often r occurs in idx.  A prefix sum
 * turns that into r's first position, which the scatter then advances,
 * as r's cursor, to r's end = (r + 1)'s start; rows are walked in
 * ascending order, so every output list ascends (the order a stable
 * argsort over idx gives).  Row t is idx[ptr[t] .. ptr[t + 1]), or, with
 * ptr == NULL, the next wait[t] entries: the builder needs no offsets.
 * ------------------------------------------------------------------ */
static void finish_successors(
    int64_t ntasks, const int32_t *ptr, const uint8_t *wait,
    const int32_t *idx, int32_t *out_ptr, int32_t *out_idx)
{
    int32_t run = 0;  /* ends at nedges, which the callers bound */
    for (int64_t t = 0; t < ntasks; t++) {
        int32_t count = out_ptr[t + 1];
        out_ptr[t + 1] = run;
        run += count;
    }
    for (int64_t t = 0, e = 0; t < ntasks; t++) {
        int64_t end = ptr ? ptr[t + 1] : e + wait[t];
        for (e = ptr ? ptr[t] : e; e < end; e++)
            out_idx[out_ptr[idx[e] + 1]++] = (int32_t)t;
    }
}

/* ------------------------------------------------------------------ *
 * DAG builder: expand an elimination list into a finished graph.  Mirrors
 * the pure-Python builder in dag/compiled.py exactly (task order,
 * dependency order); the verifier's object graph checks both.
 * Kind codes follow the KernelKind declaration order: GEQRT=0 UNMQR=1
 * TSQRT=2 TSMQR=3 TTQRT=4 TTMQR=5.
 *
 * One emit loop serves three passes.  With mode == 0 it only counts: no
 * output array is touched (all may be NULL), the return value is the
 * number of predecessor edges and the task count lands in *out_ntasks.
 * With mode == 1 it fills the five arrays the caller sized from those
 * two counts (ntasks, nedges), and in the same pass places each task on
 * owner[tile] - the m*n table of the node owning each tile, the victim
 * row's tile in the trailing column for an update kernel, in the panel
 * otherwise - and counts successors per edge written, which is what
 * finish_successors starts from.  The predecessor lists are scratch,
 * allocated and freed here: a graph keeps its wait counts (uint8, at most
 * 3 here), int16 nodes and successor lists, and no offsets or coordinates
 * - no loop reads them.  Returns 0.
 *
 * With mode == 2 it counts and bounds the graph, writing no task array.
 * cost: the six kernel seconds, then lat, bwt within a site and across
 * sites; site_of is NULL on a flat network.  out[1 + i]: node i's work,
 * summed in program order as lower_bound_one sums it.  out[0]: the longest
 * path, (end + lat) + bwt on a cross-node edge, through the subgraph of
 * the factorization kernels and the updates of the column next to their
 * panel, over the builder's own edges - a path of the graph, so never
 * above lower_bound_one's term 1.  Per tile it keeps the last subgraph
 * task that wrote it, that task's end and node: an edge is in the
 * subgraph when that task is still the tile's last writer.
 *
 * Refusals, all -2: an elimination outside m x n, an owner entry outside
 * [0, min(nnodes, INT16_MAX + 1)) in modes 1 and 2, counts above
 * INT32_MAX (the offsets are 32-bit), an in-degree above UINT8_MAX, or a
 * write pass that would produce more tasks or edges than the counts it
 * was given, or ends with fewer - checked before each write, so a
 * disagreement never leaves the arrays.  -1 is allocation failure.
 * ------------------------------------------------------------------ */
#define BUILD_DAG_PARAMS                                                      \
    int32_t m, int32_t n, int64_t nelims, const int32_t *e_panel,             \
    const int32_t *e_victim, const int32_t *e_killer, const uint8_t *e_ts,    \
    const int32_t *owner, int32_t nnodes, int64_t ntasks, int64_t nedges,     \
    int8_t *kind, uint8_t *wait, int16_t *node, int32_t *succ_ptr,            \
    int32_t *succ_idx, int64_t *out_ntasks,                                   \
    const double *cost, const int32_t *site_of, double *out
#define BUILD_DAG_ARGS                                                        \
    m, n, nelims, e_panel, e_victim, e_killer, e_ts, owner, nnodes, ntasks,   \
    nedges, kind, wait, node, succ_ptr, succ_idx, out_ntasks, cost, site_of, out

static inline __attribute__((always_inline)) int64_t emit_dag(
    int32_t mode, BUILD_DAG_PARAMS)
{
    int64_t rc = -1;
    int write = mode == 1, bound = mode == 2;
    int64_t tid = 0;   /* next task id */
    int64_t ne = 0;    /* predecessor edges so far */
    int64_t first = 0; /* ne when the task being emitted began */
    int64_t here = 0;  /* the tile of the task being emitted */
    int32_t home = 0;  /* bound: its node */
    int keep = 0;      /* bound: it is in the subgraph */
    double ready = 0.0, cp = 0.0;  /* bound: its latest input, the path */
    int32_t *pred_idx = NULL;
    struct { double end; int32_t node, by; } *mark = NULL;
    int32_t *last_writer = (int32_t *)malloc((size_t)m * n * sizeof(int32_t));
    uint8_t *triangled = (uint8_t *)calloc((size_t)m * n, 1);
    if (!last_writer || !triangled)
        goto done;
    if (bound) {
        mark = malloc((size_t)m * n * sizeof(*mark));
        if (!mark)
            goto done;
        for (int64_t i = 0; i < (int64_t)m * n; i++)
            mark[i].by = -1;
        memset(out, 0, (size_t)(nnodes + 1) * sizeof(double));
    }
    rc = -2;
    for (int64_t i = 0; i < (int64_t)m * n; i++)
        last_writer[i] = -1;
    if (write || bound)
        for (int64_t i = 0; i < (int64_t)m * n; i++)
            if (owner[i] < 0 || owner[i] >= nnodes || owner[i] > INT16_MAX)
                goto done;
    if (write) {
        if (ntasks > INT32_MAX || nedges > INT32_MAX)
            goto done;
        pred_idx = (int32_t *)malloc((size_t)(nedges > 0 ? nedges : 1) * sizeof(int32_t));
        if (!pred_idx) {
            rc = -1;
            goto done;
        }
        memset(succ_ptr, 0, (size_t)(ntasks + 1) * sizeof(int32_t));
    }

/* a task on tile (ROW, COL) begins: COL is an update's trailing column,
 * else the panel; KEEP says whether the bound's subgraph holds it */
#define BEGIN(ROW, COL, KEEP)                                                 \
    do {                                                                      \
        here = (int64_t)(ROW) * n + (COL);                                    \
        keep = bound && (KEEP);                                               \
        if (bound)                                                            \
            home = owner[here];                                               \
        ready = 0.0;                                                          \
    } while (0)

/* an edge from W, the last writer of tile TILE, to the task begun */
#define DEP(W, TILE)                                                          \
    do {                                                                      \
        if (write) {                                                          \
            if (ne >= nedges)                                                 \
                goto done;                                                    \
            pred_idx[ne] = (W);                                               \
            succ_ptr[(W) + 1]++;                                              \
        } else if (keep && mark[TILE].by == (W)) {                            \
            double at_ = mark[TILE].end;                                      \
            int32_t from_ = mark[TILE].node;                                  \
            if (from_ != home) {                                              \
                int x_ = site_of && site_of[from_] != site_of[home];          \
                at_ = at_ + cost[6 + 2 * x_] + cost[7 + 2 * x_];              \
            }                                                                 \
            ready = at_ > ready ? at_ : ready;                                \
        }                                                                     \
        ne++;                                                                 \
    } while (0)

/* a kept task ending at END_ wrote tile T */
#define MARK(T) (mark[T].end = end_, mark[T].node = home, mark[T].by = (int32_t)tid)

/* the task begun ends; it wrote its own tile and, if OTHER >= 0, that one */
#define TASK(KIND, OTHER)                                                     \
    do {                                                                      \
        if (write) {                                                          \
            if (tid >= ntasks || ne - first > UINT8_MAX)                      \
                goto done;                                                    \
            kind[tid] = (KIND);                                               \
            wait[tid] = (uint8_t)(ne - first);                                \
            node[tid] = (int16_t)owner[here];                                 \
            first = ne;                                                       \
        } else if (bound) {                                                   \
            out[1 + home] += cost[KIND];                                      \
            if (keep) {                                                       \
                double end_ = ready + cost[KIND];                             \
                cp = end_ > cp ? end_ : cp;                                   \
                MARK(here);                                                   \
                if ((OTHER) >= 0)                                             \
                    MARK(OTHER);                                              \
            }                                                                 \
        }                                                                     \
        tid++;                                                                \
    } while (0)

/* factorization kernel on column PANEL: depends on the last writers of
 * its killer tile (if any) and its own tile, listed once if they agree */
#define EMIT(KIND, ROW, PANEL, KILLER)                                        \
    do {                                                                      \
        int32_t first_ = -1;                                                  \
        int64_t kix_ = -1;                                                    \
        BEGIN((ROW), (PANEL), 1);                                             \
        if ((KILLER) >= 0) {                                                  \
            kix_ = (int64_t)(KILLER) * n + (PANEL);                           \
            first_ = last_writer[kix_];                                       \
            if (first_ >= 0)                                                  \
                DEP(first_, kix_);                                            \
            last_writer[kix_] = (int32_t)tid;                                 \
        }                                                                     \
        {                                                                     \
            int32_t w_ = last_writer[here];                                   \
            if (w_ >= 0 && w_ != first_)                                      \
                DEP(w_, here);                                                \
            last_writer[here] = (int32_t)tid;                                 \
        }                                                                     \
        TASK((KIND), kix_);                                                   \
    } while (0)

/* triangularize(row, panel): GEQRT + UNMQR row sweep, if not yet done */
#define TRIANGULARIZE(ROW, PANEL)                                             \
    do {                                                                      \
        int64_t tix_ = (int64_t)(ROW) * n + (PANEL);                          \
        if (!triangled[tix_]) {                                               \
            triangled[tix_] = 1;                                              \
            int32_t fact_ = (int32_t)tid;                                     \
            EMIT(0, (ROW), (PANEL), -1); /* GEQRT */                          \
            for (int32_t col_ = (PANEL) + 1; col_ < n; col_++) {              \
                BEGIN((ROW), col_, col_ == (PANEL) + 1);                      \
                int32_t w_ = last_writer[here];                               \
                DEP(fact_, tix_);                                             \
                if (w_ >= 0)                                                  \
                    DEP(w_, here);                                            \
                last_writer[here] = (int32_t)tid;                             \
                TASK(1, -1); /* UNMQR */                                      \
            }                                                                 \
        }                                                                     \
    } while (0)

    for (int64_t e = 0; e < nelims; e++) {
        int32_t victim = e_victim[e], kil = e_killer[e], pan = e_panel[e];
        int8_t kkill, kupd;
        if (pan < 0 || pan >= n || victim < 0 || victim >= m ||
            kil < 0 || kil >= m)
            goto done;
        TRIANGULARIZE(kil, pan);
        if (e_ts[e]) {
            kkill = 2;  /* TSQRT */
            kupd = 3;   /* TSMQR */
        } else {
            TRIANGULARIZE(victim, pan);
            kkill = 4;  /* TTQRT */
            kupd = 5;   /* TTMQR */
        }
        int32_t kid = (int32_t)tid;
        int64_t vix = (int64_t)victim * n + pan;
        EMIT(kkill, victim, pan, kil);
        for (int32_t c = pan + 1; c < n; c++) {
            BEGIN(victim, c, c == pan + 1);
            DEP(kid, vix);
            int64_t idx_k = (int64_t)kil * n + c;
            int32_t w = last_writer[idx_k];
            if (w >= 0)
                DEP(w, idx_k);
            last_writer[idx_k] = (int32_t)tid;
            w = last_writer[here];
            if (w >= 0)
                DEP(w, here);
            last_writer[here] = (int32_t)tid;
            TASK(kupd, idx_k);
        }
    }

    if (m <= n)
        TRIANGULARIZE(m - 1, m - 1);

#undef TRIANGULARIZE
#undef EMIT
#undef TASK
#undef MARK
#undef DEP
#undef BEGIN

    *out_ntasks = tid;
    if (bound)
        out[0] = cp;
    if (!write) {
        rc = ne;
        goto done;
    }
    if (tid != ntasks || ne != nedges)
        goto done;
    finish_successors(ntasks, NULL, wait, pred_idx, succ_ptr, succ_idx);
    rc = 0;

done:
    free(pred_idx);
    free(mark);
    free(last_writer);
    free(triangled);
    return rc;
}

/* emit_dag compiled once per mode, each copy without the others' branches */
int64_t hqr_build_dag(int32_t mode, BUILD_DAG_PARAMS)
{
    return mode == 1 ? emit_dag(1, BUILD_DAG_ARGS)
        : mode == 2 ? emit_dag(2, BUILD_DAG_ARGS) : emit_dag(0, BUILD_DAG_ARGS);
}
#undef BUILD_DAG_ARGS
#undef BUILD_DAG_PARAMS

/* ------------------------------------------------------------------ *
 * finish_successors for CSR arrays built elsewhere: the successor lists
 * of the Python builder's predecessor lists, or a graph's predecessor lists
 * derived from its successor lists.  Checks every index, counts, then
 * transposes.  Returns 0, or -1 for an index outside [0, ntasks) or more
 * than INT32_MAX rows (the offsets are 32-bit), before any write.
 * ------------------------------------------------------------------ */
int64_t hqr_transpose(
    int64_t ntasks, const int32_t *ptr, const int32_t *idx,
    int32_t *out_ptr, int32_t *out_idx)
{
    if (ntasks > INT32_MAX)
        return -1;
    int64_t nedges = ptr[ntasks];
    for (int64_t e = 0; e < nedges; e++)
        if (idx[e] < 0 || idx[e] >= ntasks)
            return -1;
    memset(out_ptr, 0, (size_t)(ntasks + 1) * sizeof(int32_t));
    for (int64_t e = 0; e < nedges; e++)
        out_ptr[idx[e] + 1]++;
    finish_successors(ntasks, ptr, NULL, idx, out_ptr, out_idx);
    return 0;
}

/* ------------------------------------------------------------------ *
 * Cluster event loop.  Mirrors the Python loop of runtime/core.py exactly.
 * Event codes: task id t for "t finished", ntasks + t for "data arrival
 * completed t's inputs".  Returns 0 (ok), 1 (a count not 0 at the end: a
 * wait count that is not its task's in-degree), 2 (a kind outside [0, 6)
 * or a node outside [0, nnodes)), -1 (alloc fail).
 *
 * Reads the graph's own arrays in place: wait counts come from wait,
 * a task's duration is dur_table[kind[t]], and rank == NULL (with
 * task_of_rank == NULL) means program order, i.e. identity ranks.
 *
 * A tile goes once to each remote node that consumes it (section V): at
 * producer t's finish an edge to s is local iff node_of[s] == node_of[t];
 * the first cross-node edge to dest sends the message, computes its
 * arrival into sent_at[dest] and sets sent_by[dest] = t, and t's later
 * edges to dest reuse that arrival.  A task finishes once and sends all
 * its messages in that one walk, so the per-node table needs no reset.
 *
 * The event queue has two tiers under one (time, code) order: a finish
 * event goes into the ring of its kernel kind (a task starts at the
 * current event time and a kind has one duration, so each ring receives
 * its keys almost in order), a data-arrival event (non-monotone under
 * serialized channels) into a 4-ary heap, both as hkeys.  head[] holds
 * the seven queue heads, six rings then the heap, so the next event is a
 * branch-free minimum over one table.  Keys are unique, so this pops in
 * the order of the reference loop's single heapq.
 * ------------------------------------------------------------------ */
static int32_t hqr_simulate_cluster(
    int64_t ntasks, int32_t nnodes, int32_t cores_per_node,
    const double *dur_table, const int8_t *kind, const int16_t *node_of,
    const uint8_t *wait,
    const int32_t *succ_ptr, const int32_t *succ_idx,
    const int32_t *rank, const int32_t *task_of_rank,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of,
    double *out_makespan, double *out_busy, int64_t *out_messages)
{
    int32_t rc = -1;
    int32_t *waiting = NULL, *free_cores = NULL;
    int64_t *sent_by = NULL;
    double *data_ready = NULL, *chan_free = NULL, *sent_at = NULL;
    iheap *ready = NULL;
    evheap ev = {NULL, 0};
    evring fin[6];
    hkey head[7] = {HK_NONE, HK_NONE, HK_NONE, HK_NONE, HK_NONE, HK_NONE,
                    HK_NONE};
    hkey *ring_keys = NULL;
    /* a finish event holds a core until it pops: at most cores in flight */
    int64_t ring_cap = 1;
    while (ring_cap < ntasks && ring_cap < (int64_t)nnodes * cores_per_node)
        ring_cap <<= 1;
    int64_t mask = ring_cap - 1;

    waiting = (int32_t *)malloc((size_t)ntasks * sizeof(int32_t));
    data_ready = (double *)calloc((size_t)ntasks, sizeof(double));
    free_cores = (int32_t *)malloc((size_t)nnodes * sizeof(int32_t));
    chan_free = (double *)calloc((size_t)nnodes, sizeof(double));
    sent_at = (double *)malloc((size_t)nnodes * sizeof(double));
    sent_by = (int64_t *)malloc((size_t)nnodes * sizeof(int64_t));
    ready = (iheap *)calloc((size_t)nnodes, sizeof(iheap));
    /* at most one arrival event per task, and four HK_NONE slots */
    ev.k = (hkey *)malloc((size_t)(ntasks + 4) * sizeof(hkey));
    ring_keys = (hkey *)malloc((size_t)(6 * ring_cap) * sizeof(hkey));
    if (!waiting || !data_ready || !free_cores || !chan_free || !sent_at ||
        !sent_by || !ready || !ev.k || !ring_keys)
        goto done;

    for (int64_t t = 0; t < ntasks; t++) {
        if (kind[t] < 0 || kind[t] >= 6 || node_of[t] < 0 || node_of[t] >= nnodes) {
            rc = 2;
            goto done;
        }
        waiting[t] = wait[t];
    }
    for (int k = 0; k < 6; k++) {
        fin[k].k = ring_keys + k * ring_cap;
        fin[k].head = fin[k].tail = 0;
    }
    ev.k[0] = ev.k[1] = ev.k[2] = ev.k[3] = HK_NONE;
    for (int32_t i = 0; i < nnodes; i++) {
        free_cores[i] = cores_per_node;
        sent_by[i] = -1;
    }

    double busy = 0.0, finish_time = 0.0;
    int64_t messages = 0;

#define RANK(T) (rank ? rank[T] : (int32_t)(T))

#define LAUNCH(T, START)                                                      \
    do {                                                                      \
        double dur_ = dur_table[kind[T]];                                     \
        double end_ = (START) + dur_;                                         \
        busy += dur_;                                                         \
        if (end_ > finish_time)                                               \
            finish_time = end_;                                               \
        ring_push(&fin[kind[T]], mask, hk_of(end_, T), &head[kind[T]]);       \
    } while (0)

/* T's inputs are all at its node by NOW (a root at 0, a last input landed
 * by the finish event, an arrival event at its own time), so T starts at
 * NOW or, queued, at the later finish that pops it.  A task enters a ready
 * heap once and leaves it only by that pop, so no entry is ever stale. */
#define TRY_START(T, NOW)                                                     \
    do {                                                                      \
        int32_t node_ = node_of[T];                                           \
        if (free_cores[node_] > 0) {                                          \
            free_cores[node_]--;                                              \
            LAUNCH(T, NOW);                                                   \
        } else if (ih_push(&ready[node_], RANK(T)) < 0)                       \
            goto done;                                                        \
    } while (0)

    for (int64_t t = 0; t < ntasks; t++)
        if (waiting[t] == 0)
            TRY_START(t, 0.0);

    for (;;) {
        /* src: the ring holding the minimum key, 6 for the heap */
        hkey top = head[0];
        int src = 0;
        for (int k = 1; k < 7; k++) {
            int lt = head[k] < top;
            top = lt ? head[k] : top;
            src = lt ? k : src;
        }
        if (top == HK_NONE)
            break;
        double now = hk_time(top);
        if (src < 6) {
            ring_pop(&fin[src], mask, &head[src]);
            /* task finished: free the core or start the next ready task */
            int64_t t = (int64_t)top;
            int32_t node = node_of[t];
            iheap *h = &ready[node];
            if (h->len > 0) {
                int32_t nxt = ih_pop(h);
                if (task_of_rank)
                    nxt = task_of_rank[nxt];
                LAUNCH(nxt, now);
            } else
                free_cores[node]++;
            /* propagate data to successors */
            for (int64_t i = succ_ptr[t]; i < succ_ptr[t + 1]; i++) {
                int32_t s = succ_idx[i];
                int32_t dest = node_of[s];
                double arrival;
                if (dest == node)
                    arrival = now;
                else if (sent_by[dest] == t)
                    arrival = sent_at[dest];
                else {
                    double lat, bwt;
                    if (hierarchical && site_of[node] != site_of[dest]) {
                        lat = lat_inter;
                        bwt = bwt_inter;
                    } else {
                        lat = lat_intra;
                        bwt = bwt_intra;
                    }
                    if (serialized) {
                        double depart = now;
                        if (chan_free[node] > depart)
                            depart = chan_free[node];
                        if (chan_free[dest] > depart)
                            depart = chan_free[dest];
                        chan_free[node] = depart + bwt;
                        chan_free[dest] = depart + bwt;
                        arrival = depart + lat + bwt;
                    } else
                        arrival = now + lat + bwt;
                    sent_by[dest] = t;
                    sent_at[dest] = arrival;
                    messages++;
                }
                if (arrival > data_ready[s])
                    data_ready[s] = arrival;
                if (--waiting[s] == 0) {
                    double avail = data_ready[s];
                    if (avail <= now)
                        TRY_START(s, now);
                    else
                        ev_push(&ev, hk_of(avail, ntasks + s), &head[6]);
                }
            }
        } else {
            ev_pop(&ev, &head[6]);
            int64_t t = (int64_t)top - ntasks;
            TRY_START(t, now);
        }
    }

#undef TRY_START
#undef LAUNCH
#undef RANK

    rc = 0;
    for (int64_t t = 0; t < ntasks; t++)
        if (waiting[t] != 0) {
            rc = 1;
            break;
        }
    *out_makespan = finish_time;
    *out_busy = busy;
    *out_messages = messages;

done:
    if (ready)
        for (int32_t i = 0; i < nnodes; i++)
            free(ready[i].d);
    free(ready);
    free(waiting);
    free(data_ready);
    free(free_cores);
    free(chan_free);
    free(sent_at);
    free(sent_by);
    free(ev.k);
    free(ring_keys);
    return rc;
}

/* The batched entries' loop over points p, on nthreads OpenMP threads
 * (<= 0: the default) from two points on; a point writes only its own
 * outputs, so it is bit-identical to the serial loop.  batch_rc: 0 when
 * every point's out_rc is 0. */
#ifdef _OPENMP
#define FOR_EACH_POINT                                                        \
    int nt_ = nthreads > 0 ? nthreads : omp_get_max_threads();                \
    _Pragma("omp parallel for schedule(dynamic) num_threads(nt_) if(npoints > 1)") \
    for (int64_t p = 0; p < npoints; p++)
#else
#define FOR_EACH_POINT                                                        \
    (void)nthreads;                                                           \
    for (int64_t p = 0; p < npoints; p++)
#endif
static int32_t batch_rc(int64_t npoints, const int32_t *out_rc)
{
    for (int64_t p = 0; p < npoints; p++)
        if (out_rc[p] != 0)
            return 1;
    return 0;
}

/* ------------------------------------------------------------------ *
 * Batched cluster loop: many independent graphs in one call, read in
 * place.  Every per-graph argument is a table of npoints pointers into
 * the caller's own arrays (nothing is packed or copied); ntasks gives
 * each graph's size.  An entry of rank/task_of_rank may be NULL:
 * that graph runs in program order.  An empty graph is skipped.
 * Per-graph rc codes land in out_rc.
 * ------------------------------------------------------------------ */
int32_t hqr_simulate_cluster_batch(
    int64_t npoints, int32_t nthreads,
    const int64_t *ntasks,
    const double *const *dur_table, const int8_t *const *kind,
    const int16_t *const *node_of, const uint8_t *const *wait,
    const int32_t *const *succ_ptr, const int32_t *const *succ_idx,
    const int32_t *const *rank, const int32_t *const *task_of_rank,
    int32_t nnodes, int32_t cores_per_node,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of,
    double *out_makespan, double *out_busy, int64_t *out_messages,
    int32_t *out_rc)
{
    FOR_EACH_POINT {
        if (ntasks[p] == 0) {
            out_makespan[p] = out_busy[p] = 0.0;
            out_messages[p] = 0;
            out_rc[p] = 0;
            continue;
        }
        out_rc[p] = hqr_simulate_cluster(
            ntasks[p], nnodes, cores_per_node,
            dur_table[p], kind[p], node_of[p], wait[p],
            succ_ptr[p], succ_idx[p], rank[p], task_of_rank[p],
            serialized, hierarchical,
            lat_intra, bwt_intra, lat_inter, bwt_inter,
            site_of, out_makespan + p, out_busy + p, out_messages + p);
    }
    return batch_rc(npoints, out_rc);
}

/* ------------------------------------------------------------------ *
 * Lower bound on hqr_simulate_cluster's makespan: one forward pass over
 * the successor CSR in program order, which must be topological (rc 3
 * for an edge that does not point forward, 2 for a kind or node the loop
 * could not index).  out[0 .. 5] of a graph:
 *  0  the bound, the largest of 1 - 3;
 *  1  the critical path with communication: a task ends at its latest
 *     input plus its duration, a cross-node input lands at (end + lat) +
 *     bwt of its link - the loop's own operations on the loop's own
 *     doubles.  Rounding is monotone and the loop starts no task sooner,
 *     so this term never exceeds the makespan, exactly;
 *  2  the busiest node's work over cores_per_node;
 *  3  serialized: the busiest channel, the bwt of every distinct
 *     (producer, destination node) message its node sends or receives;
 *  4  the total work, 5 the critical path without communication, both
 *     summed as the object-graph models sum them.
 * Terms 2 and 3 are sums in an order the loop does not use: scaled by
 * (1 - 2^-30) they stay below the makespan while a graph has fewer than
 * 2^21 tasks plus edges, and are 0 beyond.  out_load: the most messages
 * any node sends or receives.
 * ------------------------------------------------------------------ */
static int32_t lower_bound_one(
    int64_t ntasks, int32_t nnodes, int32_t cores_per_node,
    const double *dur_table, const int8_t *kind, const int16_t *node_of,
    const int32_t *succ_ptr, const int32_t *succ_idx,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of, double *out, int64_t *out_load)
{
    int32_t rc = -1;
    /* per task: latest input with and without communication; per node:
     * work, channel time, message count, last producer messaging it */
    double *ready = (double *)calloc((size_t)(2 * (ntasks + nnodes)), sizeof(double));
    int64_t *msgs = (int64_t *)malloc((size_t)(2 * nnodes) * sizeof(int64_t));
    if (!ready || !msgs)
        goto done;
    double *plain = ready + ntasks, *work = plain + ntasks, *chan = work + nnodes;
    int64_t *marked_by = msgs + nnodes;
    for (int32_t i = 0; i < nnodes; i++) {
        msgs[i] = 0;
        marked_by[i] = -1;
    }
    rc = 2;
    for (int64_t t = 0; t < ntasks; t++)
        if (kind[t] < 0 || kind[t] >= 6 || node_of[t] < 0 || node_of[t] >= nnodes)
            goto done;
    rc = 3;
    double cp = 0.0, cp_plain = 0.0, total = 0.0;
    for (int64_t t = 0; t < ntasks; t++) {
        int32_t home = node_of[t];
        double d = dur_table[kind[t]];
        double fin = ready[t] + d, pfin = plain[t] + d;
        total += d;
        work[home] += d;
        if (fin > cp)
            cp = fin;
        if (pfin > cp_plain)
            cp_plain = pfin;
        for (int64_t i = succ_ptr[t]; i < succ_ptr[t + 1]; i++) {
            int32_t s = succ_idx[i];
            if (s <= t || s >= ntasks)
                goto done;
            int32_t dest = node_of[s];
            double arrival = fin;
            if (dest != home) {
                int inter = hierarchical && site_of[home] != site_of[dest];
                double bwt = inter ? bwt_inter : bwt_intra;
                arrival = fin + (inter ? lat_inter : lat_intra) + bwt;
                if (marked_by[dest] != t) {
                    marked_by[dest] = t;
                    chan[home] += bwt;
                    chan[dest] += bwt;
                    msgs[home]++;
                    msgs[dest]++;
                }
            }
            if (arrival > ready[s])
                ready[s] = arrival;
            if (pfin > plain[s])
                plain[s] = pfin;
        }
    }
    int small = ntasks + succ_ptr[ntasks] < (1 << 21);
    double margin = 1.0 - 1.0 / (double)(1 << 30);
    out[1] = cp;
    out[2] = out[3] = 0.0;
    *out_load = 0;
    for (int32_t i = 0; i < nnodes; i++) {
        double w = work[i] / cores_per_node * margin, c = chan[i] * margin;
        if (small && w > out[2])
            out[2] = w;
        if (small && serialized && c > out[3])
            out[3] = c;
        if (msgs[i] > *out_load)
            *out_load = msgs[i];
    }
    out[0] = cp > out[2] ? cp : out[2];
    if (out[3] > out[0])
        out[0] = out[3];
    out[4] = total;
    out[5] = cp_plain;
    rc = 0;
done:
    free(ready);
    free(msgs);
    return rc;
}

/* lower_bound_one over many graphs, the pointer tables and OpenMP fan-out
 * of hqr_simulate_cluster_batch; six outputs and one load per graph */
int32_t hqr_lower_bound(
    int64_t npoints, int32_t nthreads, const int64_t *ntasks,
    const double *const *dur_table, const int8_t *const *kind,
    const int16_t *const *node_of, const int32_t *const *succ_ptr,
    const int32_t *const *succ_idx,
    int32_t nnodes, int32_t cores_per_node,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of, double *out, int64_t *out_load, int32_t *out_rc)
{
    FOR_EACH_POINT
        out_rc[p] = lower_bound_one(
            ntasks[p], nnodes, cores_per_node,
            dur_table[p], kind[p], node_of[p], succ_ptr[p], succ_idx[p],
            serialized, hierarchical,
            lat_intra, bwt_intra, lat_inter, bwt_inter,
            site_of, out + 6 * p, out_load + p);
    return batch_rc(npoints, out_rc);
}

/* ------------------------------------------------------------------ *
 * Questions answered with no graph kept: per point, hqr_expand,
 * hqr_check_elims, hqr_build_dag's count and write passes, then
 * hqr_simulate_cluster in program order, into scratch freed once read.
 * Per point, spec holds hqr_expand's m .. high_qmax and arrays its six
 * tree tables and the tile-owner table; out: makespan, busy, messages,
 * tasks, the ns of expansion, build and simulation, and the loop's rc, or
 * 3 where the generator, the check or the builder refused the point.
 * ------------------------------------------------------------------ */
static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

int32_t hqr_answer_batch(
    int64_t npoints, int32_t nthreads,
    const int64_t *spec, const void *const *arrays, const double *dur_table,
    int32_t nnodes, int32_t cores_per_node,
    int32_t serialized, int32_t hierarchical,
    double lat_intra, double bwt_intra, double lat_inter, double bwt_inter,
    const int32_t *site_of,
    double *out_makespan, double *out_busy, int64_t *out_messages,
    int64_t *out_ntasks, int64_t *out_ns, int32_t *out_rc)
{
    FOR_EACH_POINT {
        const int64_t *s = spec + 7 * p;
        const void *const *arr = arrays + 7 * p;
        int32_t m = (int32_t)s[0], n = (int32_t)s[1];
        int64_t k = n < m - 1 ? n : m - 1, ntasks = 0, nedges = -2;
        int64_t count = k > 0 ? k * (m - 1) - k * (k - 1) / 2 : 0;
        int64_t t0 = now_ns(), *ns = out_ns + 3 * p;
        int32_t *e = (int32_t *)malloc((size_t)(count + 1) * 13);
        uint8_t *ts = e ? (uint8_t *)(e + 3 * count) : NULL;
        if (e && hqr_expand(m, n, (int32_t)s[2], s[3], (int32_t)s[4], s[5],
                            arr[0], arr[1], arr[2], s[6], arr[3], arr[4], arr[5],
                            count, e, e + count, e + 2 * count, ts) == count &&
            hqr_check_elims(count, e, e + count, e + 2 * count, m, n) < 0) {
            ns[0] = now_ns() - t0;
            t0 += ns[0];
            nedges = hqr_build_dag(0, m, n, count, e, e + count, e + 2 * count,
                                   ts, NULL, 0, 0, 0, NULL, NULL, NULL, NULL,
                                   NULL, &ntasks, NULL, NULL, NULL);
        }
        /* three blocks, none larger than a Python-built graph's arrays: one
         * block for all raised glibc's mmap threshold, and the arena kept more */
        int fits = nedges >= 0 && ntasks <= INT32_MAX && nedges <= INT32_MAX;
        int32_t *ptr = fits ? malloc(4 * (size_t)(ntasks + 1)) : NULL;
        int32_t *idx = fits ? malloc(4 * (size_t)(nedges + 1)) : NULL;
        int16_t *node = fits ? malloc(4 * (size_t)ntasks + 1) : NULL;
        if (ptr && idx && node) {
            int8_t *kind = (int8_t *)(node + ntasks);
            nedges = hqr_build_dag(
                1, m, n, count, e, e + count, e + 2 * count, ts, arr[6], nnodes,
                ntasks, nedges, kind, (uint8_t *)(kind + ntasks), node, ptr, idx,
                &ntasks, NULL, NULL, NULL);
            free(e);
            e = NULL;
            ns[1] = now_ns() - t0;
            t0 += ns[1];
            out_rc[p] = nedges ? (nedges == -1 ? -1 : 3) : hqr_simulate_cluster(
                ntasks, nnodes, cores_per_node, dur_table, kind, node,
                (uint8_t *)(kind + ntasks), ptr, idx, NULL, NULL,
                serialized, hierarchical, lat_intra, bwt_intra, lat_inter,
                bwt_inter, site_of, out_makespan + p, out_busy + p,
                out_messages + p);
            ns[2] = now_ns() - t0;
        } else
            out_rc[p] = !e || nedges == -1 || fits ? -1 : 3;
        out_ntasks[p] = ntasks;
        free(e);
        free(ptr); free(idx); free(node);
    }
    return batch_rc(npoints, out_rc);
}
"""

_lib: ctypes.CDLL | None = None
_lib_tried = False


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), sysconfig.get_config_var("CC"), "cc", "gcc"):
        if not cand:
            continue
        prog = cand.split()[0]
        from shutil import which

        if which(prog):
            return cand
    return None


def _build(source: str = _C_SOURCE) -> ctypes.CDLL | None:
    cc = _compiler()
    if cc is None:
        return None
    digest = sha256_hex(source.encode())[:16]
    libdir = cache_root() / "ccore"
    sopath = libdir / f"hqr_ccore_{digest}.so"
    if not sopath.exists():
        # only a build needs these: a library found built loads neither
        import subprocess
        import tempfile

        try:
            libdir.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=libdir) as tmp:
                src = Path(tmp) / "hqr_ccore.c"
                src.write_text(source)
                out = Path(tmp) / "hqr_ccore.so"
                flags = ["-O2", "-fPIC", "-shared", "-ffp-contract=off",
                         str(src), "-o", str(out)]
                # OpenMP is optional: it only fans the batched entries out
                # over their points (each point is bit-identical either
                # way), so a toolchain without libgomp just loses the
                # thread-level parallelism, not correctness
                for extra in (["-fopenmp"], []):
                    try:
                        subprocess.run(cc.split() + extra + flags,
                                       check=True, capture_output=True, timeout=120)
                        break
                    except subprocess.CalledProcessError:
                        continue
                else:
                    return None
                os.replace(out, sopath)  # atomic publish
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(str(sopath))
    except OSError:
        return None

    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    # every array goes over as a plain address (:func:`address`), where a
    # typed pointer cast costs several times that per call; the batched
    # entries take a size vector (or a spec) and per-point pointer tables,
    # then one machine for every point, then their outputs
    vp = ctypes.c_void_p
    machine = [i32, i32, i32, i32, f64, f64, f64, f64, vp]  # .. site_of
    for name, restype, argtypes in (
        ("hqr_expand", i64, [i32, i32, i32, i64, i32, i64, vp, vp, vp, i64,
                             vp, vp, vp, i64, vp, vp, vp, vp]),
        ("hqr_build_dag", i64, [i32, i32, i32, i64, *[vp] * 5, i32, i64, i64,
                                *[vp] * 9]),
        ("hqr_check_elims", i64, [i64, vp, vp, vp, i32, i32]),
        ("hqr_transpose", i64, [i64, vp, vp, vp, vp]),
        ("hqr_openmp", i32, []),
        ("hqr_simulate_cluster_batch", i32, [i64, i32, *[vp] * 9, *machine,
                                             *[vp] * 4]),
        ("hqr_lower_bound", i32, [i64, i32, *[vp] * 6, *machine, *[vp] * 3]),
        ("hqr_answer_batch", i32, [i64, i32, vp, vp, vp, *machine, *[vp] * 6]),
    ):
        entry = getattr(lib, name)
        entry.restype, entry.argtypes = restype, argtypes
    return lib


def get_lib() -> ctypes.CDLL | None:
    """The compiled core library, building it on first use (None if
    unavailable: no C compiler, or the build failed)."""
    global _lib, _lib_tried
    if not _lib_tried:
        _lib_tried = True
        # here, not at the top: ``import repro`` does not load repro.obs
        from repro.obs.logging import jsonlog

        t0 = time.perf_counter()
        _lib = _build()
        # one line a process: the first-use build is a real wall-time
        # cost, and a host that falls back to Python can see it did
        jsonlog(
            "ccore_load", logger=logging.getLogger("repro._ccore"),
            seconds=time.perf_counter() - t0, available=_lib is not None,
        )
    return _lib


def native_available() -> bool:
    """True when the C core can be (or has been) loaded."""
    return get_lib() is not None


def openmp_available() -> bool:
    """True when the loaded native core was built with OpenMP.

    Queried from the library itself (``hqr_openmp``) rather than from the
    build flags, so a cached ``.so`` compiled by an earlier process
    reports its actual capability.
    """
    lib = get_lib()
    return bool(lib is not None and lib.hqr_openmp())
