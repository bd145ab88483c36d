"""Scheduling and communication lower bounds.

Three classical bounds apply to any execution of a tiled QR DAG:

* **work bound** — total kernel seconds divided by the core count;
* **critical-path bound** — the weighted longest path (infinite-resource
  makespan);
* **bandwidth bound** — communication-avoiding theory ([6], after
  Irony-Toledo-Tiskin): a node performing ``F`` flops of matrix multiply-
  like work with local memory ``W`` words must move at least
  ``F / sqrt(8 W) - W`` words; with the usual balanced-work assumption the
  per-node volume is ``Omega(#flops / (P sqrt(W)))``.

:func:`list_bound` computes the first two, sharpened per node and with
the links' cost on every cross-node edge, and the busiest serialized
channel, in one pass over an elimination list: ``hqr_build_dag``'s full
bound mode walks the graph the list expands to without building it
(without the C core, :func:`_graph_bound_py` walks the built graph in
Python).  The simulator's makespan never beats it, and its message count
is the simulator's (both checked by the verifier's oracle); every
algorithm's measured message volume must dominate the bandwidth bound.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

from repro.runtime.machine import Machine


def bandwidth_lower_bound_words(
    M: int, N: int, nodes: int, memory_words: float | None = None
) -> float:
    """Per-node communication volume lower bound, in matrix words.

    With balanced work ``F/P`` per node and local memory ``W`` (default:
    the node's fair share ``2 M N / P``, the minimal memory setting), the
    bound is ``F / (P sqrt(8 W))`` words per node ([6] §applying
    Irony-Toledo-Tiskin to QR).  Returns 0 for a single node.
    """
    if nodes <= 1:
        return 0.0
    flops = 2.0 * M * N * N - 2.0 * N**3 / 3.0
    if memory_words is None:
        memory_words = 2.0 * M * N / nodes
    return flops / (nodes * math.sqrt(8.0 * memory_words))


@dataclass(frozen=True)
class GraphBound:
    """What one pass over an elimination list knows before simulating it.

    ``critical_path`` (link latency and bandwidth on every cross-node
    edge, summed as the loop sums them), ``node_work`` (the busiest
    node's work over its cores) and ``channel`` (the busiest serialized
    channel) can never exceed the simulated makespan; the last two carry
    a ``1 - 2**-30`` rounding margin.  ``work``, ``plain_critical_path``
    and ``channel_load`` (most messages any node sends or receives) are
    the performance model's inputs; ``messages`` is how many the
    simulator sends, one per producer and destination node.
    """

    critical_path: float
    node_work: float
    channel: float
    work: float
    plain_critical_path: float
    channel_load: int
    messages: int

    @property
    def bound(self) -> float:
        """Admissible lower bound on the simulated makespan."""
        return max(self.critical_path, self.node_work, self.channel)

    @property
    def binding(self) -> str:
        """The term that sets the bound (the first of equals)."""
        terms = {
            "critical-path": self.critical_path,
            "node-work": self.node_work,
            "channel": self.channel,
        }
        return max(terms, key=terms.get)


def elimination_bound(
    elims, m: int, n: int, layout, machine: Machine, b: int
) -> tuple[float, float] | None:
    """``(critical_path, node_work)`` of the graph ``elims`` expands to on
    ``layout``, from ``hqr_build_dag``'s bound mode: no graph is built.
    ``None`` without the native core.

    ``node_work`` is :class:`GraphBound`'s, bit for bit.  ``critical_path``
    is the longest path through the factorization kernels and the updates
    of the column next to their panel: at most :class:`GraphBound`'s, equal
    where a longest path stays in those two columns.  Raises ``ValueError``
    for an elimination outside ``m x n`` or a tile owner outside the machine.
    """
    from repro import _ccore

    lib = _ccore.get_lib()
    if lib is None:
        return None
    out, size = _list_pass(lib, 2, elims, m, n, layout, machine, b)
    return out[0], _node_term(out[1 : machine.nodes + 1], machine, size)


def list_bound(elims, m: int, n: int, layout, machine: Machine, b: int) -> GraphBound:
    """The :class:`GraphBound` of the graph ``elims`` expands to on
    ``layout``, from ``hqr_build_dag``'s full bound mode: no graph is
    built.  Without the native core the graph is built in Python and
    walked by :func:`_graph_bound_py`.  Raises ``ValueError`` for an
    elimination outside ``m x n`` or a tile owner outside the machine."""
    from repro import _ccore

    lib = _ccore.get_lib()
    if lib is None:
        from repro.dag.compiled import compiled_from_eliminations

        graph = compiled_from_eliminations(elims, m, n, layout, machine, b)
        return _graph_bound_py(graph, machine, b)
    nn = machine.nodes
    out, size = _list_pass(lib, 3, elims, m, n, layout, machine, b)
    return _terms(
        machine, b, size, out[0], out[1 : nn + 1], *out[nn + 1 : nn + 3],
        out[nn + 3 : 2 * nn + 3], out[2 * nn + 3 : 3 * nn + 3],
    )


def _list_pass(lib, mode: int, elims, m: int, n: int, layout, machine: Machine, b: int):
    """``hqr_build_dag``'s bound mode ``mode`` over ``elims``: its ``out``
    doubles and the graph's tasks plus edges."""
    from repro._ccore import address
    from repro.dag.compiled import _kind_seconds, tile_owners
    from repro.runtime.core import _machine_params
    from repro.trees.base import EliminationArray

    elims = EliminationArray.of(elims)
    nnodes, _, _, hierarchical, *links, site = _machine_params(machine, b)
    cost = (ctypes.c_double * 10)(*_kind_seconds(machine, b), *links)
    site_of = (ctypes.c_int32 * nnodes)(*site) if hierarchical else None
    out = (ctypes.c_double * (3 + 3 * nnodes if mode == 3 else nnodes + 1))()
    ntasks = ctypes.c_int64()
    nedges = lib.hqr_build_dag(
        mode, m, n, len(elims),
        *map(address, (elims.panel, elims.victim, elims.killer, elims.ts)),
        address(tile_owners(layout, m, n)), nnodes, 0, 0, *[None] * 5,
        ctypes.byref(ntasks), cost, site_of, out,
    )
    if nedges == -1:
        raise MemoryError("hqr_build_dag: per-tile scratch")
    if nedges < 0:
        raise ValueError(
            f"an elimination outside {m} x {n} tiles or a tile owner "
            f"outside [0, {nnodes})"
        )
    return out, ntasks.value + nedges


#: scales a sum taken in an order the event loop does not use, so that it
#: stays below the makespan while a graph has fewer than 2**21 tasks plus
#: edges (the term is 0 beyond)
_MARGIN = 1.0 - 2.0**-30


def _node_term(work, machine: Machine, size: int) -> float:
    """The busiest node's work over its cores, with the margin."""
    # dividing and scaling round monotonically, so they commute with max
    return max(work) / machine.cores_per_node * _MARGIN if size < 2**21 else 0.0


def _terms(
    machine: Machine, b: int, size: int, critical_path: float, work,
    total: float, plain: float, intra, inter,
) -> GraphBound:
    """A :class:`GraphBound` from one pass's sums: per node its work and
    the messages it sends or receives within its site (``intra``) and
    across sites (``inter``).  A node's channel time is its counts times
    the two links' bandwidth terms, so every pass that counts the same
    messages gets the same doubles."""
    from repro.runtime.core import _machine_params

    _, _, serialized, _, _, bwt_intra, _, bwt_inter, _ = _machine_params(machine, b)
    loads = [i + x for i, x in zip(intra, inter)]
    channel = 0.0
    if serialized and size < 2**21:
        channel = max(
            i * bwt_intra + x * bwt_inter for i, x in zip(intra, inter)
        ) * _MARGIN
    return GraphBound(
        critical_path, _node_term(work, machine, size), channel, total, plain,
        int(max(loads)), int(sum(loads)) // 2,
    )


def _graph_bound_py(cg, machine: Machine, b: int) -> GraphBound:
    """:func:`list_bound` over a built graph, in Python: the path without
    the C core, and the tests' mirror of the full mode.  It walks the
    successor lists in program order and tells a producer's messages
    apart as the event loop does, by destination node."""
    from repro.runtime.core import _machine_params

    nnodes, _, _, hierarchical, *links, site = _machine_params(machine, b)
    kind, node = cg.kind.tolist(), cg.node.tolist()
    sp, si, dur = cg.succ_ptr.tolist(), cg.succ_idx.tolist(), cg.dur_table.tolist()
    ntasks = len(kind)
    if not all(0 <= v < nnodes for v in node):
        raise ValueError(f"a tile owner outside [0, {nnodes})")
    ready, plain = [0.0] * ntasks, [0.0] * ntasks
    work, marked_by = [0.0] * nnodes, [-1] * nnodes
    counts = [0] * nnodes, [0] * nnodes  # within a site, across sites
    cp = cp_plain = total = 0.0
    for t in range(ntasks):
        home, d = node[t], dur[kind[t]]
        fin, pfin = ready[t] + d, plain[t] + d
        total += d
        work[home] += d
        cp, cp_plain = max(cp, fin), max(cp_plain, pfin)
        for s in si[sp[t]:sp[t + 1]]:
            dest = node[s]
            arrival = fin
            if dest != home:
                inter = hierarchical and site[home] != site[dest]
                lat, bwt = links[2:] if inter else links[:2]
                arrival = fin + lat + bwt
                if marked_by[dest] != t:
                    marked_by[dest] = t
                    counts[inter][home] += 1
                    counts[inter][dest] += 1
            ready[s] = max(ready[s], arrival)
            plain[s] = max(plain[s], pfin)
    return _terms(machine, b, ntasks + sp[-1], cp, work, total, cp_plain, *counts)
