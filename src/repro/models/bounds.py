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

:func:`graph_bounds` computes the first two, sharpened per node and with
the links' cost on every cross-node edge, in one pass over a
:class:`~repro.dag.compiled.CompiledGraph` — native (``hqr_lower_bound``,
GIL-free, batched) or, without the C core, the same pass in Python.  The
simulator's makespan never beats it (checked by the verifier's oracle),
and every algorithm's measured message volume must dominate the
bandwidth bound.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

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
    """What one pass over a compiled graph knows before simulating it.

    ``critical_path`` (link latency and bandwidth on every cross-node
    edge, summed as the loop sums them), ``node_work`` (the busiest
    node's work over its cores) and ``channel`` (the busiest serialized
    channel) can never exceed the simulated makespan; the last two carry
    a ``1 - 2**-30`` rounding margin.  ``work``, ``plain_critical_path``
    and ``channel_load`` (most messages any node sends or receives) are
    the performance model's inputs.
    """

    critical_path: float
    node_work: float
    channel: float
    work: float
    plain_critical_path: float
    channel_load: int

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


def graph_bounds(graphs, machine: Machine, b: int) -> list[GraphBound]:
    """One :class:`GraphBound` per compiled graph, all graphs in one native
    call (the Python pass without the C core).  Raises ``ValueError`` for a
    kind or node the event loop would refuse, or an edge that does not
    point forward (program order is the pass's topological order)."""
    from repro import _ccore
    from repro.runtime.core import _c_lower_bound

    lib = _ccore.get_lib()
    out = _c_lower_bound(lib, graphs, machine, b) if lib is not None else None
    if out is None:
        return [_graph_bound_py(cg, machine, b) for cg in graphs]
    terms, loads = out
    return [
        GraphBound(*row[1:].tolist(), int(load))
        for row, load in zip(terms, loads)
    ]


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
    from repro.dag.compiled import duration_table, tile_owners
    from repro.runtime.core import _machine_params
    from repro.trees.base import EliminationArray

    lib = _ccore.get_lib()
    if lib is None:
        return None
    elims = EliminationArray.of(elims)
    nnodes, cores, _, hierarchical, *links, site = _machine_params(machine, b)
    cost = np.concatenate((duration_table(machine, b), links))
    site_of = np.array(site, np.int32) if hierarchical else None
    owner = tile_owners(layout, m, n)
    out = np.empty(nnodes + 1)
    ntasks = ctypes.c_int64()
    nedges = lib.hqr_build_dag(
        2, m, n, len(elims), elims.panel.ctypes.data, elims.victim.ctypes.data,
        elims.killer.ctypes.data, elims.ts.ctypes.data, owner.ctypes.data,
        nnodes, 0, 0, *[None] * 5, ctypes.byref(ntasks), cost.ctypes.data,
        None if site_of is None else site_of.ctypes.data, out.ctypes.data,
    )
    if nedges == -1:
        raise MemoryError("hqr_build_dag: per-tile scratch")
    if nedges < 0:
        raise ValueError(
            f"an elimination outside {m} x {n} tiles or a tile owner "
            f"outside [0, {nnodes})"
        )
    # dividing and scaling round monotonically, so they commute with max
    busiest = float(out[1:].max()) / cores * (1.0 - 2.0**-30)
    return float(out[0]), busiest if ntasks.value + nedges < 2**21 else 0.0


def _graph_bound_py(cg, machine: Machine, b: int) -> GraphBound:
    """``hqr_lower_bound`` in Python, operation for operation."""
    from repro.runtime.core import _machine_params

    nnodes, cores, serialized, hierarchical, *links, site = _machine_params(
        machine, b
    )
    kind, node = cg.kind.tolist(), cg.node.tolist()
    sp, si, dur = cg.succ_ptr.tolist(), cg.succ_idx.tolist(), cg.dur_table.tolist()
    ntasks = len(kind)
    if not all(0 <= k < 6 for k in kind) or not all(0 <= v < nnodes for v in node):
        raise ValueError(
            f"a task kind outside [0, 6) or a node outside [0, {nnodes})"
        )
    ready, plain = [0.0] * ntasks, [0.0] * ntasks
    work, chan = [0.0] * nnodes, [0.0] * nnodes
    msgs, marked_by = [0] * nnodes, [-1] * nnodes
    cp = cp_plain = total = 0.0
    for t in range(ntasks):
        home, d = node[t], dur[kind[t]]
        fin, pfin = ready[t] + d, plain[t] + d
        total += d
        work[home] += d
        cp, cp_plain = max(cp, fin), max(cp_plain, pfin)
        for s in si[sp[t]:sp[t + 1]]:
            if not t < s < ntasks:
                raise ValueError("a successor edge that does not point forward")
            dest = node[s]
            arrival = fin
            if dest != home:
                inter = hierarchical and site[home] != site[dest]
                lat, bwt = links[2:] if inter else links[:2]
                arrival = fin + lat + bwt
                if marked_by[dest] != t:
                    marked_by[dest] = t
                    chan[home] += bwt
                    chan[dest] += bwt
                    msgs[home] += 1
                    msgs[dest] += 1
            ready[s] = max(ready[s], arrival)
            plain[s] = max(plain[s], pfin)
    small = ntasks + sp[-1] < 2**21
    margin = 1.0 - 2.0**-30
    node_term = max(w / cores * margin for w in work) if small else 0.0
    chan_term = max(c * margin for c in chan) if small and serialized else 0.0
    return GraphBound(cp, node_term, chan_term, total, cp_plain, max(msgs))
