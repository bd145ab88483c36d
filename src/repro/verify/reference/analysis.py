"""Object-graph analyses: weights, upward ranks, kernel census.

The key invariant (§II): for an ``m x n`` tile matrix with ``m >= n``, every
valid tiled QR — any elimination list, any TS/TT mix — has total weight
``6 m n^2 - 2 n^3`` in ``b^3/3`` units, i.e. ``2 M N^2 - 2/3 N^3`` flops.
"""

from __future__ import annotations

from repro.kernels.weights import KernelKind
from repro.verify.reference.graph import TaskGraph


def total_weight(graph: TaskGraph) -> int:
    """Sum of task weights, in ``b^3/3`` units."""
    return sum(t.weight for t in graph.tasks)


def theoretical_total_weight(m: int, n: int) -> int:
    """The §II invariant ``6 m n^2 - 2 n^3``, generalized to any shape.

    Summing the per-panel cost (see the kernel-weight identity in
    ``repro.kernels``) over panels ``k = 0 .. min(n, m-1) - 1`` with
    ``rows = m - k`` and ``u = n - k - 1`` trailing columns gives
    ``sum (rows) * (4 + 6u) + (rows - 1) * (2 + 6u)``; for ``m >= n`` this
    telescopes to the paper's ``6 m n^2 - 2 n^3``.
    """
    panels = min(n, m - 1)
    w = sum(
        (m - k) * (4 + 6 * (n - k - 1)) + (m - k - 1) * (2 + 6 * (n - k - 1))
        for k in range(panels)
    )
    if m <= n:
        # final GEQRT of the last diagonal tile plus its trailing updates
        w += 4 + 6 * (n - m)
    return w


def upward_ranks(graph: TaskGraph) -> list[float]:
    """Longest weighted path from each task to an exit (HEFT's upward rank).

    Uses the graph's lazily built successor lists; shared by the
    critical-path scheduling priority and the performance model.
    """
    n = len(graph.tasks)
    succs = graph.successors
    rank = [0.0] * n
    for t in reversed(range(n)):
        best = 0.0
        for s in succs[t]:
            if rank[s] > best:
                best = rank[s]
        rank[t] = best + float(graph.tasks[t].weight)
    return rank


def kernel_census(graph: TaskGraph) -> dict[KernelKind, int]:
    """Count of task instances per kernel kind."""
    census: dict[KernelKind, int] = {k: 0 for k in KernelKind}
    for t in graph.tasks:
        census[t.kind] += 1
    return census
