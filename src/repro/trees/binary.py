"""BINARYTREE: pairwise (binomial) reduction — Figure 2 / Table III.

Round ``r`` kills every row at local index ``2^(r-1) mod 2^r`` using the row
``2^(r-1)`` positions above it.  Maximum panel parallelism
(``ceil(log2(len(rows)))`` rounds), but poor pipelining across panels —
the "bumps" of Table III.
"""

from __future__ import annotations

from repro.trees.base import PanelTree


class BinaryTree(PanelTree):
    """Binomial-tree reduction over the given rows."""

    name = "binary"

    def _positions(self, q: int) -> tuple[list[int], list[int]]:
        victims: list[int] = []
        killers: list[int] = []
        stride = 1
        while stride < q:
            round_victims = range(stride, q, 2 * stride)
            victims.extend(round_victims)
            killers.extend(lo - stride for lo in round_victims)
            stride *= 2
        return victims, killers
