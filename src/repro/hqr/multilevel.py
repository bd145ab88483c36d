"""Generalized multi-level hierarchical reduction trees.

HQR's fixed four-level hierarchy targets "clusters of multicores".  The
paper's own related work already hints at deeper hardware: [3] (Agullo et
al.) reduces across *grids of clusters* of nodes, and §VI anticipates more
heterogeneity.  :class:`MultilevelTree` generalizes the construction to an
arbitrary stack of hierarchy levels:

* the machine is described outside-in as ``Level(arity, tree)`` entries —
  e.g. ``[Level(2, "binary"), Level(15, "fibonacci"), Level(4, "greedy")]``
  for 2 sites x 15 nodes x 4 sockets;
* tile rows are assigned to the leaves cyclically, level by level (the
  2-D-cyclic convention of HQR applied recursively), so the row's path
  through the hierarchy is its mixed-radix expansion;
* within a leaf, an optional TS domain level (size ``a``) applies first;
* each level's tree then reduces the survivors of the level below, with
  the survivor sets chosen exactly like HQR's top tiles (the first rows on
  or below the diagonal of each subgroup).

With a single entry this degenerates to HQR without domino; the classic
HQR is ``[Level(p, high_tree)]`` + the intra-node machinery.  The domino
coupling level is an HQR-specific pipelining optimization and is not
replicated at inner levels here (each level reduces fully before handing
its survivor up), which keeps the construction valid for any stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.trees.base import EliminationArray, PanelTree
from repro.trees.factory import make_tree


@dataclass(frozen=True)
class Level:
    """One hierarchy level: ``arity`` groups reduced with ``tree``."""

    arity: int
    tree: str = "binary"

    def __post_init__(self) -> None:
        if self.arity <= 0:
            raise ValueError(f"arity must be positive, got {self.arity}")
        make_tree(self.tree)  # fail fast


class MultilevelTree:
    """Hierarchical elimination tree over an arbitrary level stack.

    Parameters
    ----------
    m, n:
        Tile counts.
    levels:
        Hierarchy outside-in; the product of arities is the leaf count
        (analogue of HQR's ``p``).
    a:
        TS domain size within each leaf (``1`` disables TS kernels).
    leaf_tree:
        Tree reducing the domain leaders inside a leaf (HQR's low level).
    """

    def __init__(
        self,
        m: int,
        n: int,
        levels: list[Level],
        *,
        a: int = 1,
        leaf_tree: str = "greedy",
    ):
        if m <= 0 or n <= 0:
            raise ValueError(f"tile counts must be positive, got m={m}, n={n}")
        if not levels:
            raise ValueError("need at least one hierarchy level")
        if a <= 0:
            raise ValueError(f"domain size must be positive, got a={a}")
        self.m = m
        self.n = n
        self.levels = list(levels)
        self.a = a
        self._leaf_tree: PanelTree = make_tree(leaf_tree)
        self._level_trees: list[PanelTree] = [make_tree(lv.tree) for lv in levels]
        self.leaves = 1
        for lv in levels:
            self.leaves *= lv.arity
        self._panels = min(n, m - 1)

    # ------------------------------------------------------------------ #
    def leaf_of(self, row: int) -> int:
        """Leaf index of a tile row (cyclic assignment)."""
        return row % self.leaves

    def group_path(self, leaf: int) -> tuple[int, ...]:
        """Mixed-radix path of a leaf through the levels, outside-in.

        Big-endian: the outermost level owns the most significant digit, so
        leaves of one innermost group are *contiguous* — with an identity
        leaf-to-node mapping and contiguous machine sites, the inner
        reductions stay inside a site and only the outer levels cross the
        slow links.
        """
        path = []
        rem = leaf
        stride = self.leaves
        for lv in self.levels:
            stride //= lv.arity
            path.append(rem // stride)
            rem %= stride
        return tuple(path)

    @property
    def panels(self) -> int:
        """Number of panels with at least one elimination."""
        return self._panels

    # ------------------------------------------------------------------ #
    def panel_eliminations(self, k: int) -> EliminationArray:
        """Ordered eliminations of panel ``k``, leaf level first."""
        if not 0 <= k < self._panels:
            raise ValueError(f"panel {k} out of range [0, {self._panels})")
        return self._assemble((k,))

    def elimination_list(self) -> EliminationArray:
        """Full panel-major elimination list."""
        return self._assemble(range(self._panels))

    def _assemble(self, panels: Iterable[int]) -> EliminationArray:
        """The eliminations of ``panels``, in order, as one array list: one
        ``(victims, killers)`` piece per leaf domain sweep and per tree,
        each a gather of the tree's positional ``pairs(q)``."""
        m, a, leaves = self.m, self.a, self.leaves
        victims: list[np.ndarray] = []
        killers: list[np.ndarray] = []
        panel_of: list[int] = []
        ts_of: list[bool] = []

        def piece(k: int, victim: np.ndarray, killer: np.ndarray, ts: bool) -> None:
            victims.append(victim)
            killers.append(killer)
            panel_of.append(k)
            ts_of.append(ts)

        for k in panels:
            # each leaf's first row on/below the diagonal: rows k .. k+leaves-1
            first = k + (np.arange(leaves) - k) % leaves
            # --- leaf level: TS domains + leaf tree, like HQR's levels 0-1 - #
            for leaf in np.flatnonzero(first < m):
                rows = np.arange(first[leaf], m, leaves)
                pos = np.arange(len(rows))
                lead = pos - pos % a  # a domain is ``a`` consecutive leaf rows
                killed = pos != lead
                piece(k, rows[killed], rows[lead[killed]], True)
                leaders = rows[::a]
                low_v, low_k = self._leaf_tree.pairs(len(leaders))
                piece(k, leaders[low_v], leaders[low_k], False)
            # --- hierarchy levels, inside-out ------------------------- #
            # big-endian paths make the subgroups of one group contiguous;
            # a group's survivor is its smallest row, ``m`` marks "nobody"
            alive = np.minimum(first, m)
            for level, tree in zip(self.levels[::-1], self._level_trees[::-1]):
                groups = alive.reshape(-1, level.arity)
                for members in groups:
                    rows = np.sort(members[members < m])
                    high_v, high_k = tree.pairs(len(rows))
                    piece(k, rows[high_v], rows[high_k], False)
                alive = groups.min(axis=1)
        if not victims:
            return EliminationArray((), (), (), ())
        sizes = np.fromiter(map(len, victims), np.int64, len(victims))
        return EliminationArray(
            np.repeat(np.array(panel_of, dtype=np.int32), sizes),
            np.concatenate(victims),
            np.concatenate(killers),
            np.repeat(np.array(ts_of, dtype=np.uint8), sizes),
        )
