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
* within a leaf, HQR's levels 0-1 apply unchanged: the TS level over
  fixed domains of ``a`` local rows, then ``leaf_tree`` over the domain
  leaders down to the leaf's top tile;
* each level's tree then reduces the survivors of the level below, the
  top tiles first (one tree per hierarchy level, as in Grigori, Jacquelin
  and Khabou, arXiv:1303.5837).

So the list *is* HQR's with ``p = leaves``, no domino, and its high level
(the reduction of the top tiles, the last ``min(leaves, m - k) - 1``
kills of panel ``k``) replaced by the stack's; a single level is HQR's
high tree and needs no replacement.  The domino coupling level is an
HQR-specific pipelining optimization and is not replicated at inner
levels here (each level reduces fully before handing its survivor up),
which keeps the construction valid for any stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.trees.base import EliminationArray
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
        self.m = m
        self.n = n
        self.levels = list(levels)
        self.a = a
        self.leaves = 1
        for lv in levels:
            self.leaves *= lv.arity
        # checks a and the leaf tree's name
        self._config = HQRConfig(
            p=self.leaves, a=a, low_tree=leaf_tree,
            high_tree=self.levels[0].tree, domino=False,
        )
        self._panels = min(n, m - 1)
        self._list: EliminationArray | None = None

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
        # panels 0 .. k-1 kill m-1, m-2, ... rows
        start = k * (self.m - 1) - k * (k - 1) // 2
        return self.elimination_list()[start : start + self.m - 1 - k]

    def elimination_list(self) -> EliminationArray:
        """Full panel-major elimination list: HQR's (``p = leaves``, no
        domino) with each panel's high level replaced by the stack's."""
        if self._list is None:
            found = hqr_elimination_list(self.m, self.n, self._config)
            if len(self.levels) > 1:
                victim, killer = found.victim.tolist(), found.killer.tolist()
                end = 0
                for k in range(self._panels):
                    end += self.m - 1 - k
                    kills = self._stack(k)
                    start = end - len(kills)
                    victim[start:end] = [v for v, _ in kills]
                    killer[start:end] = [w for _, w in kills]
                found = EliminationArray(found.panel, victim, killer, found.ts)
            self._list = found
        return self._list

    def _stack(self, k: int) -> list[tuple[int, int]]:
        """Panel ``k``'s ``(victim, killer)`` kills reducing the leaves' top
        tiles (rows ``k .. k + leaves - 1`` below ``m``) level by level,
        inside-out; a group's survivor is its smallest row."""
        m, leaves = self.m, self.leaves
        # each leaf's top tile, m for none; big-endian paths keep each
        # group's leaves contiguous
        alive = [min(k + (leaf - k) % leaves, m) for leaf in range(leaves)]
        kills = []
        for level in reversed(self.levels):
            tree = make_tree(level.tree)
            groups = [
                alive[g : g + level.arity] for g in range(0, len(alive), level.arity)
            ]
            for members in groups:
                rows = sorted(row for row in members if row < m)
                victims, killers = tree.pairs(len(rows))
                kills += [(rows[v], rows[w]) for v, w in zip(victims, killers)]
            alive = [min(members) for members in groups]
        return kills
