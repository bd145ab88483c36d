"""Data distributions: mapping tiles to nodes of a cluster.

The paper (§III-A, §IV-A) considers three families of layouts:

* ``BlockCyclic2D(p, q)`` — the 2-D block-cyclic distribution used by HQR
  (tile ``(i, j)`` lives on grid node ``(i mod p, j mod q)``).  This is the
  ``CYCLIC(1)`` distribution across both grid dimensions from §IV-C.
* ``Block1D(p, m)`` — contiguous blocks of tile rows, used by [SLHD10]; the
  paper notes it load-imbalances on square matrices.
* ``Cyclic1D(p[, block])`` — 1-D (block-)cyclic rows; ``block=a`` gives the
  ``CYCLIC(a)`` distribution of §IV-A used to emulate [SLHD10] inside HQR.

Each layout answers two questions:

* ``owner(i, j)`` — which node (rank in ``0 .. nodes-1``) stores tile (i, j);
* ``local_row(i)`` / ``local_view`` — the *local* coordinates of a tile on
  its owner (the "local view" of Figure 5).
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Layout(ABC):
    """Abstract tile-to-node mapping."""

    #: total number of nodes in the distribution
    nodes: int

    @abstractmethod
    def owner(self, i: int, j: int) -> int:
        """Rank of the node owning tile ``(i, j)``."""

    @abstractmethod
    def local_row(self, i: int) -> int:
        """Row index of tile-row ``i`` in its owner's local view."""

    def owner_row(self, i: int) -> int:
        """Rank component determined by the tile row alone.

        For 1-D layouts this equals ``owner(i, j)`` for any ``j``; for 2-D
        layouts it is the grid-row index.
        """
        return self.owner(i, 0)

    def messages_equal(self, i1: int, j1: int, i2: int, j2: int) -> bool:
        """True when tiles are co-located (no inter-node message needed)."""
        return self.owner(i1, j1) == self.owner(i2, j2)


class SingleNode(Layout):
    """Everything on one node — the shared-memory (multicore-only) setting."""

    def __init__(self) -> None:
        self.nodes = 1

    def owner(self, i: int, j: int) -> int:
        return 0

    def local_row(self, i: int) -> int:
        return i

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SingleNode()"


class Block1D(Layout):
    """1-D block distribution of tile rows over ``p`` nodes.

    Rows are split into ``p`` contiguous chunks of ``ceil(m / p)`` rows.  This
    is the layout of [SLHD10] and [Agullo et al. 2010]; suited to tall and
    skinny matrices only (§III-C: speedup bounded by ``p (1 - n / (3m))``).
    """

    def __init__(self, p: int, m: int):
        if p <= 0 or m <= 0:
            raise ValueError(f"p and m must be positive, got p={p}, m={m}")
        self.p = p
        self.m = m
        self.nodes = p
        self.chunk = -(-m // p)

    def owner(self, i: int, j: int) -> int:
        self._check_row(i)
        return min(i // self.chunk, self.p - 1)

    def local_row(self, i: int) -> int:
        self._check_row(i)
        return i - self.owner(i, 0) * self.chunk

    def _check_row(self, i: int) -> None:
        if not 0 <= i < self.m:
            raise IndexError(f"tile row {i} out of range for m={self.m}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Block1D(p={self.p}, m={self.m})"


class Cyclic1D(Layout):
    """1-D (block-)cyclic distribution of tile rows over ``p`` nodes.

    With ``block=1`` (default) this is plain row-cyclic: tile row ``i`` lives
    on node ``i mod p``.  With ``block=a`` it is the ``CYCLIC(a)``
    distribution of §IV-A: consecutive groups of ``a`` rows cycle over nodes,
    so that TS domains of size ``a`` stay node-local.
    """

    def __init__(self, p: int, block: int = 1):
        if p <= 0 or block <= 0:
            raise ValueError(f"p and block must be positive, got p={p}, block={block}")
        self.p = p
        self.block = block
        self.nodes = p

    def owner(self, i: int, j: int) -> int:
        return (i // self.block) % self.p

    def local_row(self, i: int) -> int:
        return (i // (self.block * self.p)) * self.block + i % self.block

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cyclic1D(p={self.p}, block={self.block})"


class BlockCyclic2D(Layout):
    """2-D block-cyclic distribution over a ``p x q`` node grid.

    Tile ``(i, j)`` lives on grid node ``(i mod p, j mod q)``, i.e. rank
    ``(i mod p) * q + (j mod q)``.  This is the layout the HQR algorithm is
    designed around — it "best balances the load across resources" (§IV-A).
    The virtual cluster-grid row of a tile row is simply ``i mod p``.
    """

    def __init__(self, p: int, q: int):
        if p <= 0 or q <= 0:
            raise ValueError(f"grid dims must be positive, got p={p}, q={q}")
        self.p = p
        self.q = q
        self.nodes = p * q

    def owner(self, i: int, j: int) -> int:
        return (i % self.p) * self.q + (j % self.q)

    def owner_row(self, i: int) -> int:
        return i % self.p

    def local_row(self, i: int) -> int:
        return i // self.p

    def grid_coords(self, node: int) -> tuple[int, int]:
        """(row, col) coordinates of a rank on the grid."""
        if not 0 <= node < self.nodes:
            raise IndexError(f"node {node} out of range for {self.p}x{self.q} grid")
        return divmod(node, self.q)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BlockCyclic2D(p={self.p}, q={self.q})"
