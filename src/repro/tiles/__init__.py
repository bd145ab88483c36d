"""Tiled-matrix substrate: tile storage, data distributions, tile state.

A *tiled matrix* partitions an ``M x N`` dense matrix into ``m x n`` square
tiles of size ``b x b`` (edge tiles may be smaller when ``M`` or ``N`` is not a
multiple of ``b``).  Tile algorithms — and everything else in this package —
operate at the tile level: a tile is addressed by its ``(row, col)`` tile
indices, both starting at 0.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.tiles.matrix": ("TiledMatrix", "tile_count"),
    "repro.tiles.layout": (
        "Layout", "Block1D", "Cyclic1D", "BlockCyclic2D", "SingleNode",
    ),
    "repro.tiles.state": ("TileState", "PanelStateTracker"),
})
