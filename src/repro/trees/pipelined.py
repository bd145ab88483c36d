"""Apply a panel tree to every panel of an ``m x n`` tile matrix.

This is the non-hierarchical ("one level") construction used by the paper's
Tables II and III and by the [BBD+10] baseline: panel ``k`` reduces rows
``k .. m-1`` with the same tree shape.  The returned list is panel-major,
which is always a valid sequential order; the parallel schedule (the "bumps"
of Table III) emerges from :func:`repro.trees.schedule.coarse_schedule`.
"""

from __future__ import annotations

import numpy as np

from repro.trees.base import EliminationArray, PanelTree
from repro.trees.flat import FlatTree


def panel_elimination_list(
    m: int, n: int, tree: PanelTree, *, ts: bool | None = None
) -> EliminationArray:
    """Elimination list applying ``tree`` independently to each panel.

    Parameters
    ----------
    m, n:
        Tile counts of the matrix.
    tree:
        Panel reduction tree applied to rows ``k .. m-1`` of each panel ``k``.
    ts:
        Mark eliminations as TS-kernel kills.  Defaults to ``True`` for a
        flat tree (single killer — victims stay square) and ``False``
        otherwise; pass explicitly to override (e.g. a flat tree forced to
        TT kernels).
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    if ts is None:
        ts = isinstance(tree, FlatTree)
    # panel k reduces rows k .. m-1: the tree's positions for m - k rows,
    # shifted by k
    pairs = [tree.pairs(m - k) for k in range(min(n, m - 1))]
    none = np.empty(0, dtype=np.int32)  # keeps concatenate legal at m == 1
    panel = np.repeat(
        np.arange(len(pairs), dtype=np.int32),
        np.array([len(victims) for victims, _ in pairs], dtype=np.intp),
    )
    victim = np.concatenate([none] + [victims for victims, _ in pairs]) + panel
    killer = np.concatenate([none] + [killers for _, killers in pairs]) + panel
    return EliminationArray(panel, victim, killer, np.full(len(panel), ts))
