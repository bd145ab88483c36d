"""FLATTREE: a single killer annihilates every row, one after another.

Figure 1 / Table I of the paper.  Serial (length ``len(rows) - 1`` critical
path within the panel) but pipelines perfectly across panels (Table II) and
is the only tree compatible with TS kernels, since victims stay square.
"""

from __future__ import annotations

from repro.trees.base import PanelTree


class FlatTree(PanelTree):
    """Reduce rows with the single killer ``rows[0]``, top to bottom."""

    name = "flat"

    def _positions(self, q: int) -> tuple[range, list[int]]:
        return range(1, q), [0] * (q - 1)
