"""Implicit application of ``Q`` — the DORMQR analogue.

Forming ``Q`` explicitly costs another full factorization's worth of flops;
applying it implicitly replays the stored reflectors against the target's
tile rows.  ``Q^T C`` replays the factorization kernels in forward order
(exactly what the trailing updates did to ``A``); ``Q C`` replays them in
reverse with the transformation un-transposed — the paper's "applying the
reverse trees" (§V-A), generalized from the identity to any operand.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.executor import KERNELS, _KernelRunner
from repro.tiles.matrix import TiledMatrix


def apply_q(
    runner: _KernelRunner,
    C: np.ndarray,
    b: int,
    *,
    trans: bool,
    padded_rows: int = 0,
) -> np.ndarray:
    """Apply ``Q^T`` (``trans=True``) or ``Q`` to ``C`` in place-equivalent.

    ``C`` must have as many rows as the (padded) factored matrix; the
    return value is a new array of the same shape.  ``padded_rows`` extra
    zero rows are appended internally when the factorization was padded.
    """
    C = np.asarray(C, dtype=np.float64)
    squeeze = C.ndim == 1
    if squeeze:
        C = C[:, None]
    if C.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got ndim={C.ndim}")
    rows = C.shape[0] + padded_rows
    work = np.zeros((rows, C.shape[1]))
    work[: C.shape[0]] = C
    tiled = TiledMatrix(work, b)
    for t in runner.factor_tasks if trans else runner.factor_tasks[::-1]:
        kind = runner.kind[t]
        ref = runner.refs[(kind, runner.row[t], runner.panel[t])]
        for c in range(tiled.n):
            tiles = [tiled.tile(*key) for key in runner.tiles(t, c)]
            KERNELS[kind + 1](ref, *tiles, trans=trans)
    out = work[: C.shape[0]]
    return out[:, 0] if squeeze else out
