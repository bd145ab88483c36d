"""High-level QR driver.

``qr(A, b=..., config=...)`` runs the full pipeline: tile the matrix, build
the HQR elimination list (or accept a custom one), validate it, expand the
kernel DAG, execute the kernels, and return a :class:`QRResult` exposing
``R``, ``Q`` (built lazily by applying the reverse trees to the identity)
and the paper's §V-A numerical checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.apply import apply_q
from repro.dag.compiled import CompiledGraph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.hqr.validate import check_elimination_list
from repro.runtime.executor import (
    SequentialExecutor,
    ThreadedExecutor,
    _KernelRunner,
    numeric_graph,
)
from repro.tiles.matrix import TiledMatrix
from repro.trees.base import Elimination


@dataclass
class QRResult:
    """Outcome of a tiled QR factorization.

    ``R`` is the ``M x N`` upper-trapezoidal factor.  ``Q`` (thin, ``M x N``)
    is built on first access by replaying the reduction trees in reverse on
    the identity — exactly how the paper validates its runs.
    """

    M: int
    N: int
    b: int
    eliminations: list[Elimination]
    #: the single-node graph the executor ran
    graph: CompiledGraph
    _tiled: TiledMatrix
    _runner: _KernelRunner
    _padded_rows: int

    @property
    def R(self) -> np.ndarray:
        """Upper-trapezoidal factor (dense copy)."""
        dense = self._tiled.to_array()[: self.M, : self.N]
        return np.triu(dense)

    @property
    def Q(self) -> np.ndarray:
        """Thin orthogonal factor, ``M x N`` (for ``M >= N``)."""
        Mp = self.M + self._padded_rows
        full = apply_q(self._runner, np.eye(Mp, min(Mp, self.N)), self.b, trans=False)
        return full[: self.M, : min(self.M, self.N)]

    # ------------------------------------------------------------------ #
    # Implicit Q application and least squares (DORMQR / DGELS analogues)
    # ------------------------------------------------------------------ #
    def apply_q(self, C: np.ndarray, *, trans: bool = True) -> np.ndarray:
        """Apply ``Q^T`` (default) or ``Q`` to ``C`` without forming ``Q``.

        ``C`` has ``M`` rows (a vector or a matrix).  Costs one pass over
        the stored reflectors instead of a full explicit-Q build.
        """
        C = np.asarray(C, dtype=np.float64)
        if C.shape[0] != self.M:
            raise ValueError(f"C has {C.shape[0]} rows, expected {self.M}")
        return apply_q(
            self._runner, C, self.b, trans=trans, padded_rows=self._padded_rows
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Least-squares solution of ``min ||A x - rhs||_2`` (``M >= N``).

        Computes ``x = R^{-1} (Q^T rhs)[:N]`` with the implicit ``Q``.
        """
        if self.M < self.N:
            raise ValueError("solve() requires M >= N (overdetermined system)")
        qtb = self.apply_q(rhs, trans=True)
        from scipy.linalg import solve_triangular

        R = self.R[: self.N, : self.N]
        return solve_triangular(R, qtb[: self.N], lower=False)

    # ------------------------------------------------------------------ #
    # Paper §V-A acceptance checks
    # ------------------------------------------------------------------ #
    def orthogonality_error(self) -> float:
        """``max |Q^T Q - I|`` — check (a) of §V-A."""
        Q = self.Q
        return float(np.max(np.abs(Q.T @ Q - np.eye(Q.shape[1]))))

    def reconstruction_error(self, A: np.ndarray) -> float:
        """``max |A - Q R|`` relative to ``max |A|`` — check (b) of §V-A."""
        Q = self.Q
        R = self.R[: Q.shape[1], :]
        scale = max(float(np.max(np.abs(A))), 1.0)
        return float(np.max(np.abs(A - Q @ R))) / scale


def qr(
    A: np.ndarray,
    b: int,
    config: HQRConfig | None = None,
    *,
    eliminations: Sequence[Elimination] | None = None,
    threads: int = 0,
    validate: bool = True,
) -> QRResult:
    """Tiled QR factorization of a dense matrix.

    Parameters
    ----------
    A:
        ``M x N`` real matrix (not modified).
    b:
        Tile size.  If ``M`` is not a multiple of ``b`` the matrix is padded
        with zero rows internally (``R`` and thin ``Q`` are unaffected for
        full-column-rank inputs).
    config:
        HQR tree parameters; defaults to a single-node greedy tree.
    eliminations:
        Custom elimination list overriding ``config``.
    threads:
        0 runs sequentially; otherwise the dependency-driven thread pool.
    validate:
        Check the elimination list against the §II validity conditions.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"expected a non-empty 2-D matrix, got shape {A.shape}")
    M, N = A.shape
    pad = (-M) % b
    if pad:
        work = np.zeros((M + pad, N))
        work[:M] = A
    else:
        work = A.copy()
    tiled = TiledMatrix(work, b)
    m, n = tiled.m, tiled.n
    if eliminations is None:
        cfg = config if config is not None else HQRConfig()
        eliminations = hqr_elimination_list(m, n, cfg)
    else:
        eliminations = list(eliminations)
    if validate:
        check_elimination_list(eliminations, m, n)
    graph, coords = numeric_graph(eliminations, m, n)
    if threads and threads > 1:
        runner = ThreadedExecutor(graph, coords, tiled, workers=threads).run()
    else:
        runner = SequentialExecutor(graph, coords, tiled).run()
    return QRResult(
        M=M,
        N=N,
        b=b,
        eliminations=list(eliminations),
        graph=graph,
        _tiled=tiled,
        _runner=runner,
        _padded_rows=pad,
    )
