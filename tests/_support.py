"""Test tools several test modules share: random elimination lists,
structured matrices and the cross-tree accuracy study.

No program code calls any of them, so they live with the tests.

* :func:`random_elimination_list` samples the full §II space of valid
  elimination lists, for fuzzing the validator, the DAG builder and the
  executors against algorithms nobody designed.  Panels go in order;
  within a panel it repeatedly picks a random still-alive victim (any
  non-survivor row) and a random still-alive killer — any alive row other
  than the victim is legal, as long as the intended survivor (the diagonal
  row) is never killed.  TS kills are used only when the victim is
  untouched (still square) and the RNG says so.
* The matrix generators produce the standard stress cases (graded,
  ill-conditioned, near rank-deficient, Vandermonde, Kahan) QR's
  applications feed it, far from i.i.d. Gaussian.
* :func:`example` imports a module of ``examples/`` (they are scripts,
  not a package), such as the ``viz`` profiles ``design_space.py`` prints.
* :func:`simulated_points` records every question the answers path
  simulates, whichever way it runs it.
* :func:`study` factors one matrix under several tree configurations and
  reports the paper's two checks (§V-A: ``Q`` orthonormality, ``A = QR``
  reconstruction) plus the distance of ``R`` to LAPACK's.  Any valid
  elimination order is norm-wise backward stable; the study makes that
  observable and the tests pin it.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.api import qr
from repro.hqr.config import HQRConfig
from repro.trees.base import Elimination


def random_elimination_list(
    m: int, n: int, seed: int | None = None, *, ts_probability: float = 0.5
) -> list[Elimination]:
    """A uniformly random valid elimination list for an ``m x n`` matrix."""
    if m <= 0 or n <= 0:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    rng = random.Random(seed)
    elims: list[Elimination] = []
    for k in range(min(n, m - 1)):
        alive = list(range(k, m))
        square = set(alive)
        while len(alive) > 1:
            victim = rng.choice([r for r in alive if r != k])
            killer = rng.choice([r for r in alive if r != victim])
            ts = victim in square and rng.random() < ts_probability
            if not ts:
                square.discard(victim)
            square.discard(killer)  # the killer is triangularized by now
            elims.append(Elimination(panel=k, victim=victim, killer=killer, ts=ts))
            alive.remove(victim)
    return elims


# --------------------------------------------------------------------- #
# structured test matrices
# --------------------------------------------------------------------- #
def gaussian(M: int, N: int, seed: int | None = None) -> np.ndarray:
    """Well-conditioned dense baseline (i.i.d. standard normal)."""
    return np.random.default_rng(seed).standard_normal((M, N))


def graded(M: int, N: int, decades: float = 12.0, seed: int | None = None) -> np.ndarray:
    """Columns scaled geometrically over ``decades`` orders of magnitude.

    Exercises column-norm dynamics; Householder QR is norm-wise backward
    stable regardless, which the accuracy study verifies per tree.
    """
    A = gaussian(M, N, seed)
    return A * np.logspace(0, -decades, N)


def ill_conditioned(
    M: int, N: int, condition: float = 1e10, seed: int | None = None
) -> np.ndarray:
    """Matrix with prescribed 2-norm condition number (via SVD synthesis)."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((M, N)))[0]
    V = np.linalg.qr(rng.standard_normal((N, N)))[0]
    s = np.logspace(0, -np.log10(condition), N)
    return (U * s) @ V.T


def near_rank_deficient(
    M: int, N: int, rank: int, noise: float = 1e-13, seed: int | None = None
) -> np.ndarray:
    """Rank-``rank`` matrix plus tiny noise — trailing R rows ~ noise."""
    if not 0 < rank <= min(M, N):
        raise ValueError(f"rank must be in (0, {min(M, N)}], got {rank}")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((M, rank)) @ rng.standard_normal((rank, N))
    return B + noise * rng.standard_normal((M, N))


def vandermonde(M: int, N: int, seed: int | None = None) -> np.ndarray:
    """Vandermonde on random nodes in [0, 1] — classic least-squares input,
    exponentially ill-conditioned in N."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 1, M))
    return np.vander(x, N, increasing=True)


def kahan(N: int, theta: float = 1.2) -> np.ndarray:
    """The Kahan matrix — upper triangular, notoriously deceptive for
    rank-revealing factorizations; square ``N x N``."""
    c, s = np.cos(theta), np.sin(theta)
    T = np.triu(-c * np.ones((N, N)), 1) + np.eye(N)
    scale = s ** np.arange(N)
    return (T.T * scale).T


GENERATORS = {
    "gaussian": gaussian,
    "graded": graded,
    "ill_conditioned": ill_conditioned,
    "vandermonde": vandermonde,
}


# --------------------------------------------------------------------- #
# the cross-tree accuracy study
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class AccuracyReport:
    """Error metrics of one factorization."""

    label: str
    orthogonality: float  # max |Q^T Q - I|
    reconstruction: float  # max |A - QR| / max |A|
    r_relative_diff: float  # max |R - R_ref| / max |R_ref| vs LAPACK


def study(
    A: np.ndarray,
    b: int,
    configs: dict[str, HQRConfig] | None = None,
) -> list[AccuracyReport]:
    """Factor ``A`` under several configurations and report the errors."""
    import scipy.linalg as sla

    if configs is None:
        configs = default_configs()
    N = A.shape[1]
    r_ref = sla.qr(A, mode="r")[0][:N]
    scale = max(float(np.max(np.abs(r_ref))), 1.0)
    out = []
    for label, cfg in configs.items():
        res = qr(A, b=b, config=cfg)
        r_diff = float(np.max(np.abs(np.abs(res.R[:N]) - np.abs(r_ref)))) / scale
        out.append(
            AccuracyReport(
                label=label,
                orthogonality=res.orthogonality_error(),
                reconstruction=res.reconstruction_error(A),
                r_relative_diff=r_diff,
            )
        )
    return out


def default_configs() -> dict[str, HQRConfig]:
    """A spread of tree shapes covering the algorithm space."""
    return {
        "flat TS (bbd10-like)": HQRConfig(p=1, a=10**9, low_tree="flat", domino=False),
        "pure TT binary": HQRConfig(p=1, a=1, low_tree="binary", domino=False),
        "greedy": HQRConfig(p=1, a=1, low_tree="greedy", domino=False),
        "hqr p=3 a=2 domino": HQRConfig(p=3, a=2),
        "hqr p=4 fib/fib": HQRConfig(p=4, a=2, low_tree="fibonacci",
                                     high_tree="fibonacci"),
    }


def simulated_points(monkeypatch) -> list[tuple[int, int]]:
    """Patch the two ways ``bench.runner.answers`` simulates a miss - the
    points of its native call (``runtime.core._c_answers``) and each graph
    it runs through ``run_core``, the one caller that passes no keyword
    (faulted and traced runs pass theirs) - and return the list that
    collects the ``(m, n)`` of every one, on any thread."""
    import repro.runtime.core as core_mod

    seen = []
    real_answers, real_run = core_mod._c_answers, core_mod.run_core

    def native(lib, points, *args, **kwargs):
        seen.extend((m, n) for m, n, *_ in points)
        return real_answers(lib, points, *args, **kwargs)

    def run(cg, *args, **kwargs):
        if not kwargs:
            seen.append((cg.m, cg.n))
        return real_run(cg, *args, **kwargs)

    monkeypatch.setattr(core_mod, "_c_answers", native)
    monkeypatch.setattr(core_mod, "run_core", run)
    return seen


def example(name: str):
    """The module ``examples/<name>.py``, imported once."""
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "examples" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]
