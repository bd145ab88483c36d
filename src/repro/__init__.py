"""repro — reproduction of *Hierarchical QR factorization algorithms for
multi-core cluster systems* (Dongarra, Faverge, Herault, Langou, Robert,
IPDPS 2012; arXiv:1110.1553).

Quick start::

    import numpy as np
    from repro import qr, HQRConfig

    A = np.random.default_rng(0).standard_normal((800, 400))
    res = qr(A, b=100, config=HQRConfig(p=3, a=2, low_tree="greedy",
                                        high_tree="fibonacci"))
    print(res.orthogonality_error(), res.reconstruction_error(A))

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.tiles` — tiled matrices, data distributions;
* :mod:`repro.kernels` — the six tile kernels, from scratch;
* :mod:`repro.trees` — flat / binary / greedy / fibonacci reduction trees;
* :mod:`repro.hqr` — the paper's four-level hierarchical elimination tree;
* :mod:`repro.dag` — kernel DAG construction and analysis;
* :mod:`repro.runtime` — numeric executors and the cluster simulator;
* :mod:`repro.baselines` — SCALAPACK / [BBD+10] / [SLHD10] comparators;
* :mod:`repro.bench` — harnesses regenerating every paper table and figure.
"""

from repro.core.api import qr, QRResult
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import HQRTree, hqr_elimination_list
from repro.runtime.machine import Machine
from repro.tiles.matrix import TiledMatrix

def __getattr__(name: str) -> str:
    """``__version__`` from package metadata, on first access (PEP 562:
    importing ``importlib.metadata`` costs about what ``import repro``
    does); the literal is the source-tree fallback."""
    if name != "__version__":
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    try:
        from importlib.metadata import version

        found = version("repro")
    except Exception:
        found = "1.0.0"
    globals()["__version__"] = found
    return found

__all__ = [
    "qr",
    "QRResult",
    "HQRConfig",
    "HQRTree",
    "hqr_elimination_list",
    "Machine",
    "TiledMatrix",
    "__version__",
]
