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

from repro._exports import lazy_exports

__version__ = "1.0.0"  # pyproject.toml's: a literal loads no package metadata

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.api": ("qr", "QRResult"),
    "repro.hqr.config": ("HQRConfig",),
    "repro.hqr.hierarchy": ("HQRTree", "hqr_elimination_list"),
    "repro.runtime.machine": ("Machine",),
    "repro.tiles.matrix": ("TiledMatrix",),
})
__all__.append("__version__")
