"""Baseline algorithms the paper compares against (§V).

* **[BBD+10]** — the DAGuE/DPLASMA flat-tree tile QR: a single global flat
  tree per panel with TS kernels, oblivious to the 2-D block-cyclic data
  distribution (it pipelines the killer tile through every row).
* **[SLHD10]** — the communication-avoiding tile QR of Song et al.: 1-D
  block row distribution, full-TS flat tree inside each node, binary tree
  across nodes.  Realized, as §IV-A prescribes, as an HQR parameterization.
* **SCALAPACK** — the panel-based (non-tiled) Householder QR; modelled
  analytically (it is not an elimination-list algorithm), calibrated to the
  paper's own measurements.  See :mod:`repro.baselines.scalapack`.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.baselines.bbd10": ("bbd10_elimination_list",),
    "repro.baselines.slhd10": (
        "slhd10_config", "slhd10_elimination_list", "slhd10_layout",
    ),
    "repro.baselines.scalapack": ("ScalapackModel",),
})
