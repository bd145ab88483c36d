"""Numerical tile kernels for tiled QR factorizations.

These are from-scratch numpy implementations of the six LAPACK-style tile
kernels the paper builds on (§II, Algorithm 2):

========  =====================================================  ======
Kernel    Effect                                                 Weight
========  =====================================================  ======
GEQRT     square tile -> triangle (panel factorization)             4
UNMQR     apply a GEQRT transformation to a trailing tile           6
TSQRT     triangle kills a *square* tile below it                   6
TSMQR     apply a TSQRT transformation to a trailing tile pair     12
TTQRT     triangle kills a *triangle* tile below it                 2
TTMQR     apply a TTQRT transformation to a trailing tile pair      6
========  =====================================================  ======

Weights are in units of ``b^3 / 3`` floating-point operations (paper §II).
All factorization kernels mutate their tile arguments in place and return a
reflector object holding the Householder vectors ``V`` and the compact-WY
``T`` factor; the corresponding update kernels consume that reflector.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.kernels.householder": (
        "larfg", "BlockReflector", "StackedReflector",
    ),
    "repro.kernels.geqrt": ("geqrt",),
    "repro.kernels.unmqr": ("unmqr",),
    "repro.kernels.tsqrt": ("tsqrt",),
    "repro.kernels.tsmqr": ("tsmqr",),
    "repro.kernels.ttqrt": ("ttqrt",),
    "repro.kernels.ttmqr": ("ttmqr",),
    "repro.kernels.weights": (
        "KernelKind", "WEIGHTS", "kernel_flops", "KernelRates",
        "EDEL_RATES",
    ),
})
