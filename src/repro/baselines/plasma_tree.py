"""PLASMA-TREE: Hadri et al. [7] — "Tile QR factorization with parallel
panel processing for multicore architectures".

The shared-memory predecessor of HQR's intra-node machinery (§III-C:
"recent work advocates the use of domain trees to expose more parallelism
with several killers while enforcing some locality within domains"): the
panel is split into contiguous domains of ``bs`` tile rows, each reduced
by a flat TS tree, and a binary TT tree merges the domain survivors —
"binary on top of flat, for any matrix shapes".

Inside HQR's parameter space this is ``p = 1`` (one shared-memory node),
``a = bs``, low-level binary; it is provided as a named baseline because
the paper's §III-C narrative compares against it, and because its ``bs``
parameter is the direct ancestor of HQR's ``a``.
"""

from __future__ import annotations

from repro.hqr.config import HQRConfig


def plasma_tree_config(bs: int) -> HQRConfig:
    """HQR parameterization of PLASMA-TREE with domain size ``bs``."""
    if bs <= 0:
        raise ValueError(f"domain size must be positive, got {bs}")
    return HQRConfig(p=1, q=1, a=bs, low_tree="binary", high_tree="flat", domino=False)

