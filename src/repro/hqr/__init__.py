"""HQR — the paper's hierarchical QR elimination-tree algorithm (§IV).

The hierarchy composes four levels per panel:

* level 0 (*TS level*): within fixed domains of ``a`` local rows, the domain
  leader TS-kills the rows below it — cache-friendly, fastest kernels;
* level 1 (*low level*): a TT tree (flat/binary/greedy/fibonacci) reduces the
  domain leaders of each cluster, fully intra-cluster, down to the cluster's
  *local diagonal* row;
* level 2 (*coupling level*, the "domino"): the cluster's *top* tile kills
  the tiles between itself and the local diagonal, resolving the interaction
  between local and global reductions;
* level 3 (*high level*): a TT tree reduces the ``p`` top tiles (one per
  cluster, sitting on the first ``p`` diagonals) across clusters.

Rows are assigned to virtual clusters cyclically (``cluster(i) = i mod p``,
the row dimension of the 2-D block-cyclic layout).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.hqr.config": ("HQRConfig",),
    "repro.hqr.hierarchy": ("HQRTree", "hqr_elimination_list"),
    "repro.hqr.levels": ("tile_level", "level_grid", "local_view"),
    "repro.hqr.validate": ("check_elimination_list", "ValidationError"),
    "repro.hqr.multilevel": ("Level", "MultilevelTree"),
    "repro.hqr.auto": ("auto_config", "auto_config_tuned"),
})
