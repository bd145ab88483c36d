"""Reduction trees: who kills whom within a panel, and in what order.

A tiled QR algorithm is entirely characterized by its *elimination list*
(§II).  This package provides the building blocks for those lists:

* :class:`PanelTree` implementations — FLATTREE, BINARYTREE, FIBONACCI,
  GREEDY — that reduce an ordered set of rows to its first element;
* the *pipelined* multi-panel builders that apply a tree to every panel of an
  ``m x n`` tile matrix (including the globally-scheduled GREEDY of
  Table IV);
* the coarse-grain unit-time scheduler (§III-B) that assigns a step to every
  elimination, reproducing Tables I-IV of the paper.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.trees.base": ("Elimination", "PanelTree"),
    "repro.trees.flat": ("FlatTree",),
    "repro.trees.binary": ("BinaryTree",),
    "repro.trees.fibonacci": ("FibonacciTree",),
    "repro.trees.greedy": ("GreedyTree", "greedy_elimination_list"),
    "repro.trees.pipelined": ("panel_elimination_list",),
    "repro.trees.schedule": ("coarse_schedule", "killer_table"),
    "repro.trees.factory": ("make_tree", "TREE_NAMES"),
})
