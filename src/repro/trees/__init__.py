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

from repro.trees.base import Elimination, PanelTree
from repro.trees.flat import FlatTree
from repro.trees.binary import BinaryTree
from repro.trees.fibonacci import FibonacciTree
from repro.trees.greedy import GreedyTree, greedy_elimination_list
from repro.trees.pipelined import panel_elimination_list
from repro.trees.schedule import coarse_schedule, killer_table
from repro.trees.factory import make_tree, TREE_NAMES

__all__ = [
    "Elimination",
    "PanelTree",
    "FlatTree",
    "BinaryTree",
    "FibonacciTree",
    "GreedyTree",
    "greedy_elimination_list",
    "panel_elimination_list",
    "coarse_schedule",
    "killer_table",
    "make_tree",
    "TREE_NAMES",
]
