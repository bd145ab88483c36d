"""Tree registry: name -> shared PanelTree instance."""

from __future__ import annotations

from repro.trees.base import PanelTree
from repro.trees.binary import BinaryTree
from repro.trees.fibonacci import FibonacciTree
from repro.trees.flat import FlatTree
from repro.trees.greedy import GreedyTree

#: one shared instance per name: trees are stateless apart from their
#: ``pairs`` cache, which every user of a name then shares
_REGISTRY: dict[str, PanelTree] = {
    "flat": FlatTree(),
    "binary": BinaryTree(),
    "greedy": GreedyTree(),
    "fibonacci": FibonacciTree(),
}

#: Names accepted by :func:`make_tree` — the paper's four tree choices.
TREE_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def make_tree(name: str | PanelTree) -> PanelTree:
    """The panel tree of that name (or pass an instance through)."""
    if isinstance(name, PanelTree):
        return name
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown tree {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None
