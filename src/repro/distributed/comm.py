"""Exact communication counting for elimination lists (§III-A).

The model is the one the paper uses in its panel-0 walkthrough: a kill
``elim(i, j, k)`` executes where the victim's tile lives; whenever the
killer row's panel tile is resident elsewhere, it travels there (one
message).  The count of *kill messages* per panel is therefore the number
of times consecutive eliminations hand the working data across node
boundaries — ``p`` for the block/flat (or reordered cyclic/flat)
combination, ``m`` for natural-order cyclic/flat, as in §III-A.

Trailing-update messages (reflector broadcasts along rows) are counted
separately; the simulator accounts for both with timing, this module gives
the layout-dependent *counts* the paper reasons about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.tiles.layout import Layout
from repro.trees.base import Elimination


@dataclass(frozen=True)
class CommStats:
    """Message counts for one elimination list under one layout."""

    kill_messages: int
    update_messages: int
    panels: dict[int, int]  # panel -> kill messages

    @property
    def total(self) -> int:
        """All messages (kills + update reflector transfers)."""
        return self.kill_messages + self.update_messages


def kill_messages_per_panel(
    elims: Iterable[Elimination], layout: Layout
) -> dict[int, int]:
    """Kill-phase messages per panel.

    Tracks where each row's panel tile (and accumulated ``R``) currently
    resides: a kill runs on the victim's owner and pulls the killer's
    current tile there if it lives elsewhere, after which the killer's
    tile resides at that node (the travelling-killer pattern of §III-A).
    """
    residence: dict[tuple[int, int], int] = {}  # (row, panel) -> node
    counts: dict[int, int] = {}
    for e in elims:
        k = e.panel
        counts.setdefault(k, 0)
        victim_home = residence.get((e.victim, k), layout.owner(e.victim, k))
        killer_home = residence.get((e.killer, k), layout.owner(e.killer, k))
        if killer_home != victim_home:
            counts[k] += 1
        residence[(e.killer, k)] = victim_home
        residence[(e.victim, k)] = victim_home
    return counts


def count_messages(
    elims: Sequence[Elimination], layout: Layout, n: int
) -> CommStats:
    """Full message census of an elimination list.

    ``update_messages`` counts, for every kill, the trailing columns whose
    killer-row and victim-row tiles live on different nodes (the reflector
    and the ``C1`` block must meet); plus, for every row triangularization,
    nothing — GEQRT reflectors stay on the row owner under any row-mapped
    layout.
    """
    kills = kill_messages_per_panel(elims, layout)
    updates = 0
    for e in elims:
        for col in range(e.panel + 1, n):
            if layout.owner(e.victim, col) != layout.owner(e.killer, col):
                updates += 1
    return CommStats(
        kill_messages=sum(kills.values()),
        update_messages=updates,
        panels=kills,
    )
