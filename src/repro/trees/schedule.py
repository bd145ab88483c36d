"""Coarse-grain unit-time scheduler for elimination lists (§III-B).

The paper's Tables I-IV assign each elimination a *step* under the
simplifying assumption that every elimination (kill + its trailing updates)
takes one time unit.  An elimination ``elim(i, j, k)`` can run at step ``t``
when:

* both rows are *ready* for column ``k``: each has been zeroed in column
  ``k-1`` before ``t`` (§II validity condition 1, plus one step for the
  trailing update), and
* both rows are *free*: neither is engaged in another elimination at ``t``
  (eliminations sharing a row serialize in list order).

:func:`coarse_schedule` computes the earliest such step for every entry of a
sequentially-ordered elimination list; the result reproduces the paper's
tables exactly and gives the coarse critical path of any tree combination.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.trees.base import Elimination


def coarse_schedule(elims: Sequence[Elimination]) -> dict[Elimination, int]:
    """Earliest unit-time step for each elimination of an ordered list."""
    free: dict[int, int] = {}  # row -> step of its last elimination so far
    zeroed: dict[tuple[int, int], int] = {}  # (row, panel) -> kill step
    steps: dict[Elimination, int] = {}
    for e in elims:
        if (e.victim, e.panel) in zeroed:
            raise ValueError(f"row {e.victim} zeroed twice in panel {e.panel}: {e}")
        ready = 0
        if e.panel > 0:
            for row in (e.victim, e.killer):
                prev = zeroed.get((row, e.panel - 1))
                if prev is None:
                    raise ValueError(
                        f"{e}: row {row} was never zeroed in panel {e.panel - 1}"
                    )
                ready = max(ready, prev)
        start = max(ready, free.get(e.victim, 0), free.get(e.killer, 0))
        step = start + 1
        steps[e] = step
        free[e.victim] = step
        free[e.killer] = step
        zeroed[(e.victim, e.panel)] = step
    return steps


def killer_table(
    elims: Iterable[Elimination],
    m: int,
    panels: Sequence[int],
    steps: dict[Elimination, int] | None = None,
) -> list[list[tuple[int, int] | None]]:
    """Tabulate ``(killer, step)`` per row x panel — the layout of Tables I-IV.

    ``table[i][c]`` is ``(killer, step)`` for row ``i`` in ``panels[c]``, or
    ``None`` when the row is not eliminated there (diagonal / survivor rows,
    shown as ``?`` in the paper).
    """
    elims = list(elims)
    if steps is None:
        steps = coarse_schedule(elims)
    index = {p: c for c, p in enumerate(panels)}
    table: list[list[tuple[int, int] | None]] = [
        [None] * len(panels) for _ in range(m)
    ]
    for e in elims:
        c = index.get(e.panel)
        if c is None:
            continue
        table[e.victim][c] = (e.killer, steps[e])
    return table


def format_killer_table(
    table: list[list[tuple[int, int] | None]], panels: Sequence[int]
) -> str:
    """Render a killer table as paper-style text."""
    header = ["Row"] + [f"P{p} killer" for p in panels] + [f"P{p} step" for p in panels]
    # interleave killer/step per panel like the paper
    lines = []
    head = "Row  " + "  ".join(f"| P{p}: killer step" for p in panels)
    lines.append(head)
    for i, row in enumerate(table):
        cells = []
        for entry in row:
            cells.append("|   ?    ?" if entry is None else f"|   {entry[0]:>2} {entry[1]:>4}")
        lines.append(f"{i:>3}  " + "  ".join(cells))
    return "\n".join(lines)
