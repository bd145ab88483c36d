"""GREEDY: kill as many tiles as possible at every step (Table IV).

Single-panel form (:class:`GreedyTree`): with ``q`` live rows, each wave
kills the bottom ``floor(q / 2)`` rows using the ``floor(q / 2)`` rows
immediately above them, paired in natural order.  Under the unit-time
coarse model no algorithm reduces a panel faster ([12], [13]).

Multi-panel form (:func:`greedy_elimination_list`): the paper's Table IV —
waves are computed column by column against tile *readiness* (a tile of
column ``k`` becomes available one coarse step after its row was zeroed in
column ``k-1``), which interleaves panels and preserves pipelining.
"""

from __future__ import annotations

from repro.trees.base import Elimination, PanelTree


class GreedyTree(PanelTree):
    """Single-panel greedy reduction (all rows ready at once)."""

    name = "greedy"

    def _positions(self, q: int) -> tuple[list[int], list[int]]:
        victims: list[int] = []
        killers: list[int] = []
        alive = q  # positions 0 .. alive-1 are still live
        while alive > 1:
            z = alive // 2
            victims.extend(range(alive - z, alive))
            killers.extend(range(alive - 2 * z, alive - z))
            alive -= z
        return victims, killers


def greedy_elimination_list(
    m: int, n: int, *, return_steps: bool = False
) -> list[Elimination] | tuple[list[Elimination], dict[Elimination, int]]:
    """Globally-pipelined GREEDY elimination list for an ``m x n`` tile matrix.

    Reproduces Table IV.  At each coarse step ``t`` and in each column ``k``,
    among the rows whose column-``k`` tile is ready (their column-``k-1``
    elimination finished before ``t``) and not yet killed, the bottom half is
    annihilated by the rows immediately above them (natural pairing).

    With ``return_steps=True`` also returns the step of each elimination.
    The returned list is ordered panel-major (a valid sequential order);
    steps carry the parallel schedule.
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"m and n must be positive, got m={m}, n={n}")
    # Panel k has victims only when rows k+1..m-1 exist, so the last panel of
    # a square (or wide) matrix contributes nothing.
    panels = min(n, m - 1)
    zero_step: list[dict[int, int]] = [dict() for _ in range(panels)]
    killed: list[set[int]] = [set() for _ in range(panels)]
    per_panel: list[list[tuple[Elimination, int]]] = [[] for _ in range(panels)]
    total_victims = sum(m - k - 1 for k in range(panels))
    done = 0
    t = 0
    while done < total_victims:
        t += 1
        for k in range(panels):
            # rows participating in column k: k .. m-1
            cand = []
            for i in range(k, m):
                if i in killed[k]:
                    continue
                if k > 0:
                    prev = zero_step[k - 1].get(i)
                    if prev is None or prev >= t:
                        continue  # not yet zeroed in previous column
                cand.append(i)
            z = len(cand) // 2
            if z == 0:
                continue
            killers = cand[-2 * z : -z]
            victims = cand[-z:]
            for victim, killer in zip(victims, killers):
                e = Elimination(panel=k, victim=victim, killer=killer)
                per_panel[k].append((e, t))
                killed[k].add(victim)
                zero_step[k][victim] = t
                done += 1
    elims: list[Elimination] = []
    steps: dict[Elimination, int] = {}
    for k in range(panels):
        per_panel[k].sort(key=lambda pair: pair[1])
        for e, step in per_panel[k]:
            elims.append(e)
            steps[e] = step
    if return_steps:
        return elims, steps
    return elims
