"""FIBONACCI: Modi-Clarke-style Fibonacci reduction scheme.

Rows below the survivor are grouped, top-down, into blocks of Fibonacci
sizes 1, 1, 2, 3, 5, ...; each row in group ``g`` (of size ``F(g)``) is
killed by the row exactly ``F(g)`` positions above it.  Because
``F(g) = F(g-1) + F(g-2)``, the killers of group ``g`` are precisely the
rows of groups ``g-1`` and ``g-2`` — all of which die strictly later
(groups are killed bottom-up, one group per coarse step).  The scheme is
asymptotically optimal like GREEDY ([1], [16]) but its structure is static:
``killer(i, k)`` is a closed-form function, which is why the paper's
implementation favours it for the distributed high-level tree.
"""

from __future__ import annotations

from repro.trees.base import PanelTree


def fibonacci_groups(count: int) -> list[int]:
    """Sizes of the Fibonacci groups covering ``count`` victims, top-down.

    The returned sizes are 1, 1, 2, 3, 5, ... truncated so they sum to
    ``count`` (the last group is clipped).
    """
    sizes: list[int] = []
    f1, f2 = 1, 1
    remaining = count
    while remaining > 0:
        take = min(f1, remaining)
        sizes.append(take)
        remaining -= take
        f1, f2 = f2, f1 + f2
    return sizes


class FibonacciTree(PanelTree):
    """Fibonacci-group reduction over the given rows."""

    name = "fibonacci"

    def _positions(self, q: int) -> tuple[list[int], list[int]]:
        # groups[g] holds victim positions (1-based below the survivor)
        groups: list[range] = []
        start = 1
        for size in fibonacci_groups(q - 1):
            groups.append(range(start, start + size))
            start += size
        victims: list[int] = []
        killers: list[int] = []
        # Bottom groups are killed first; emit in execution order.  Killers
        # for the (possibly clipped) last group fall back to "size of its
        # own group" above, which stays within earlier groups.
        for group in reversed(groups):
            victims.extend(group)
            killers.extend(pos - len(group) for pos in group)
        return victims, killers
