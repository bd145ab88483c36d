"""Common elimination record and panel-tree interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class Elimination:
    """One orthogonal transformation ``elim(victim, killer, panel)``.

    Combines rows ``victim`` and ``killer`` to zero out tile
    ``(victim, panel)``; tile ``(killer, panel)`` accumulates the result.
    ``ts`` records whether the kill uses the TS kernel pair (victim still
    square) or the TT pair (victim previously triangularized).
    """

    panel: int
    victim: int
    killer: int
    ts: bool = False

    def __post_init__(self) -> None:
        if self.victim == self.killer:
            raise ValueError(f"row {self.victim} cannot kill itself")
        if self.victim <= self.panel:
            raise ValueError(
                f"victim {self.victim} is on/above the diagonal of panel {self.panel}"
            )
        if self.killer < self.panel:
            raise ValueError(
                f"killer {self.killer} lies above panel {self.panel}'s diagonal"
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "TS" if self.ts else "TT"
        return f"elim({self.victim} <- {self.killer}, panel {self.panel}, {kind})"


class EliminationArray(Sequence):
    """An immutable elimination list held as four contiguous arrays.

    ``panel``/``victim``/``killer`` are int32 and ``ts`` uint8, one entry
    per elimination in list order.  It is a ``Sequence[Elimination]``:
    ``len``, iteration, indexing, slicing and ``==`` against any other
    sequence of eliminations behave like the equivalent ``list``, with
    :class:`Elimination` objects materialised only on access.  The
    :class:`Elimination` invariants are checked over the whole arrays on
    construction and raise the same ``ValueError``.
    """

    __slots__ = ("panel", "victim", "killer", "ts")

    def __init__(self, panel, victim, killer, ts) -> None:
        self.panel = np.ascontiguousarray(panel, dtype=np.int32)
        self.victim = np.ascontiguousarray(victim, dtype=np.int32)
        self.killer = np.ascontiguousarray(killer, dtype=np.int32)
        self.ts = np.ascontiguousarray(ts, dtype=np.uint8)
        if not (
            self.panel.shape == self.victim.shape == self.killer.shape
            == self.ts.shape == (len(self.panel),)
        ):
            raise ValueError("elimination arrays must be 1-D of equal length")
        bad = (
            (self.victim == self.killer)
            | (self.victim <= self.panel)
            | (self.killer < self.panel)
        )
        if bad.any():
            self[int(bad.argmax())]  # raises the matching Elimination error
        for arr in (self.panel, self.victim, self.killer, self.ts):
            arr.flags.writeable = False

    @classmethod
    def of(cls, elims: Sequence[Elimination]) -> "EliminationArray":
        """``elims`` itself when already array-backed, else its array form."""
        if isinstance(elims, cls):
            return elims
        count = len(elims)
        return cls(
            np.fromiter((e.panel for e in elims), np.int32, count),
            np.fromiter((e.victim for e in elims), np.int32, count),
            np.fromiter((e.killer for e in elims), np.int32, count),
            np.fromiter((e.ts for e in elims), np.uint8, count),
        )

    def __len__(self) -> int:
        return len(self.panel)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EliminationArray(
                self.panel[index], self.victim[index],
                self.killer[index], self.ts[index],
            )
        return Elimination(
            int(self.panel[index]), int(self.victim[index]),
            int(self.killer[index]), bool(self.ts[index]),
        )

    def __iter__(self) -> Iterator[Elimination]:
        return map(
            Elimination, self.panel.tolist(), self.victim.tolist(),
            self.killer.tolist(), self.ts.astype(bool).tolist(),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, EliminationArray):
            return all(
                np.array_equal(getattr(self, field), getattr(other, field))
                for field in self.__slots__
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # mutable-list semantics: compares by value, unhashable

    def __repr__(self) -> str:
        return f"EliminationArray({list(self)!r})"


class PanelTree(ABC):
    """A reduction structure over an ordered set of rows.

    A tree is a pure function of a row's *position* in the reduction:
    :meth:`pairs` gives, for ``q`` rows, the ``(victim, killer)`` positions
    in a dependency-respecting sequential order (every pair's killer is
    still alive when the pair executes, each victim dies exactly once, and
    position 0 survives).  ``eliminations(rows)`` applies those positions
    to any sorted sequence of distinct row indices.
    """

    #: human-readable identifier ("flat", "binary", "greedy", "fibonacci")
    name: str = "?"

    def __init__(self) -> None:
        self._pairs: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: see :meth:`table`; replaced whole, never edited, once published
        self._table = (
            np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, np.int32)
        )

    @abstractmethod
    def _positions(self, q: int) -> tuple[Sequence[int], Sequence[int]]:
        """Ordered victim and killer positions reducing ``q >= 2`` rows."""

    def pairs(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Cached read-only int32 ``(victim_pos, killer_pos)`` for ``q`` rows."""
        found = self._pairs.get(q)
        if found is None:
            victims, killers = self._positions(q) if q > 1 else ((), ())
            found = (
                np.array(victims, dtype=np.int32),
                np.array(killers, dtype=np.int32),
            )
            for arr in found:
                arr.flags.writeable = False
            # two threads may get here together: both keep the first entry
            found = self._pairs.setdefault(q, found)
        return found

    def table(self, qlo: int, qhi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``pairs(q)`` for ``qlo <= q <= qhi`` (at least) as three flat
        arrays, the form the native generator reads: ``(start, victims,
        killers)`` where the ``q - 1`` positions of ``pairs(q)`` begin at
        ``start[q]`` (int64; negative for a ``q`` the table does not hold).

        One table per tree, grown on demand by the ``q`` a caller lacks and
        republished by a single assignment, so a concurrent reader holds
        either the old arrays or the new ones, never a mixture; growth lost
        to a race is redone by whoever misses it next.
        """
        table = self._table
        start = table[0]
        if qhi >= len(start) or (start[qlo : qhi + 1] < 0).any():
            grown = np.full(max(qhi + 1, len(start)), -1, dtype=np.int64)
            grown[: len(start)] = start
            victims, killers = [table[1]], [table[2]]
            at = len(table[1])
            for q in np.flatnonzero(grown[qlo : qhi + 1] < 0) + qlo:
                found = self.pairs(int(q))
                if len(found[0]) != max(q - 1, 0):
                    raise ValueError(
                        f"{self.name} tree kills {len(found[0])} of {q} rows"
                    )
                victims.append(found[0])
                killers.append(found[1])
                grown[q] = at
                at += len(found[0])
            table = (grown, np.concatenate(victims), np.concatenate(killers))
            for arr in table:
                arr.flags.writeable = False
            self._table = table
        return table

    def eliminations(self, rows: Sequence[int]) -> list[tuple[int, int]]:
        """Ordered ``(victim, killer)`` pairs reducing ``rows`` to ``rows[0]``."""
        rows = np.array(self._check_rows(rows), dtype=np.int64)
        victims, killers = self.pairs(len(rows))
        return list(zip(rows[victims].tolist(), rows[killers].tolist()))

    @staticmethod
    def _check_rows(rows: Sequence[int]) -> list[int]:
        rows = list(rows)
        if len(set(rows)) != len(rows):
            raise ValueError("rows must be distinct")
        if any(b <= a for a, b in zip(rows, rows[1:])):
            raise ValueError("rows must be sorted increasing (first = survivor)")
        return rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
