"""Common elimination record and panel-tree interface."""

from __future__ import annotations

import array
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro import _ccore
from repro._ccore import address, typed


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

    ``panel``/``victim``/``killer`` are int32 and ``ts`` uint8 read-only
    typed ``memoryview``s (:func:`repro._ccore.typed`), one entry per
    elimination in list order.  It is a ``Sequence[Elimination]``:
    ``len``, iteration, indexing, slicing and ``==`` against any other
    sequence of eliminations behave like the equivalent ``list``, with
    :class:`Elimination` objects materialised only on access.  The
    :class:`Elimination` invariants are checked over the whole arrays on
    construction, in one native pass, and raise the same ``ValueError``.
    """

    __slots__ = ("panel", "victim", "killer", "ts")

    def __init__(self, panel, victim, killer, ts) -> None:
        self.panel, self.victim, self.killer = (
            typed("i", arr) for arr in (panel, victim, killer)
        )
        self.ts = typed("B", ts)
        if not len(self.panel) == len(self.victim) == len(self.killer) == len(self.ts):
            raise ValueError("elimination arrays must be 1-D of equal length")
        bad = self._first_bad()
        if bad >= 0:
            self[bad]  # raises the matching Elimination error

    def _first_bad(self, m: int = -1, n: int = -1) -> int:
        """Index of the first elimination that breaks the invariants or,
        with ``m >= 0``, does not fit ``m x n`` tiles; -1 when none does.
        One native pass (``hqr_check_elims``), numpy without the core."""
        lib = _ccore.get_lib()
        if lib is not None:
            return lib.hqr_check_elims(
                len(self), address(self.panel), address(self.victim),
                address(self.killer), m, n,
            )
        import numpy as np

        panel, victim, killer = map(np.asarray, (self.panel, self.victim, self.killer))
        bad = (victim == killer) | (victim <= panel) | (killer < panel)
        if m >= 0:
            bad |= (panel < 0) | (panel >= n) | (victim >= m) | (killer >= m)
        return int(bad.argmax()) if bad.any() else -1

    @classmethod
    def of(cls, elims: Sequence[Elimination]) -> "EliminationArray":
        """``elims`` itself when already array-backed, else its array form."""
        if isinstance(elims, cls):
            return elims
        return cls(
            [e.panel for e in elims], [e.victim for e in elims],
            [e.killer for e in elims], [e.ts for e in elims],
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
            self.panel[index], self.victim[index],
            self.killer[index], bool(self.ts[index]),
        )

    def __iter__(self) -> Iterator[Elimination]:
        return map(
            Elimination, self.panel.tolist(), self.victim.tolist(),
            self.killer.tolist(), map(bool, self.ts.tolist()),
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, EliminationArray):
            return all(
                getattr(self, field) == getattr(other, field)
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
        self._pairs: dict[int, tuple[memoryview, memoryview]] = {}
        #: see :meth:`table`; replaced whole, never edited, once published
        self._table = (typed("q"), typed("i"), typed("i"))

    @abstractmethod
    def _positions(self, q: int) -> tuple[Sequence[int], Sequence[int]]:
        """Ordered victim and killer positions reducing ``q >= 2`` rows."""

    def pairs(self, q: int) -> tuple[memoryview, memoryview]:
        """Cached read-only int32 ``(victim_pos, killer_pos)`` for ``q`` rows."""
        found = self._pairs.get(q)
        if found is None:
            victims, killers = self._positions(q) if q > 1 else ((), ())
            found = (typed("i", victims), typed("i", killers))
            # two threads may get here together: both keep the first entry
            found = self._pairs.setdefault(q, found)
        return found

    def table(self, qlo: int, qhi: int) -> tuple[memoryview, memoryview, memoryview]:
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
        if qhi >= len(start) or min(start[qlo : qhi + 1]) < 0:
            grown = array.array("q", start)
            grown.extend([-1] * (qhi + 1 - len(grown)))
            victims, killers = array.array("i", table[1]), array.array("i", table[2])
            for q in range(qlo, qhi + 1):
                if grown[q] >= 0:
                    continue
                found = self.pairs(q)
                if len(found[0]) != max(q - 1, 0):
                    raise ValueError(
                        f"{self.name} tree kills {len(found[0])} of {q} rows"
                    )
                grown[q] = len(victims)
                victims.extend(found[0])
                killers.extend(found[1])
            table = self._table = (
                typed("q", grown), typed("i", victims), typed("i", killers)
            )
        return table

    def eliminations(self, rows: Sequence[int]) -> list[tuple[int, int]]:
        """Ordered ``(victim, killer)`` pairs reducing ``rows`` to ``rows[0]``."""
        rows = [int(r) for r in self._check_rows(rows)]
        victims, killers = self.pairs(len(rows))
        return [(rows[v], rows[k]) for v, k in zip(victims, killers)]

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
