"""HQR elimination-list construction (§IV-B).

For every panel ``k`` and every virtual cluster ``r`` (rows ``i ≡ r mod p``):

1. **TS level** — within each fixed domain of ``a`` local rows, the acting
   leader (first participant of the domain) TS-kills the participants below
   it, top-down.
2. **Low level** — the chosen TT tree reduces the acting domain leaders to
   the reduction base (the local-diagonal row with domino on, the top tile
   with domino off).
3. **Coupling level** — with domino on, the cluster's top tile TT-kills the
   level-2 rows between itself and the local diagonal, top-down; the local
   reduction's survivor dies last.  The resulting chain of dependencies on
   the previous panel's high-level eliminations is the "domino ripple".
4. **High level** — the chosen TT tree reduces the ``p`` top tiles (rows
   ``k .. k+p-1``) across clusters down to the diagonal row ``k``.

The list is emitted panel-major with levels ordered 0,1,2,3 inside a panel,
which is always a valid sequential order (killers die only after their last
kill; rows are zeroed in column order).

The result is an :class:`~repro.trees.base.EliminationArray`, and the trees
contribute only their cached positional
:meth:`~repro.trees.base.PanelTree.pairs`.  The full list comes from the
native core when there is one (``hqr_expand``: the loops above, in C, over
the trees' flat :meth:`~repro.trees.base.PanelTree.table`).  The numpy
generator here is the reference it must equal, and what runs without a
compiler and for single panels: levels 0-2
of a cluster depend only on its local row range ``(base, ltop, lmax)``, so
that *local structure* is built once per distinct range (in local rows times
``p``) and shifted by the cluster index ``r``.
"""

from __future__ import annotations

from typing import Iterable

from repro import _ccore
from repro._ccore import address, typed, zeros
from repro.hqr.config import HQRConfig
from repro.hqr.levels import top_local_row
from repro.trees.base import EliminationArray, PanelTree


class HQRTree:
    """The hierarchical elimination tree for an ``m x n`` tile matrix.

    Provides the full :meth:`elimination_list`, the per-panel breakdown
    (:meth:`panel_eliminations`), and the paper's ``killer(i, k)`` oracle.
    """

    def __init__(self, m: int, n: int, config: HQRConfig):
        if m <= 0 or n <= 0:
            raise ValueError(f"tile counts must be positive, got m={m}, n={n}")
        self.m = m
        self.n = n
        self.config = config
        self._low: PanelTree = config.low
        self._high: PanelTree = config.high
        self._panels = min(n, m - 1)
        self._cache: dict[int, EliminationArray] = {}
        #: (base, ltop, lmax) -> levels 0-2 of a cluster with that row range
        self._local: dict[tuple[int, int, int], tuple] = {}

    # ------------------------------------------------------------------ #
    @property
    def panels(self) -> int:
        """Number of panels with at least one elimination."""
        return self._panels

    def panel_eliminations(self, k: int) -> EliminationArray:
        """Ordered eliminations of panel ``k`` (levels 0, 1, 2, 3)."""
        if not 0 <= k < self._panels:
            raise ValueError(f"panel {k} out of range [0, {self._panels})")
        if k not in self._cache:
            self._cache[k] = self._assemble((k,))
        return self._cache[k]

    def elimination_list(self) -> EliminationArray:
        """The full panel-major elimination list."""
        found = self._expand()
        if found is None:
            found = self._assemble(range(self._panels))
        return found

    def killer(self, i: int, k: int) -> int:
        """The paper's ``killer(i, k)`` oracle for tile ``(i, k)``, ``i > k``."""
        if not (0 <= k < self.n and k < i < self.m):
            raise ValueError(f"need k < i, 0 <= k < n, i < m; got i={i}, k={k}")
        panel = self.panel_eliminations(k)
        return panel.killer[panel.victim.tolist().index(i)]

    # ------------------------------------------------------------------ #
    def tables(self) -> tuple | None:
        """``hqr_expand``'s low and high tree tables (start, victim, killer
        typed arrays each), or ``None`` where it does not run (no native
        core, no panel, parameters past its integer widths)."""
        m, panels = self.m, self._panels
        p, a = self.config.p, self.config.a
        if _ccore.get_lib() is None or panels <= 0 or p >= 2**31 or a >= 2**63:
            return None
        # the q each tree is asked for lies in a short range: a cluster's
        # last local row is lmax or lmax - 1, its base 0 .. bmax, and it
        # has 1 + last // a - base // a leaders; panel k has min(p, m - k)
        # top tiles
        lmax = (m - 1) // p
        bmax = panels - 1 if self.config.domino else -(-(panels - 1) // p)
        bmax = min(bmax, lmax)
        low = self._low.table(
            max(1 + max(lmax - 1, 0) // a - bmax // a, 1), 1 + lmax // a
        )
        high = self._high.table(min(p, m - panels + 1), min(p, m))
        return tuple(tuple(typed(f, arr) for f, arr in zip("qii", t))
                     for t in (low, high))

    def _expand(self) -> EliminationArray | None:
        """The full list from ``hqr_expand``, or ``None`` for :meth:`_assemble`."""
        tables = self.tables()
        if tables is None:
            return None
        m, panels = self.m, self._panels
        # every panel k kills rows k+1 .. m-1
        count = panels * (m - 1) - panels * (panels - 1) // 2
        out = [zeros("i", count) for _ in range(3)] + [zeros("B", count)]
        low, high = tables
        written = _ccore.get_lib().hqr_expand(
            m, self.n, self.config.p, self.config.a, self.config.domino,
            len(low[0]) - 1, *map(address, low),
            len(high[0]) - 1, *map(address, high),
            count, *map(address, out),
        )
        return EliminationArray(*out) if written == count else None

    def _cluster(self, base: int, ltop: int, lmax: int) -> tuple:
        """Levels 0-2 of a cluster whose participants are local rows
        ``[base, lmax]`` under top tile ``ltop``: per level a ``(victims,
        killers)`` pair in local rows times ``p`` (add ``r`` for tile rows)."""
        key = (base, ltop, lmax)
        levels = self._local.get(key)
        if levels is None:
            import numpy as np

            p, a = self.config.p, self.config.a
            # level 0: every participant but its domain's acting leader (the
            # domain's first participant) is TS-killed by that leader
            loc = np.arange(base, lmax + 1, dtype=np.int32)
            leader = np.maximum(loc // a * a, base)
            killed = loc != leader
            # level 1: low tree over the acting leaders
            leaders = loc[~killed] * p
            low_v, low_k = map(np.asarray, self._low.pairs(len(leaders)))
            # level 2: domino, top tile kills (ltop, base]; empty without
            # domino, where base == ltop
            coupled = np.arange(ltop + 1, base + 1, dtype=np.int32) * p
            levels = self._local[key] = (
                (loc[killed] * p, leader[killed] * p),
                (leaders[low_v], leaders[low_k]),
                (coupled, np.full(len(coupled), ltop * p, dtype=np.int32)),
            )
        return levels

    def _assemble(self, panels: Iterable[int]) -> EliminationArray:
        """The eliminations of ``panels``, in order, as one array list."""
        import numpy as np

        p, m, domino = self.config.p, self.m, self.config.domino
        # one piece per (panel, level, cluster): local rows, cluster shift
        victims: list[np.ndarray] = []
        killers: list[np.ndarray] = []
        shift: list[int] = []
        panel_of: list[int] = []
        ts_of: list[bool] = []
        for k in panels:
            clusters = []
            tops = []
            for r in range(p):
                ltop = top_local_row(k, r, p)
                if ltop * p + r >= m:
                    continue  # cluster has no rows on/below the diagonal
                lmax = (m - 1 - r) // p
                base = min(k, lmax) if domino else ltop
                clusters.append((r, self._cluster(base, ltop, lmax)))
                tops.append(ltop * p + r)
            for level in range(3):
                victims += [levels[level][0] for _, levels in clusters]
                killers += [levels[level][1] for _, levels in clusters]
                shift += [r for r, _ in clusters]
                ts_of += [level == 0] * len(clusters)
            # --- level 3: high tree over the top tiles ------------------- #
            top_rows = np.array(sorted(tops), dtype=np.int32)
            high_v, high_k = map(np.asarray, self._high.pairs(len(top_rows)))
            victims.append(top_rows[high_v])
            killers.append(top_rows[high_k])
            shift.append(0)
            ts_of.append(False)
            panel_of += [k] * (3 * len(clusters) + 1)
        if not victims:
            return EliminationArray((), (), (), ())
        sizes = np.fromiter(map(len, victims), np.int64, len(victims))
        offset = np.repeat(np.array(shift, dtype=np.int32), sizes)
        return EliminationArray(
            np.repeat(np.array(panel_of, dtype=np.int32), sizes),
            np.concatenate(victims) + offset,
            np.concatenate(killers) + offset,
            np.repeat(np.array(ts_of, dtype=np.uint8), sizes),
        )


def hqr_elimination_list(m: int, n: int, config: HQRConfig) -> EliminationArray:
    """Convenience: the full HQR elimination list for an ``m x n`` tile matrix."""
    return HQRTree(m, n, config).elimination_list()
