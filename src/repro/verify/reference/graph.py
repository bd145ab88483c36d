"""Task-graph construction from an elimination list.

Program order: walk the (sequentially valid) elimination list; for each
elimination emit

1. ``GEQRT(killer, k)`` + its row of ``UNMQR`` updates, when the killer has
   not been triangularized in this panel yet;
2. for TT kills, the same for the victim;
3. the kill (``TSQRT``/``TTQRT``) followed by its ``TSMQR``/``TTMQR``
   updates on every trailing column.

Dependencies are inferred from tile access order (every kernel *writes* its
tiles, so the per-tile access sequence is a dependency chain) plus explicit
reflector-consumption edges (an update kernel depends on the factorization
kernel that produced its reflector, which lives on a different tile).

The construction is what DAGuE's symbolic DAG evaluates at runtime; here it
is materialized as one Python object a task.  Production builds the same
graph as flat arrays (:func:`repro.dag.compiled.compiled_from_eliminations`);
this slow, explicit form is the reference the verifier checks it against.
"""

from __future__ import annotations

from typing import Sequence

from repro.kernels.weights import KernelKind
from repro.trees.base import Elimination
from repro.verify.reference.tasks import Task


class TaskGraph:
    """Explicit kernel DAG for a tiled QR factorization.

    Attributes
    ----------
    tasks:
        Tasks indexed by id, in a valid sequential (program) order.
    successors, predecessors:
        Adjacency lists of task ids.
    """

    def __init__(self, m: int, n: int, tasks: list[Task], preds: list[list[int]]):
        self.m = m
        self.n = n
        self.tasks = tasks
        self.predecessors = preds
        self._successors: list[list[int]] | None = None

    @property
    def successors(self) -> list[list[int]]:
        """Adjacency lists of successor ids, built lazily on first access.

        Many callers (critical-path analysis, the compiled pipeline, pure
        DAG statistics) only need predecessors; deferring the reverse
        adjacency build keeps graph construction cheap for them.
        """
        succs = self._successors
        if succs is None:
            succs = [[] for _ in self.tasks]
            for t, plist in enumerate(self.predecessors):
                for p in plist:
                    succs[p].append(t)
            self._successors = succs
        return succs

    # ------------------------------------------------------------------ #
    @classmethod
    def from_eliminations(
        cls, elims: Sequence[Elimination], m: int, n: int
    ) -> "TaskGraph":
        """Expand an elimination list into the kernel DAG.

        The list must be sequentially valid (see
        :func:`repro.hqr.validate.check_elimination_list`); panels may appear
        in any interleaving as long as per-row column order is respected.
        """
        tasks: list[Task] = []
        preds: list[list[int]] = []
        # last writer per tile, flattened (row * n + col); -1 = untouched
        last_writer = [-1] * (m * n)
        # (row, panel) pairs already GEQRT'd, flattened
        triangled = bytearray(m * n)

        GEQRT, UNMQR = KernelKind.GEQRT, KernelKind.UNMQR
        TSQRT, TSMQR = KernelKind.TSQRT, KernelKind.TSMQR
        TTQRT, TTMQR = KernelKind.TTQRT, KernelKind.TTMQR

        def emit(
            kind: KernelKind,
            row: int,
            panel: int,
            killer: int = -1,
            col: int = -1,
            reflector: int = -1,
        ) -> int:
            tid = len(tasks)
            dep: list[int] = []
            # update kernels consume the reflector of their factorization task
            if reflector >= 0:
                dep.append(reflector)
            c = panel if col < 0 else col
            if killer >= 0:
                idx = killer * n + c
                w = last_writer[idx]
                if w >= 0 and w != reflector:
                    dep.append(w)
                last_writer[idx] = tid
            idx = row * n + c
            w = last_writer[idx]
            if w >= 0 and w != reflector and (not dep or w != dep[-1]):
                dep.append(w)
            last_writer[idx] = tid
            tasks.append(Task(tid, kind, row, panel, killer=killer, col=col))
            preds.append(dep)
            return tid

        tasks_append = tasks.append
        preds_append = preds.append

        def triangularize(row: int, panel: int) -> None:
            idx = row * n + panel
            if triangled[idx]:
                return
            triangled[idx] = 1
            fact = emit(GEQRT, row, panel)
            # inlined UNMQR row sweep (hot path)
            base = row * n
            for col in range(panel + 1, n):
                tid = len(tasks)
                w = last_writer[base + col]
                dep = [fact] if w < 0 else [fact, w]
                last_writer[base + col] = tid
                tasks_append(Task(tid, UNMQR, row, panel, -1, col))
                preds_append(dep)

        for e in elims:
            victim, killer, panel = e.victim, e.killer, e.panel
            triangularize(killer, panel)
            if e.ts:
                kill, update = TSQRT, TSMQR
            else:
                triangularize(victim, panel)
                kill, update = TTQRT, TTMQR
            kid = emit(kill, victim, panel, killer=killer)
            # inlined trailing-update sweep (hot path)
            base_k = killer * n
            base_v = victim * n
            for col in range(panel + 1, n):
                tid = len(tasks)
                dep = [kid]
                w = last_writer[base_k + col]
                if w >= 0:
                    dep.append(w)
                last_writer[base_k + col] = tid
                w = last_writer[base_v + col]
                if w >= 0:
                    dep.append(w)
                last_writer[base_v + col] = tid
                tasks_append(Task(tid, update, victim, panel, killer, col))
                preds_append(dep)

        # A square or wide matrix leaves its last diagonal tile untouched by
        # any elimination: one final GEQRT (+ trailing UNMQRs) completes R.
        # This is the extra weight-4 term that makes the total exactly
        # 6mn^2 - 2n^3 for m = n.
        if m <= n:
            triangularize(m - 1, m - 1)

        return cls(m, n, tasks, preds)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.tasks)

    def roots(self) -> list[int]:
        """Tasks with no predecessors."""
        return [t for t, p in enumerate(self.predecessors) if not p]

    def check_acyclic(self) -> None:
        """Sanity check: program order is a topological order."""
        for t, plist in enumerate(self.predecessors):
            for p in plist:
                if p >= t:
                    raise AssertionError(f"edge {p} -> {t} violates program order")
