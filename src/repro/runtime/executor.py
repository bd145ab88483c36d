"""Numeric executors: run a compiled graph's kernels on a real tiled matrix.

``SequentialExecutor`` walks tasks in program order (which is topological).
``ThreadedExecutor`` runs them with a dependency-driven worker pool — the
shared-memory analogue of DAGuE's node-level scheduler — and must produce
bit-for-bit the same factorization, since the kernels executed and their
pairwise data dependencies are identical.

Both run the graph the event loops simulate, a
:class:`~repro.dag.compiled.CompiledGraph` (kind codes, wait counts, the
successor CSR), with the task coordinates of
:func:`~repro.dag.compiled.task_coordinates`.  They record the reflectors
produced by factorization kernels so that ``Q`` can be applied afterwards
(:func:`repro.core.apply.apply_q`: "applying the reverse trees to the
identity", §V-A).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Sequence

from repro.dag.compiled import (
    CompiledGraph, compiled_from_eliminations, task_coordinates,
)
from repro.kernels import geqrt, tsmqr, tsqrt, ttmqr, ttqrt, unmqr
from repro.runtime.machine import Machine
from repro.tiles.layout import Layout, SingleNode
from repro.tiles.matrix import TiledMatrix
from repro.trees.base import Elimination, EliminationArray

#: the kernel of each kind code; a factorization's update kernel is the next
KERNELS = (geqrt, unmqr, tsqrt, tsmqr, ttqrt, ttmqr)


def numeric_graph(
    elims: Sequence[Elimination], m: int, n: int, layout: Layout = SingleNode()
) -> tuple[CompiledGraph, tuple]:
    """The graph a numeric engine runs, each task placed by ``layout``, and
    its task coordinates ``(row, panel, col, killer)``."""
    elims = EliminationArray.of(elims)
    machine = Machine(nodes=layout.nodes)
    return (
        compiled_from_eliminations(elims, m, n, layout, machine, 1),
        task_coordinates(elims, m, n),
    )


class _KernelRunner:
    """Kernel dispatch on kind codes plus reflector bookkeeping.

    ``tile(i, j)`` returns the writable tile a kernel works on.  A
    factorization's reflector is kept under ``(kind code, row, panel)``,
    where its update kernels (the next code) look it up.
    """

    def __init__(self, graph: CompiledGraph, coords, tile):
        self.kind = graph.kind.tolist()
        self.row, self.panel, self.col, self.killer = (c.tolist() for c in coords)
        self.tile = tile
        self.refs: dict[tuple[int, int, int], object] = {}
        #: factorization task ids in a completion-compatible order, for apply_q
        self.factor_tasks: list[int] = []

    def tiles(self, t: int, col: int | None = None) -> tuple:
        """Tiles task ``t`` touches — its killer's, then its own row's — in
        its column (trailing column of an update, else the panel) or ``col``."""
        if col is None:
            col = self.panel[t] if self.col[t] < 0 else self.col[t]
        row, killer = self.row[t], self.killer[t]
        return ((killer, col), (row, col)) if killer >= 0 else ((row, col),)

    def run_task(self, t: int):
        """Run task ``t``; returns its reflector (``None`` for an update)."""
        kind, row, panel = self.kind[t], self.row[t], self.panel[t]
        tiles = [self.tile(*key) for key in self.tiles(t)]
        if kind % 2:  # an update applies its factorization's reflector
            KERNELS[kind](self.refs[(kind - 1, row, panel)], *tiles)
            return None
        ref = self.refs[(kind, row, panel)] = KERNELS[kind](*tiles)
        self.factor_tasks.append(t)
        return ref


def _check_shape(graph: CompiledGraph, A: TiledMatrix) -> None:
    if A.m != graph.m or A.n != graph.n:
        raise ValueError(
            f"matrix is {A.m}x{A.n} tiles but graph expects {graph.m}x{graph.n}"
        )


class SequentialExecutor:
    """Run the graph's tasks one by one in program order."""

    def __init__(self, graph: CompiledGraph, coords, A: TiledMatrix):
        _check_shape(graph, A)
        self.graph = graph
        self.runner = _KernelRunner(graph, coords, A.tile)

    def run(self) -> _KernelRunner:
        for t in range(len(self.graph)):
            self.runner.run_task(t)
        return self.runner


class ThreadedExecutor:
    """Dependency-driven execution on a pool of worker threads.

    Ready tasks go to a shared deque; workers pull, execute, and count
    down the wait counts of their successors, releasing each that reaches
    zero.  An idle worker sleeps on one condition, notified when a task is
    released, on the first error and when the last running task ends.  The
    per-tile dependency chains of the graph guarantee no two concurrent
    tasks touch the same tile, so kernels need no further locking.
    """

    def __init__(
        self, graph: CompiledGraph, coords, A: TiledMatrix, workers: int = 4
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        _check_shape(graph, A)
        self.graph = graph
        self.workers = workers
        self.runner = _KernelRunner(graph, coords, A.tile)

    def run(self) -> _KernelRunner:
        graph = self.graph
        ntasks = len(graph)
        wait = graph.wait.tolist()
        ptr, succ = graph.succ_ptr.tolist(), graph.succ_idx.tolist()
        ready: deque[int] = deque(t for t in range(ntasks) if wait[t] == 0)
        cond = threading.Condition()
        busy = [0]
        done = [0]
        error: list[BaseException] = []

        def worker() -> None:
            while True:
                with cond:
                    while not ready and busy[0] and not error:
                        cond.wait()
                    if error or not ready:  # failed, finished or stalled
                        return
                    tid = ready.popleft()
                    busy[0] += 1
                try:
                    self.runner.run_task(tid)
                except BaseException as exc:  # propagate to caller
                    with cond:
                        error.append(exc)
                        cond.notify_all()
                    return
                with cond:
                    busy[0] -= 1
                    done[0] += 1
                    released = 0
                    for s in succ[ptr[tid] : ptr[tid + 1]]:
                        wait[s] -= 1
                        if wait[s] == 0:
                            ready.append(s)
                            released += 1
                    if released:
                        cond.notify(released)
                    elif not busy[0]:
                        cond.notify_all()

        threads = [threading.Thread(target=worker) for _ in range(self.workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if error:
            raise error[0]
        if done[0] != ntasks:
            raise RuntimeError(f"executor stalled: {done[0]}/{ntasks} tasks completed")
        return self.runner
