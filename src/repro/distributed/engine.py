"""Message-passing distributed execution engine.

The cluster *simulator* predicts timing; this engine actually executes a
tiled QR with distributed-memory semantics: every rank owns the tiles its
:class:`~repro.tiles.layout.Layout` assigns to it, runs exactly the tasks
placed on it (owner-computes on the victim-row tile, like DPLASMA), and
exchanges tiles and reflectors over a point-to-point communicator.

The communicator is anything with ``size``, ``send`` and ``recv``:
:class:`ThreadComm` runs in-process ranks backed by queues, a faithful
model of matching-by-tag semantics, and :class:`ResilientComm` adds
message loss on top; a wrapper with the same three members around a real
message-passing library would run the engine unchanged, one process per
rank.

The engine's correctness argument mirrors §IV-C: the DAG determines all
data movement; each cross-rank dependency edge carries the producer's
written tiles (and reflector, for factorization kernels).  Ranks walk
their local task lists in global program order, so tag-matched blocking
receives cannot deadlock.  The DAG is the :class:`~repro.dag.compiled.
CompiledGraph` the simulator runs; each message is derived from the tiles
the two kernels touch, never from the simulator's one-send-per-tile rule,
so the engine's traffic is an independent check of the simulator's.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.dag.compiled import CompiledGraph
from repro.runtime.executor import _KernelRunner
from repro.tiles.layout import Layout
from repro.tiles.matrix import TiledMatrix


class ThreadComm:
    """In-process point-to-point communicator for ``size`` ranks.

    Messages are matched by ``(source, tag)``; sends never block.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._boxes: list[dict[tuple[int, int], "queue.SimpleQueue"]] = [
            {} for _ in range(size)
        ]
        self._locks = [threading.Lock() for _ in range(size)]

    def _box(self, rank: int, source: int, tag: int) -> "queue.SimpleQueue":
        with self._locks[rank]:
            return self._boxes[rank].setdefault((source, tag), queue.SimpleQueue())

    def send(self, payload, dest: int, tag: int, source: int) -> None:
        """Deposit ``payload`` for ``dest`` (non-blocking)."""
        self._box(dest, source, tag).put(payload)

    def recv(self, source: int, tag: int, rank: int, timeout: float = 300.0):
        """Blocking receive of the message tagged ``(source, tag)``."""
        try:
            return self._box(rank, source, tag).get(timeout=timeout)
        except queue.Empty:
            raise TimeoutError(
                f"rank {rank} timed out waiting for tag {tag} from {source}"
            ) from None


class CommTimeout(TimeoutError):
    """A receive exhausted its bounded retries."""


class InjectedWorkerDeath(RuntimeError):
    """A worker was killed by a :class:`WorkerKill` fault plan."""


@dataclass(frozen=True)
class WorkerKill:
    """Fault plan: kill ``rank`` after it has executed ``after_tasks`` tasks.

    Only the rank's *first* execution dies; the supervised recovery
    re-runs it to completion.
    """

    rank: int
    after_tasks: int = 0


class ResilientComm:
    """A :class:`ThreadComm` hardened with a send log, bounded-retry
    receives, and deterministic message-drop injection.

    * every send is **logged**, so a dead rank can be re-executed from
      scratch: :meth:`replay_to` re-delivers its whole inbox;
    * ``drop`` (a set of message indices, or a predicate on the global
      send counter) makes the initial transmission vanish; the receiver's
      timed-out retry then pulls the payload from the log — modelling
      sender retransmission on NACK;
    * :meth:`recv` retries with exponential backoff up to ``max_retries``
      before raising :class:`CommTimeout`, so a receiver survives the
      window in which its peer is dead and being recovered.
    """

    def __init__(
        self,
        size: int,
        *,
        drop=None,
        retry_timeout: float = 0.05,
        max_retries: int = 40,
        backoff: float = 1.3,
    ):
        if retry_timeout <= 0 or max_retries <= 0 or backoff < 1.0:
            raise ValueError("invalid retry parameters")
        self._base = ThreadComm(size)
        self.size = size
        self._drop = drop if callable(drop) or drop is None else drop.__contains__
        self.retry_timeout = retry_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self._lock = threading.Lock()
        self._log: list[tuple[int, int, int, object]] = []  # dest, tag, src, payload
        self._lost: dict[tuple[int, int, int], object] = {}  # (dest, src, tag)
        self.sends = 0
        self.drops = 0
        self.retransmits = 0
        self.recv_retries = 0

    def send(self, payload, dest: int, tag: int, source: int) -> None:
        with self._lock:
            index = self.sends
            self.sends += 1
            self._log.append((dest, tag, source, payload))
            dropped = self._drop is not None and self._drop(index)
            if dropped:
                self.drops += 1
                self._lost[(dest, source, tag)] = payload
        if not dropped:
            self._base.send(payload, dest, tag, source)

    def recv(self, source: int, tag: int, rank: int, timeout: float | None = None):
        delay = timeout if timeout is not None else self.retry_timeout
        for _ in range(self.max_retries):
            try:
                return self._base.recv(source, tag, rank, timeout=delay)
            except TimeoutError:
                with self._lock:
                    self.recv_retries += 1
                    payload = self._lost.pop((rank, source, tag), None)
                    if payload is not None:
                        self.retransmits += 1
                if payload is not None:
                    return payload
                delay *= self.backoff
        raise CommTimeout(
            f"rank {rank} gave up on tag {tag} from {source} after "
            f"{self.max_retries} retries"
        )

    def replay_to(self, rank: int) -> int:
        """Reset ``rank``'s inbox and re-deliver every message ever sent to
        it (including dropped ones), so a fresh re-execution of the rank
        consumes exactly the original message sequence."""
        with self._lock:
            with self._base._locks[rank]:
                self._base._boxes[rank] = {}
            backlog = [entry for entry in self._log if entry[0] == rank]
            self._lost = {k: v for k, v in self._lost.items() if k[0] != rank}
        for dest, tag, source, payload in backlog:
            self._base.send(payload, dest, tag, source)
        return len(backlog)

    def stats(self) -> dict:
        """Counters for reports and tests."""
        with self._lock:
            return {
                "sends": self.sends,
                "drops": self.drops,
                "retransmits": self.retransmits,
                "recv_retries": self.recv_retries,
            }


@dataclass
class RankResult:
    """Output of one rank's execution."""

    rank: int
    tiles: dict[tuple[int, int], np.ndarray]
    tasks_run: int
    sends: int
    recvs: int


class DistributedEngine:
    """Execute a compiled graph across ranks with message passing.

    Parameters
    ----------
    graph, coords:
        The kernel DAG (identical on every rank, like DAGuE's symbolic
        DAG) and its task coordinates, as
        :func:`~repro.runtime.executor.numeric_graph` builds them: a task
        runs on rank ``graph.node[task]``.
    layout:
        Tile ownership: where each tile lives before the run, which must
        be the layout the graph was placed by.
    comm:
        Communicator: ``size`` ranks, ``send`` and ``recv`` with
        :class:`ThreadComm`'s signatures.
    """

    def __init__(self, graph: CompiledGraph, coords, layout: Layout, comm):
        if layout.nodes > comm.size:
            raise ValueError(
                f"layout needs {layout.nodes} ranks, communicator has {comm.size}"
            )
        self.graph = graph
        self.coords = coords
        self.layout = layout
        self.comm = comm
        self._node = graph.node.tolist()
        self._succ = graph.succ_ptr.tolist(), graph.succ_idx.tolist()
        self._pred_ptr = graph.pred_ptr.tolist()
        self._pred_idx = graph.pred_idx.tolist()
        # tag encoding: consumer id x stride + index of the producer in the
        # consumer's predecessor segment.  Unique per (producer, consumer)
        # edge and only O(ntasks * max_preds) large — a producer x consumer
        # encoding would overflow 32-bit MPI tags around 46k tasks, well
        # below paper-scale graphs.
        self._tag_stride = max(max(graph.wait, default=1), 1)

    def _tag(self, consumer: int, producer: int) -> int:
        lo = self._pred_ptr[consumer]
        return consumer * self._tag_stride + self._pred_idx.index(producer, lo) - lo

    # ------------------------------------------------------------------ #
    def run_rank(
        self, rank: int, A: np.ndarray, b: int, *, on_task=None
    ) -> RankResult:
        """Run every task placed on ``rank``; returns its final local tiles.

        ``A`` is the global input; only tiles owned by ``rank`` are read
        from it (the rest arrive through messages), so in an MPI setting
        each process may pass its local part (others can be garbage).

        ``on_task(rank, tasks_done)`` is called before each task — the
        fault-injection hook of :class:`ResilientEngine` (it kills the
        worker by raising from inside).
        """
        graph, layout, comm = self.graph, self.layout, self.comm
        node, (ptr, succ) = self._node, self._succ
        pred_ptr, pred_idx = self._pred_ptr, self._pred_idx
        full = TiledMatrix(np.array(A, dtype=np.float64, copy=True), b)
        store: dict[tuple[int, int], np.ndarray] = {}
        for i in range(full.m):
            for j in range(full.n):
                if layout.owner(i, j) == rank:
                    store[(i, j)] = np.array(full.tile(i, j))
        runner = _KernelRunner(graph, self.coords, lambda i, j: store[(i, j)])
        sends = recvs = ran = 0

        for tid in range(len(graph)):
            if node[tid] != rank:
                continue
            if on_task is not None:
                on_task(rank, ran)
            # gather remote inputs
            for p in pred_idx[pred_ptr[tid] : pred_ptr[tid + 1]]:
                src = node[p]
                if src == rank:
                    continue
                payload = comm.recv(source=src, tag=self._tag(tid, p), rank=rank)
                recvs += 1
                for tile_key, data in payload["tiles"].items():
                    store[tile_key] = np.array(data)
                if payload["reflector"] is not None:
                    key = (runner.kind[p], runner.row[p], runner.panel[p])
                    runner.refs[key] = payload["reflector"]
            ref = runner.run_task(tid)
            ran += 1
            # publish to remote consumers: only the tiles the consumer
            # itself touches (anything else could overwrite a newer local
            # version on the destination rank), plus the reflector
            written = set(runner.tiles(tid))
            for s in succ[ptr[tid] : ptr[tid + 1]]:
                dest = node[s]
                if dest == rank:
                    continue
                needed = written & set(runner.tiles(s))
                payload = {
                    "tiles": {k: np.array(store[k]) for k in needed},
                    "reflector": ref,
                }
                comm.send(payload, dest=dest, tag=self._tag(s, tid), source=rank)
                sends += 1
        return RankResult(rank=rank, tiles=store, tasks_run=ran, sends=sends, recvs=recvs)

    # ------------------------------------------------------------------ #
    def run_threaded(self, A: np.ndarray, b: int) -> dict[int, RankResult]:
        """Run every rank on its own thread (ThreadComm); returns results."""
        results: dict[int, RankResult] = {}
        errors: list[BaseException] = []

        def worker(rank: int) -> None:
            try:
                results[rank] = self.run_rank(rank, A, b)
            except BaseException as exc:  # surface in the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(r,)) for r in range(self.comm.size)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if errors:
            raise errors[0]
        return results

    def gather_matrix(
        self, results: dict[int, RankResult], M: int, N: int, b: int
    ) -> np.ndarray:
        """Assemble the distributed tiles back into a dense matrix.

        A tile's final value lives on the rank that executed its *last
        writer* (e.g. the diagonal R tiles end up where the panel's final
        kill ran); untouched tiles come from their layout owner.
        """
        final_rank: dict[tuple[int, int], int] = {}
        tiles = _KernelRunner(self.graph, self.coords, None).tiles
        for tid, rank in enumerate(self._node):
            for tile in tiles(tid):
                final_rank[tile] = rank
        out = TiledMatrix.zeros(M, N, b)
        for res in results.values():
            for (i, j), data in res.tiles.items():
                holder = final_rank.get((i, j), self.layout.owner(i, j))
                if holder == res.rank:
                    out.tile(i, j)[...] = data
        return out.array


class ResilientEngine(DistributedEngine):
    """A :class:`DistributedEngine` that survives worker death.

    ``run_threaded`` supervises the worker threads: when a rank dies
    (injected via :class:`WorkerKill` or a real exception), the
    supervisor replays the rank's full message log
    (:meth:`ResilientComm.replay_to`) and re-executes it *inline* — the
    run gracefully degrades to fewer concurrent workers instead of
    hanging or failing.  Re-execution is safe because ranks are
    deterministic: a re-run consumes the same message sequence and
    produces bit-identical tiles, so peers that already consumed the
    first attempt's messages are unaffected (duplicates are simply never
    consumed).  Recoveries are bounded by ``max_recoveries`` per rank;
    receivers ride out the recovery window on :meth:`ResilientComm.recv`'s
    bounded retries.
    """

    def __init__(
        self, graph: CompiledGraph, coords, layout: Layout, comm, *,
        max_recoveries: int = 2,
    ):
        if not isinstance(comm, ResilientComm):
            raise TypeError(
                "ResilientEngine needs a ResilientComm (send log + retries)"
            )
        if max_recoveries < 1:
            raise ValueError("max_recoveries must be >= 1")
        super().__init__(graph, coords, layout, comm)
        self.max_recoveries = max_recoveries
        #: recoveries performed per rank in the last run_threaded call
        self.last_recoveries: dict[int, int] = {}

    def run_threaded(
        self, A: np.ndarray, b: int, *, kill: WorkerKill | None = None
    ) -> dict[int, RankResult]:
        """Supervised threaded run; ``kill`` injects one worker death."""
        results: dict[int, RankResult] = {}
        inbox: "queue.SimpleQueue" = queue.SimpleQueue()

        def on_task(rank: int, done: int) -> None:
            if kill is not None and rank == kill.rank and done == kill.after_tasks:
                raise InjectedWorkerDeath(
                    f"rank {rank} killed after {done} tasks"
                )

        def worker(rank: int) -> None:
            try:
                inbox.put(("ok", rank, self.run_rank(rank, A, b, on_task=on_task)))
            except BaseException as exc:
                inbox.put(("dead", rank, exc))

        threads = [
            threading.Thread(target=worker, args=(r,), daemon=True)
            for r in range(self.comm.size)
        ]
        for th in threads:
            th.start()

        self.last_recoveries = {}
        remaining = self.comm.size
        while remaining:
            status, rank, payload = inbox.get()
            if status == "ok":
                results[rank] = payload
                remaining -= 1
                continue
            tries = self.last_recoveries.get(rank, 0)
            if tries >= self.max_recoveries:
                raise RuntimeError(
                    f"rank {rank} failed {tries + 1} times; giving up"
                ) from payload
            self.last_recoveries[rank] = tries + 1
            self.comm.replay_to(rank)
            # inline re-execution: the pool degrades to fewer workers
            # (only injected deaths strike once — the re-run gets no hook)
            try:
                results[rank] = self.run_rank(rank, A, b)
                remaining -= 1
            except BaseException as exc:
                inbox.put(("dead", rank, exc))
        for th in threads:
            th.join()
        return results
