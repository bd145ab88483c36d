"""Engine-independent schedule-legality oracle.

Differential testing only proves the engines agree; the oracle proves the
schedule they agree *on* is physically possible.  Given the reference
engine's task trace ``(task, node, start, end)`` and comm trace
``(producer, src, dst, depart, arrival)``, it re-derives every resource
constraint from the machine description alone:

1.  **completeness** — every task runs exactly once, for exactly its
    kernel duration, on the node the layout assigns it;
2.  **core occupancy** — at no instant does a node run more tasks than it
    has cores;
3.  **channel serialization** — under ``comm_serialized``, the transfer
    intervals touching one node's single communication channel never
    overlap;
4.  **data arrivals** — no task starts before its last input lands (local
    predecessor finish, or the recorded message arrival for cross-node
    edges, which must exist);
5.  **makespan bound** — the makespan dominates the
    :func:`~repro.models.bounds.list_bound` bound (critical path with
    link costs, busiest node's work, busiest serialized channel) of the
    elimination list the graph's kill kernels record; with the native
    core, tune's two-column pass
    (:func:`~repro.models.bounds.elimination_bound`) over the same list
    reads the same node work bitwise and a critical path at most the
    full pass's and the makespan;
6.  **message accounting** — the run's message count is the comm
    trace's length and the list pass's count (one message per producer
    and destination node, read from the list with no event loop), and
    its bytes are that many tiles; for balanced (cyclic) layouts on more
    than one node, per-node message volume dominates the
    communication-avoiding lower bound.

Resource checks compare exact doubles: the oracle re-performs the same
float operations the engines do (``tile_bytes / bandwidth``, ``depart +
latency + bwt``), so a violation is a scheduling bug, never rounding.
The makespan bound takes no slack: the list pass keeps its own
``1 - 2**-30`` rounding margin.  Only the bandwidth bound, a formula
rather than a replay, gets a 1e-9 relative slack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.weights import KernelKind
from repro.models.bounds import (
    bandwidth_lower_bound_words,
    elimination_bound,
    list_bound,
)
from repro.runtime.core import SimulationResult
from repro.tiles.layout import BlockCyclic2D, Cyclic1D
from repro.trees.base import EliminationArray
from repro.verify.reference import TaskGraph

#: relative slack for the bandwidth formula only
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class OracleViolation:
    """One broken invariant, with enough detail to localize it."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.invariant}: {self.detail}"


def check_schedule(
    case, graph: TaskGraph, result: SimulationResult
) -> list[OracleViolation]:
    """All invariant violations of a traced run (empty list = legal)."""
    if result.trace is None or result.comm_trace is None:
        raise ValueError("oracle needs a traced reference run")
    machine = case.machine()
    layout = case.layout()
    b = case.b
    out: list[OracleViolation] = []
    ntasks = len(graph.tasks)
    tile_bytes = machine.tile_bytes(b)

    # -- 1. completeness: every task exactly once, right duration/node -- #
    seen = [0] * ntasks
    start = [0.0] * ntasks
    end = [0.0] * ntasks
    node_of = [-1] * ntasks
    for t, node, s, e in result.trace:
        seen[t] += 1
        start[t], end[t], node_of[t] = s, e, node
    missing = [t for t in range(ntasks) if seen[t] != 1]
    if missing:
        out.append(
            OracleViolation(
                "completeness",
                f"{len(missing)} tasks not executed exactly once "
                f"(first: {missing[:5]})",
            )
        )
        return out  # everything below assumes a complete trace
    for t, task in enumerate(graph.tasks):
        d = machine.task_seconds(task.kind, b)
        if end[t] != start[t] + d:
            out.append(
                OracleViolation(
                    "duration",
                    f"task {t} ran [{start[t]}, {end[t]}] but "
                    f"{task.kind.value} takes {d}",
                )
            )
            break
        col = task.panel if task.col < 0 else task.col
        if node_of[t] != layout.owner(task.row, col):
            out.append(
                OracleViolation(
                    "placement",
                    f"task {t} ran on node {node_of[t]}, layout owns "
                    f"({task.row}, {col}) -> {layout.owner(task.row, col)}",
                )
            )
            break

    # -- 2. core occupancy ---------------------------------------------- #
    per_node: dict[int, list[tuple[float, int]]] = {}
    for t in range(ntasks):
        # at equal timestamps a core freed at time x is reusable at x:
        # sort ends (delta -1) before starts (delta +1)
        per_node.setdefault(node_of[t], []).append((end[t], -1))
        per_node[node_of[t]].append((start[t], +1))
    for node, events in per_node.items():
        events.sort()
        load = 0
        for when, delta in events:
            load += delta
            if load > machine.cores_per_node:
                out.append(
                    OracleViolation(
                        "core-occupancy",
                        f"node {node} runs {load} tasks at t={when} with "
                        f"{machine.cores_per_node} cores",
                    )
                )
                break

    # -- 3. channel serialization --------------------------------------- #
    arrivals: dict[tuple[int, int], float] = {}
    if machine.comm_serialized:
        busy: dict[int, list[tuple[float, float]]] = {}
    else:
        busy = {}
    for prod, src, dst, depart, arrival in result.comm_trace:
        arrivals[(prod, dst)] = arrival
        if machine.comm_serialized:
            _, bw = machine.link(src, dst)
            bwt = tile_bytes / bw if bw != float("inf") else 0.0
            busy.setdefault(src, []).append((depart, depart + bwt))
            busy.setdefault(dst, []).append((depart, depart + bwt))
    for node, intervals in busy.items():
        intervals.sort()
        for (d0, e0), (d1, _) in zip(intervals, intervals[1:]):
            # duplicate (depart, end) pairs are the two endpoints of one
            # transfer when src and dst coincide in the dict — impossible
            # (cross-node only) — so any overlap is a real double-booking
            if d1 < e0:
                out.append(
                    OracleViolation(
                        "channel-overlap",
                        f"node {node} channel busy [{d0}, {e0}] overlaps "
                        f"transfer departing {d1}",
                    )
                )
                break

    # -- 4. data arrivals ------------------------------------------------ #
    for t in range(ntasks):
        for p in graph.predecessors[t]:
            if node_of[p] == node_of[t]:
                if start[t] < end[p]:
                    out.append(
                        OracleViolation(
                            "data-arrival",
                            f"task {t} starts at {start[t]} before local "
                            f"predecessor {p} finishes at {end[p]}",
                        )
                    )
                    break
            else:
                arr = arrivals.get((p, node_of[t]))
                if arr is None:
                    out.append(
                        OracleViolation(
                            "data-arrival",
                            f"no message recorded for cross-node edge "
                            f"{p} (node {node_of[p]}) -> {t} (node {node_of[t]})",
                        )
                    )
                    break
                if start[t] < arr:
                    out.append(
                        OracleViolation(
                            "data-arrival",
                            f"task {t} starts at {start[t]} before its input "
                            f"from {p} arrives at {arr}",
                        )
                    )
                    break
        else:
            continue
        break

    # -- 5. makespan lower bound ----------------------------------------- #
    # a kill kernel is its elimination: (panel, victim, killer, ts)
    kill_kinds = (KernelKind.TSQRT, KernelKind.TTQRT)
    kills = [t for t in graph.tasks if t.kind in kill_kinds]
    elims = EliminationArray(
        [t.panel for t in kills], [t.row for t in kills],
        [t.killer for t in kills], [t.kind is KernelKind.TSQRT for t in kills],
    )
    gb = list_bound(elims, case.m, case.n, layout, machine, b)
    if result.makespan < gb.bound:
        out.append(
            OracleViolation(
                "makespan-bound",
                f"makespan {result.makespan} beats the lower bound {gb.bound}",
            )
        )
    listed = elimination_bound(elims, case.m, case.n, layout, machine, b)
    if listed is not None:  # None without the native core
        path, work = listed
        if work != gb.node_work or path > gb.critical_path:
            out.append(
                OracleViolation(
                    "list-bound",
                    f"two-column pass (path {path}, node work {work}) "
                    f"against the full pass (path {gb.critical_path}, node "
                    f"work {gb.node_work})",
                )
            )
        if result.makespan < path:
            out.append(
                OracleViolation(
                    "makespan-bound",
                    f"makespan {result.makespan} beats the two-column "
                    f"pass's critical path {path}",
                )
            )
    if ntasks and result.makespan != max(end):
        out.append(
            OracleViolation(
                "makespan-trace",
                f"reported makespan {result.makespan} != last trace end "
                f"{max(end)}",
            )
        )

    # -- 6. message accounting and bandwidth bound ----------------------- #
    if result.messages != len(result.comm_trace):
        out.append(
            OracleViolation(
                "message-count",
                f"{result.messages} messages reported, "
                f"{len(result.comm_trace)} in the comm trace",
            )
        )
    if result.messages != gb.messages:
        out.append(
            OracleViolation(
                "message-count",
                f"{result.messages} messages reported, {gb.messages} by the "
                f"list pass",
            )
        )
    if result.bytes_sent != result.messages * tile_bytes:
        out.append(
            OracleViolation(
                "message-bytes",
                f"bytes_sent {result.bytes_sent} != {result.messages} "
                f"messages x {tile_bytes} tile bytes",
            )
        )
    if isinstance(layout, (BlockCyclic2D, Cyclic1D)) and layout.nodes > 1:
        words_per_node = result.bytes_sent / 8 / layout.nodes
        # the strict Irony-Toledo-Tiskin form keeps the -W memory term the
        # asymptotic helper drops: F / (P sqrt(8 W)) - W.  The helper alone
        # is only valid when N >> P sqrt(W) and is genuinely violated by
        # legal schedules at verify-scale matrices (a 2x2-tile matrix on 3
        # nodes needs zero messages); with -W the bound is a theorem at
        # every scale.
        M, N = case.m * b, case.n * b
        memory_words = 2.0 * M * N / layout.nodes
        bw_bound = (
            bandwidth_lower_bound_words(M, N, layout.nodes) - memory_words
        )
        if words_per_node < bw_bound * (1.0 - _BOUND_SLACK):
            out.append(
                OracleViolation(
                    "bandwidth-bound",
                    f"{words_per_node} words/node beats the "
                    f"communication lower bound {bw_bound}",
                )
            )
    return out
