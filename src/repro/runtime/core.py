"""The unified event-loop core — every simulator engine's single source.

This module states the cluster event loop **once** (it was four
bitwise-equivalent copies, each drifting on its own), parameterized by
capability flags:

* **inner loop** — the native C core (:mod:`repro._ccore`) when it
  loaded and no Python-visible capability (tracing, fault hooks) is
  asked, else the pure-Python loop below: chosen from what the process
  can run, never from a switch;
* **tracing** — ``record_trace=True`` captures the task trace and (in
  fault-free runs) the comm trace and the ready-queue series: the one
  per-task record of a run, read by the verify oracle, ``repro metrics``,
  ``repro obs report`` and ``repro gantt``;
* **observability** — each dispatch opens one ``simulate`` span (its
  ``engine`` attribute names the loop) on an attached request trace, so
  the schedule and every float are identical with or without a trace;
* **fault hooks** — a :class:`FaultHooks` bundle (schedule + replan
  callback) turns on the failure-aware branch: per-edge satisfaction,
  generation counters, lineage-cone recovery, message drops.  With an
  *empty* schedule the fault branch is bit-identical to the fault-free
  branch (asserted by ``tests/runtime/test_core_equivalence.py``).

Event encoding is uniform across all modes: heap entries are
``(time, code, gen)`` where ``code = task`` for a finish,
``ntasks + task`` for a data arrival, and ``2*ntasks + i`` for crash
``i``.  At equal times this orders finishes before arrivals before
crashes and each kind by task id (the golden fixtures of
``tests/runtime/golden.py`` pin it).

Ready queues hold dense priority *ranks*: the rank permutation sorts
``(priority, task id)``, so rank order reproduces the reference
scheduler's tie-breaking exactly, and ``prio=None`` (program order)
makes ranks the identity.

Front ends (:mod:`repro.resilience.simulate`, the verifier's reference
simulator) are thin adapters over :func:`run_core` and
:func:`run_core_batch`; :mod:`repro.bench.runner`'s misses reach the C
loop through :func:`_c_answers`, one native call that also plans.
"""

from __future__ import annotations

import ctypes
import heapq
import os
from dataclasses import dataclass, field
from typing import Callable

from repro import _ccore
from repro._ccore import address, typed
from repro.dag.compiled import CompiledGraph, _transpose, duration_table
from repro.obs.tracing import span
from repro.runtime.machine import Machine

__all__ = [
    "CoreOutcome",
    "FaultHooks",
    "FaultOutcome",
    "SimulationResult",
    "priority_ranks",
    "qr_flops",
    "run_core",
    "run_core_batch",
    "sim_threads",
]


@dataclass
class SimulationResult:
    """Outcome of one simulated run."""

    makespan: float
    flops: float
    messages: int
    bytes_sent: int
    busy_seconds: float
    cores: int
    trace: list[tuple[int, int, float, float]] | None = None  # (task, node, start, end)
    #: (producer task, src node, dst node, depart, arrival) per message —
    #: recorded by the Python loop under ``record_trace``; consumed by
    #: the schedule-legality oracle in :mod:`repro.verify`
    comm_trace: list[tuple[int, int, int, float, float]] | None = None
    #: (time, node, depth) after each change of a node's ready queue —
    #: recorded beside ``comm_trace``
    queue_trace: list[tuple[float, int, int]] | None = None

    @property
    def gflops(self) -> float:
        """Achieved performance in GFlop/s (useful flops / makespan)."""
        return self.flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of core-seconds spent computing."""
        total = self.makespan * self.cores
        return self.busy_seconds / total if total > 0 else 0.0

    def percent_of_peak(self, machine: Machine) -> float:
        """GFlop/s as a percentage of the machine's theoretical peak."""
        return 100.0 * self.gflops / machine.peak_gflops()

    @classmethod
    def of(cls, machine: Machine, b: int, M: int, N: int, makespan: float,
           busy: float, messages: int, **traces) -> "SimulationResult":
        """The run of an ``M x N`` matrix's graph on ``machine`` (no flops
        for an empty graph, ``M = 0``)."""
        return cls(makespan, qr_flops(M, N) if M else 0.0, messages,
                   messages * machine.tile_bytes(b), busy, machine.cores, **traces)


def qr_flops(M: int, N: int) -> float:
    """Useful flops of a QR factorization: ``2 M N^2 - 2/3 N^3`` (M >= N)."""
    if M >= N:
        return 2.0 * M * N * N - 2.0 * N**3 / 3.0
    # wide case: M reflectors swept across N columns
    return 2.0 * N * M * M - 2.0 * M**3 / 3.0


# --------------------------------------------------------------------- #
# thread count
# --------------------------------------------------------------------- #
def sim_threads() -> int:
    """OpenMP threads of a batched native call (``REPRO_SIM_THREADS``), and
    nothing else: 0 (the default) lets the OpenMP runtime pick, and a core
    built without OpenMP runs a batch serially.  Points are independent,
    so any count is bit-identical.
    """
    env = os.environ.get("REPRO_SIM_THREADS")
    if not env:
        return 0
    try:
        return max(0, int(env))
    except ValueError:
        raise ValueError(
            f"REPRO_SIM_THREADS must be an integer, got {env!r}"
        ) from None


def priority_ranks(prio, ntasks: int) -> tuple:
    """Dense rank permutation of a priority vector.

    Returns int32 ``(rank, task_of_rank)`` with ``rank[t]`` unique and
    ordered exactly like the reference scheduler's ``(prio[t], t)`` keys;
    ``None`` means program order (identity, with no numpy).
    """
    if prio is None:
        ident = typed("i", range(ntasks))
        return ident, ident
    import numpy as np

    arr = None
    try:
        cand = np.asarray(prio)
        if cand.shape == (ntasks,) and cand.dtype.kind in "iuf":
            arr = cand
    except (ValueError, TypeError):  # ragged / non-numeric priorities
        arr = None
    if arr is not None:
        order = np.lexsort((np.arange(ntasks), arr)).astype(np.int32)
    else:
        order = np.array(
            sorted(range(ntasks), key=lambda t: (prio[t], t)), dtype=np.int32
        )
    rank = np.empty(ntasks, dtype=np.int32)
    rank[order] = np.arange(ntasks, dtype=np.int32)
    return rank, order


#: why a loop refuses a graph whose count of some task does not end at 0:
#: above the in-degree it stalls the task, below it starts the task early
_WAIT_MISMATCH = "a wait count that is not the task's number of predecessors"


def _wait_mismatch(waiting) -> ValueError:
    """The refusal of a Python loop: names the first task left nonzero."""
    t = next(t for t, w in enumerate(waiting) if w)
    return ValueError(f"task {t}: {_WAIT_MISMATCH}")


# --------------------------------------------------------------------- #
# capability-flag bundles
# --------------------------------------------------------------------- #
@dataclass
class FaultHooks:
    """Fault-injection capability: a schedule plus a re-planning callback.

    ``replan(dead)`` returns the post-crash node of *every* task given
    the set of dead nodes (only tasks currently placed on dead nodes are
    moved).  ``fault_events`` is appended to in injection order; the
    front end sorts/publishes it.
    """

    schedule: object
    replan: Callable[[set], list]
    fault_events: list = field(default_factory=list)


@dataclass
class FaultOutcome:
    """Recovery accounting produced by a fault-hooked run."""

    executions: int = 0  # total task executions (>= ntasks under crashes)
    aborted: int = 0
    wasted: float = 0.0
    refetches: int = 0
    dropped: int = 0
    retransmits: int = 0
    dead: tuple = ()
    fault_events: list = field(default_factory=list)


@dataclass
class CoreOutcome:
    """What one :func:`run_core` invocation produced."""

    result: SimulationResult
    fault: FaultOutcome | None = None
    engine: str = "python"  # inner loop actually used ("c" or "python")


def _machine_params(machine: Machine, b: int):
    """Flattened link/topology parameters shared by every loop mode."""
    tile_bytes = machine.tile_bytes(b)
    hierarchical = machine.site_size > 0
    inf = float("inf")
    bwt_intra = tile_bytes / machine.bandwidth if machine.bandwidth != inf else 0.0
    bwt_inter = (
        tile_bytes / machine.inter_site_bandwidth if hierarchical else 0.0
    )
    if hierarchical:
        site = [node // machine.site_size for node in range(machine.nodes)]
    else:
        site = [0] * machine.nodes
    return (
        machine.nodes,
        machine.cores_per_node,
        machine.comm_serialized,
        hierarchical,
        machine.latency,
        bwt_intra,
        machine.inter_site_latency,
        bwt_inter,
        site,
    )


# --------------------------------------------------------------------- #
# the single Python event loop
# --------------------------------------------------------------------- #
def _py_loop(
    ntasks, nnodes, cores_per_node, dur, node, waiting,
    sp, si, rank, task_of_rank,
    serialized, hierarchical, lat_intra, bwt_intra, lat_inter, bwt_inter, site,
    *,
    record_trace=False,
    fault: FaultHooks | None = None,
    pred_ptr=None,
    pred_idx=None,
):
    """The unified cluster event loop (pure-Python inner loop).

    One body serves every capability combination; each per-mode branch
    states an invariant exactly once.  All inputs are plain lists/ints so
    the hot loop never touches numpy.  Returns
    ``(finish_time, busy, messages, trace, comm, queue, fault_out)``.
    """
    faulty = fault is not None
    push, pop = heapq.heappush, heapq.heappop

    data_ready = [0.0] * ntasks
    free_cores = [cores_per_node] * nnodes
    ready = [[] for _ in range(nnodes)]
    chan_free = [0.0] * nnodes
    # the C loop's message rule: the producer that last sent to a node,
    # and when that tile lands there
    sent_by = [-1] * nnodes
    sent_at = [0.0] * nnodes
    state = bytearray(ntasks)  # 0 new, 1 queued, 2 launched
    events: list[tuple[float, int, int]] = []
    busy = 0.0
    finish_time = 0.0
    messages = 0

    trace = [] if record_trace else None
    comm = [] if (record_trace and not faulty) else None
    queue = [] if comm is not None else None
    queued = [0] * nnodes if queue is not None else None

    if faulty:
        schedule = fault.schedule
        replan = fault.replan
        fault_events = fault.fault_events
        sent: dict[tuple[int, int], float] = {}  # (producer, dest) -> arrival
        sat: set[tuple[int, int]] = set()  # satisfied (producer, consumer)
        finished = bytearray(ntasks)
        exec_node = [-1] * ntasks  # node that ran the last finished execution
        gen = [0] * ntasks  # invalidates stale finish/arrival events
        start_of = [0.0] * ntasks
        cur_dur = [0.0] * ntasks
        dead: set[int] = set()
        pp, pi = pred_ptr, pred_idx
        refetches = dropped = retransmits = 0
        executions = aborted = 0
        msg_index = 0
        wasted = 0.0

    def link_params(src: int, dst: int) -> tuple[float, float]:
        if hierarchical and site[src] != site[dst]:
            return lat_inter, bwt_inter
        return lat_intra, bwt_intra

    def try_start(t: int, now: float) -> None:
        nd = node[t]
        dr = data_ready[t]
        start = dr if dr > now else now
        if free_cores[nd] > 0:
            free_cores[nd] -= 1
            launch(t, start)
        else:
            state[t] = 1
            push(ready[nd], rank[t])
            if queue is not None:
                queued[nd] += 1
                queue.append((now, nd, queued[nd]))

    if faulty:

        def launch(t: int, start: float) -> None:
            nonlocal busy
            state[t] = 2
            d = dur[t] * schedule.slowdown_factor(node[t], start)
            start_of[t] = start
            cur_dur[t] = d
            # account busy at launch, in launch order — the same summation
            # order as the fault-free branch, so an empty schedule stays
            # bit-identical; aborts subtract the full duration back out
            busy += d
            push(events, (start + d, t, gen[t]))

        def transfer(src: int, dst: int, now: float) -> float:
            """Arrival time of one tile src -> dst departing at ``now``."""
            nonlocal messages, dropped, retransmits, msg_index
            lat, bwt = link_params(src, dst)
            if serialized:
                depart = now
                if chan_free[src] > depart:
                    depart = chan_free[src]
                if chan_free[dst] > depart:
                    depart = chan_free[dst]
                chan_free[src] = depart + bwt
                chan_free[dst] = depart + bwt
            else:
                depart = now
            arrival = depart + lat + bwt
            messages += 1
            idx = msg_index
            msg_index += 1
            if schedule.drops_message(idx):
                # lost on the wire: NACK after the timeout, send again
                dropped += 1
                retransmits += 1
                messages += 1
                arrival += schedule.retransmit_timeout + lat + bwt
                fault_events.append(
                    {"type": "drop", "time": depart, "src": src, "dst": dst}
                )
            return arrival

        def handle_crash(n: int, tc: float) -> None:
            """Abort, compute the recovery cone, re-plan, and rebuild."""
            nonlocal aborted, busy, wasted, refetches, messages
            dead.add(n)
            recovery = tc + schedule.detection_latency
            fault_events.append({"type": "crash", "time": tc, "node": n})

            n_aborted = 0
            for t in range(ntasks):
                if state[t] == 2 and not finished[t] and node[t] == n:
                    state[t] = 0
                    gen[t] += 1
                    busy -= cur_dur[t]  # aborted work is wasted, not busy
                    wasted += tc - start_of[t]
                    n_aborted += 1
            aborted += n_aborted

            # re-plan every pending task off the dead nodes
            targets = replan(dead)
            touched = set()  # tasks that may not restart before detection
            for t in range(ntasks):
                if not finished[t] and node[t] in dead:
                    node[t] = targets[t]
                    touched.add(t)

            # deliveries to dead nodes and transfers in flight from a dead
            # sender are lost
            for key in [
                k
                for k, a in sent.items()
                if k[1] in dead or (a > tc and exec_node[k[0]] in dead)
            ]:
                del sent[key]
            # surviving replica locations: node the producer ran on (if
            # alive) plus every alive node a copy had arrived at by tc
            replicas: dict[int, int] = {}
            for (p, d2), a in sent.items():
                if a <= tc and (p not in replicas or d2 < replicas[p]):
                    replicas[p] = d2
            for p in range(ntasks):
                if finished[p] and exec_node[p] not in dead:
                    replicas[p] = exec_node[p]

            # recovery cone: lost outputs transitively needed by pending
            # work — the DAG is the unit of re-execution
            n_redo = 0
            stack = [t for t in range(ntasks) if not finished[t]]
            while stack:
                t = stack.pop()
                for j in range(pp[t], pp[t + 1]):
                    p = pi[j]
                    if finished[p] and p not in replicas:
                        finished[p] = 0
                        state[p] = 0
                        gen[p] += 1
                        n_redo += 1
                        touched.add(p)
                        if node[p] in dead:
                            node[p] = targets[p]
                        stack.append(p)
            fault_events.append(
                {
                    "type": "recovery",
                    "time": recovery,
                    "node": n,
                    "reexecuted": n_redo,
                    "aborted": n_aborted,
                }
            )

            # rebuild scheduler state: per-edge satisfaction, data arrival
            # floors, ready queues, core counts
            for heap in ready:
                heap.clear()
            for nd in range(nnodes):
                if nd in dead:
                    free_cores[nd] = 0
                else:
                    running = sum(
                        1
                        for t in range(ntasks)
                        if state[t] == 2
                        and not finished[t]
                        and node[t] == nd
                    )
                    free_cores[nd] = cores_per_node - running
            seeds = []
            for t in range(ntasks):
                if finished[t] or state[t] == 2:
                    continue
                state[t] = 0
                w = 0
                dr = recovery if t in touched else 0.0
                for j in range(pp[t], pp[t + 1]):
                    p = pi[j]
                    if not finished[p]:
                        sat.discard((p, t))
                        w += 1
                        continue
                    dst = node[t]
                    if exec_node[p] == dst:
                        sat.add((p, t))
                        continue
                    a = sent.get((p, dst))
                    if a is None:
                        # re-fetch from a surviving replica after detection
                        lat, bwt = link_params(replicas[p], dst)
                        a = recovery + lat + bwt
                        sent[(p, dst)] = a
                        refetches += 1
                        messages += 1
                    sat.add((p, t))
                    if a > dr:
                        dr = a
                waiting[t] = w
                data_ready[t] = dr
                if w == 0:
                    seeds.append(t)
            for t in seeds:
                if data_ready[t] <= tc:
                    try_start(t, tc)
                else:
                    push(events, (data_ready[t], ntasks + t, gen[t]))

    else:

        def launch(t: int, start: float) -> None:
            nonlocal busy, finish_time
            state[t] = 2
            d = dur[t]
            end = start + d
            busy += d
            if end > finish_time:
                finish_time = end
            push(events, (end, t, 0))
            if trace is not None:
                trace.append((t, node[t], start, end))

    # seed roots (and, under fault hooks, the crash events)
    for t in range(ntasks):
        if waiting[t] == 0:
            try_start(t, 0.0)
    if faulty:
        for ci, c in enumerate(schedule.crashes):
            push(events, (c.time, 2 * ntasks + ci, 0))

    two_n = 2 * ntasks
    while events:
        now, code, g = pop(events)
        if code >= ntasks:
            if code >= two_n:  # crash event (fault hooks only)
                handle_crash(schedule.crashes[code - two_n].node, now)
                continue
            a = code - ntasks
            if faulty:
                # gated: a crash may have invalidated this arrival
                if gen[a] == g and state[a] == 0 and waiting[a] == 0:
                    try_start(a, now)
            else:
                try_start(a, now)
            continue
        # task finish
        t = code
        if faulty:
            if gen[t] != g:  # aborted execution
                continue
            nd = node[t]
            finished[t] = 1
            exec_node[t] = nd
            executions += 1
            if now > finish_time:
                finish_time = now
            if trace is not None:
                trace.append((t, nd, start_of[t], now))
        else:
            nd = node[t]
        # the freed core picks its next task
        nxt = -1
        heap = ready[nd]
        while heap:
            cand = task_of_rank[pop(heap)]
            if state[cand] == 1:
                nxt = cand
                break
        if nxt >= 0:
            if queue is not None:
                queued[nd] -= 1
                queue.append((now, nd, queued[nd]))
            dr = data_ready[nxt]
            launch(nxt, dr if dr > now else now)
        else:
            free_cores[nd] += 1
        # propagate data to successors
        for i in range(sp[t], sp[t + 1]):
            s = si[i]
            if faulty:
                # per-edge satisfaction: a re-executed producer must not
                # double-release a consumer
                if finished[s] or (t, s) in sat:
                    continue
                dest = node[s]
                if dest == nd:
                    arrival = now
                else:
                    key = (t, dest)
                    arrival = sent.get(key, -1.0)
                    if arrival < 0:
                        arrival = transfer(nd, dest, now)
                        sent[key] = arrival
                sat.add((t, s))
            else:
                dest = node[s]
                if dest == nd:
                    arrival = now
                elif sent_by[dest] == t:
                    arrival = sent_at[dest]
                else:
                    if hierarchical and site[nd] != site[dest]:
                        lat, bwt = lat_inter, bwt_inter
                    else:
                        lat, bwt = lat_intra, bwt_intra
                    if serialized:
                        # the transfer holds both endpoints' single
                        # communication channel for its bandwidth term
                        depart = now
                        if chan_free[nd] > depart:
                            depart = chan_free[nd]
                        if chan_free[dest] > depart:
                            depart = chan_free[dest]
                        chan_free[nd] = depart + bwt
                        chan_free[dest] = depart + bwt
                        arrival = depart + lat + bwt
                    else:
                        depart = now
                        arrival = now + lat + bwt
                    sent_by[dest] = t
                    sent_at[dest] = arrival
                    messages += 1
                    if comm is not None:
                        comm.append((t, nd, dest, depart, arrival))
            if arrival > data_ready[s]:
                data_ready[s] = arrival
            waiting[s] -= 1
            if waiting[s] == 0:
                # do not tie up a core before the slowest input lands
                avail = data_ready[s]
                if avail <= now:
                    try_start(s, now)
                else:
                    push(
                        events,
                        (avail, ntasks + s, gen[s] if faulty else 0),
                    )

    if any(waiting):
        raise _wait_mismatch(waiting)
    if faulty:
        if not all(finished):  # pragma: no cover - recovery bug guard
            raise RuntimeError(
                f"fault simulation stalled: "
                f"{ntasks - sum(finished)} tasks unfinished"
            )
        fault_out = FaultOutcome(
            executions=executions,
            aborted=aborted,
            wasted=wasted,
            refetches=refetches,
            dropped=dropped,
            retransmits=retransmits,
            dead=tuple(sorted(dead)),
            fault_events=fault_events,
        )
    else:
        fault_out = None
    return finish_time, busy, messages, trace, comm, queue, fault_out


# --------------------------------------------------------------------- #
# native inner loop
# --------------------------------------------------------------------- #
#: CompiledGraph arrays the native loop reads in place, with the item
#: format it expects of each (argument order of ``hqr_simulate_cluster_batch``)
_NATIVE_FIELDS = (
    ("dur_table", "d"),
    ("kind", "b"),
    ("node", "h"),
    ("wait", "B"),
    ("succ_ptr", "i"),
    ("succ_idx", "i"),
)


def _normalised(arr, fmt: str, j: int, name: str):
    """``arr`` as a contiguous ndarray of format ``fmt`` — an array no
    builder emits: a slice, another dtype — refusing a value that changes."""
    import numpy as np

    out = np.ascontiguousarray(arr, fmt)
    if out is not arr and not np.array_equal(out, arr):
        raise ValueError(f"graph {j}: {name} values outside {out.dtype}")
    return out


def _graph_columns(graphs) -> list[list]:
    """Every graph's ``_NATIVE_FIELDS`` arrays, one list per field.

    The C entries take one table of array addresses per field, so nothing
    is packed or copied: every builder's typed view is handed over as is
    (:func:`repro._ccore.typed` returns it unchanged), any other array is
    normalised first, by value.  Refuses a value the normalising changes
    (a node past int16) and lengths that do not describe one graph.  The
    caller keeps the lists referenced until its call returns.
    """
    columns = [[] for _ in _NATIVE_FIELDS]
    for j, cg in enumerate(graphs):
        for column, (name, fmt) in zip(columns, _NATIVE_FIELDS):
            arr = getattr(cg, name)
            if isinstance(arr, memoryview) and arr.format == fmt:
                arr = typed(fmt, arr)  # itself, or a slice copied whole
            else:
                arr = _normalised(arr, fmt, j, name)
            column.append(arr)
    dur_table, kind, node, wait, succ_ptr, succ_idx = columns
    for j in range(len(graphs)):
        nt, ne = len(kind[j]), len(succ_idx[j])
        if not (
            len(dur_table[j]) == 6
            and len(node[j]) == len(wait[j]) == nt
            and len(succ_ptr[j]) == nt + 1
            and succ_ptr[j][nt] == ne
        ):
            raise ValueError(
                f"graph {j}: array lengths do not describe one graph "
                f"({nt} tasks, {ne} successor edges)"
            )
    return columns


def _address_tables(columns) -> list:
    """Per column, a C table of its arrays' addresses, one per graph (NULL
    for ``None``): what a C table argument takes."""
    return [
        (ctypes.c_void_p * len(col))(*[None if a is None else address(a) for a in col])
        for col in columns
    ]


def _outputs(npoints: int, *types) -> list:
    """One zeroed C array of ``npoints`` items per ctypes type in ``types``."""
    return [(ctype * npoints)() for ctype in types]


def _machine_args(machine: Machine, b: int) -> list:
    """:func:`_machine_params` as the batched C entries take them."""
    *params, site = _machine_params(machine, b)
    params[2:4] = (int(params[2]), int(params[3]))  # serialized, hierarchical
    return [*params, (ctypes.c_int32 * len(site))(*site)]


def _c_cluster_batch(lib, graphs, prios, machine: Machine, b: int):
    """One Python->C call over ``graphs``, each read where it lies.

    Returns ``(makespans, busys, messages)`` arrays, or ``None`` after an
    allocation failure (the caller retries in Python).  A graph the loop
    refuses (a kind or node it cannot index with, a wrong wait count)
    raises ``ValueError``: that is bad input, not a reason to fall back.
    """
    npoints = len(graphs)
    columns = _graph_columns(graphs)
    kind = columns[1]
    # only an explicit priority vector costs a rank permutation; address 0
    # (NULL) tells the C loop to run that graph in program order
    columns.extend(zip(*(
        (None, None) if prio is None else priority_ranks(prio, len(kind[j]))
        for j, prio in enumerate(prios)
    )))  # the rank column, then the task_of_rank column
    tables = _address_tables(columns)
    ntasks = (ctypes.c_int64 * npoints)(*[len(k) for k in kind])
    args = _machine_args(machine, b)
    out_mk, out_busy, out_msgs, out_rc = _outputs(
        npoints, ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_int32
    )
    if lib.hqr_simulate_cluster_batch(
        npoints, sim_threads(), ntasks, *tables, *args,
        out_mk, out_busy, out_msgs, out_rc,
    ):
        _refuse(out_rc, args[0], (1, _WAIT_MISMATCH))
        return None  # allocation failure somewhere: retry in Python
    return out_mk, out_busy, out_msgs


def _refuse(out_rc, nnodes: int, *codes) -> None:
    """``ValueError`` naming the first graph a batched C entry refused with
    rc 2 or one of ``codes``' ``(rc, reason)`` pairs; else returns."""
    reasons = ((2, f"a task kind outside [0, 6) or a node outside [0, {nnodes})"),)
    rcs = list(out_rc)
    for code, what in reasons + codes:
        if code in rcs:
            raise ValueError(f"graph {rcs.index(code)}: {what}")


def _c_answers(lib, questions, machine: Machine, b: int) -> list:
    """``hqr_answer_batch`` over ``(m, n, config, layout)`` questions, one
    GIL-free call that expands, builds and runs each, keeping no graph:
    ``(result, ntasks, (elim, build, simulate) seconds)`` per question, or
    ``None`` where it has no tree tables, a node past int16 or a refusal."""
    from repro.dag.compiled import _owners
    from repro.hqr.hierarchy import HQRTree

    spec, held, taken = [], [], []
    for j, (m, n, cfg, layout) in enumerate(questions):
        tables, (owner, bad) = HQRTree(m, n, cfg).tables(), _owners(layout, m, n)
        if tables is None or bad >= 0:
            continue
        low, high = tables
        taken.append(j)
        spec += [m, n, cfg.p, cfg.a, cfg.domino, len(low[0]) - 1, len(high[0]) - 1]
        held += [*low, *high, owner]
    out, npoints, dur = [None] * len(questions), len(taken), duration_table(machine, b)
    out_mk, out_busy, out_msgs, out_ntasks, out_rc, out_ns = _outputs(
        npoints, ctypes.c_double, ctypes.c_double, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int32, ctypes.c_int64 * 3,
    )
    if npoints:
        lib.hqr_answer_batch(
            npoints, sim_threads(), (ctypes.c_int64 * len(spec))(*spec),
            (ctypes.c_void_p * len(held))(*map(address, held)), address(dur),
            *_machine_args(machine, b), out_mk, out_busy, out_msgs, out_ntasks,
            out_ns, out_rc,
        )
    for t, j in enumerate(taken):
        m, n = questions[j][:2]
        out[j] = None if out_rc[t] else (
            SimulationResult.of(machine, b, m * b, n * b, out_mk[t], out_busy[t],
                                out_msgs[t]),
            out_ntasks[t], tuple(ns / 1e9 for ns in out_ns[t]),
        )
    return out


# --------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------- #
def run_core(
    cg: CompiledGraph,
    machine: Machine,
    b: int,
    *,
    prio=None,
    M: int | None = None,
    N: int | None = None,
    record_trace: bool = False,
    fault: FaultHooks | None = None,
) -> CoreOutcome:
    """Run one compiled graph through the unified event loop.

    Dispatches to the native C core when it loaded and no Python-visible
    capability is requested (no tracing, no fault hooks); otherwise runs
    the unified Python loop.  Both are bit-identical.  With
    ``record_trace`` the result carries the run's per-task record:
    ``trace`` always, ``comm_trace`` and ``queue_trace`` when no fault
    hooks are given.
    """
    M = cg.m * b if M is None else M
    N = cg.n * b if N is None else N
    ntasks = cg.ntasks
    if ntasks == 0:
        traces = {name: [] if record_trace else None
                  for name in ("trace", "comm_trace", "queue_trace")}
        return CoreOutcome(
            result=SimulationResult.of(machine, b, 0, 0, 0.0, 0.0, 0, **traces),
            fault=None if fault is None else FaultOutcome(
                fault_events=fault.fault_events
            ),
        )

    with span("simulate") as sp:
        # the batch of one: the C entry derives wait counts, durations and
        # identity ranks itself, so a request prepares no per-task array
        lib = _ccore.get_lib() if not record_trace and fault is None else None
        out = _c_cluster_batch(lib, [cg], [prio], machine, b) if lib else None
        if out is not None:
            (makespan,), (busy,), (messages,) = out
            trace = comm = queue = fault_out = None
            engine = "c"
        else:
            rank, task_of_rank = priority_ranks(prio, ntasks)
            nnodes, cores, serialized, hierarchical, *links, site = _machine_params(
                machine, b)
            kw = {}
            if fault is not None:
                # the fault branch skips finished consumers: a low count ends at 0
                pred_ptr, pred_idx = _transpose(cg.succ_ptr, cg.succ_idx)
                pred_ptr = pred_ptr.tolist()
                wrong = [
                    hi - lo != w
                    for lo, hi, w in zip(pred_ptr, pred_ptr[1:], cg.wait.tolist())
                ]
                if any(wrong):
                    raise _wait_mismatch(wrong)
                kw = dict(fault=fault, pred_ptr=pred_ptr, pred_idx=pred_idx.tolist())
            dur = cg.dur_table.tolist()
            makespan, busy, messages, trace, comm, queue, fault_out = _py_loop(
                ntasks, nnodes, cores,
                [dur[k] for k in cg.kind.tolist()], cg.node.tolist(), cg.wait.tolist(),
                cg.succ_ptr.tolist(), cg.succ_idx.tolist(),
                rank.tolist(), task_of_rank.tolist(),
                serialized, hierarchical, *links, site,
                record_trace=record_trace, **kw,
            )
            engine = "python"
        if sp is not None:
            sp.attrs.update(engine=engine, ntasks=ntasks)
    return CoreOutcome(
        result=SimulationResult.of(machine, b, M, N, makespan, busy, messages,
                                   trace=trace, comm_trace=comm, queue_trace=queue),
        fault=fault_out,
        engine=engine,
    )


# --------------------------------------------------------------------- #
# batched dispatch
# --------------------------------------------------------------------- #
def run_core_batch(
    graphs,
    machine: Machine,
    b: int,
    *,
    prios=None,
) -> list[SimulationResult]:
    """Run many compiled graphs through the cluster loop in one dispatch.

    All graphs share the machine and tile size;
    ``prios`` is an optional per-graph priority-vector list.  The C path
    is one ``hqr_simulate_cluster_batch`` call that reads every graph's
    arrays in place, fanned out over the graphs with OpenMP
    (:func:`sim_threads`).  Results are bit-identical to :func:`run_core`
    per graph — that *is* this call with one graph, and the fallback path
    *is* the per-graph loop.
    """
    prios = [None] * len(graphs) if prios is None else prios
    if len(prios) != len(graphs):
        raise ValueError(f"prios has {len(prios)} entries for {len(graphs)} graphs")
    if not graphs:
        return []
    lib = _ccore.get_lib()
    out = sp = None
    if lib is not None:
        with span("simulate") as sp:
            out = _c_cluster_batch(lib, graphs, prios, machine, b)
    if out is None:
        # bit-identical fallback: the scalar path per point (pure-Python
        # core, or C per point after an allocation failure in the batch);
        # each run_core call emits its own "simulate" span
        return [run_core(cg, machine, b, prio=prio).result
                for cg, prio in zip(graphs, prios)]
    if sp is not None:
        sp.attrs.update(
            engine="c-batch",
            points=sum(1 for cg in graphs if cg.ntasks),
            ntasks=sum(cg.ntasks for cg in graphs),
        )
    # an empty graph reports no work, as run_core does
    return [
        SimulationResult.of(machine, b, cg.m * b if cg.ntasks else 0, cg.n * b,
                            mk, busy, msgs)
        for cg, mk, busy, msgs in zip(graphs, *out)
    ]
