"""Compiled-graph front end over the unified event-loop core.

Historically this module carried its own copies of the cluster event
loop (pure-Python and native-C); those now live — stated exactly once —
in :mod:`repro.runtime.core`.  What remains here:

* :func:`simulate_compiled` / :func:`simulate_compiled_batch` — thin
  adapters that run a :class:`~repro.dag.compiled.CompiledGraph` through
  :func:`~repro.runtime.core.run_core` /
  :func:`~repro.runtime.core.run_core_batch` and return
  :class:`~repro.runtime.simulator.SimulationResult` objects (the
  historical public API, kept for callers and tests);
* the accelerated-cluster loop (:func:`simulate_compiled_acc`), which
  schedules over per-node CPU cores *and* accelerators — a different
  resource model that does not fold into the cluster core;
* back-compat re-exports of the engine-selection helpers
  (:func:`core_mode`, :func:`sim_threads`, :func:`priority_ranks`,
  ``_pick_engine``) whose canonical home is now the core.

``REPRO_SIM_CORE`` selects the inner loop: ``auto`` (default: C when
available, else Python), ``c``, ``python``, or ``reference`` (bypass the
compiled path entirely — honored by the simulator front ends).
"""

from __future__ import annotations

import ctypes
import heapq
import time

import numpy as np

from repro.dag.compiled import KIND_ORDER, CompiledGraph
from repro.obs.events import active as _obs_active
from repro.runtime.accelerated import ACC_KERNELS
from repro.runtime.core import (  # noqa: F401  (re-exported API)
    _WAIT_MISMATCH,
    _graph_columns,
    _pick_engine,
    _ptr,
    _wait_mismatch,
    core_mode,
    priority_ranks,
    run_core,
    run_core_batch,
    sim_threads,
)
from repro.runtime.machine import Machine
from repro.runtime.simulator import SimulationResult, qr_flops

__all__ = [
    "acc_duration_table",
    "core_mode",
    "priority_ranks",
    "sim_threads",
    "simulate_compiled",
    "simulate_compiled_acc",
    "simulate_compiled_batch",
]


def acc_duration_table(acc_machine, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-kernel-kind accelerator seconds and offload-eligibility mask.

    Mirrors the reference scheduler: a kind is offloadable when the machine
    has accelerators and the kind is an update kernel; ineligible kinds get
    an accelerator time of 0.0 (never used).
    """
    elig = np.array(
        [
            1 if (acc_machine.accelerators > 0 and k in ACC_KERNELS) else 0
            for k in KIND_ORDER
        ],
        dtype=np.uint8,
    )
    table = np.array(
        [
            acc_machine.acc_task_seconds(k, b) if elig[i] else 0.0
            for i, k in enumerate(KIND_ORDER)
        ],
        dtype=np.float64,
    )
    return table, elig


# --------------------------------------------------------------------- #
# cluster loop (unified core front end)
# --------------------------------------------------------------------- #
def simulate_compiled(
    cg: CompiledGraph,
    machine: Machine,
    b: int,
    *,
    prio=None,
    data_reuse: bool = False,
    M: int | None = None,
    N: int | None = None,
    core: str | None = None,
) -> SimulationResult:
    """Run the cluster event loop on a compiled graph.

    Bit-identical to ``ClusterSimulator.run_reference`` for the same
    machine/layout/priority/data-reuse settings (without trace recording).
    """
    return run_core(
        cg, machine, b,
        prio=prio, data_reuse=data_reuse, M=M, N=N, core=core,
    ).result


def simulate_compiled_batch(
    graphs,
    machine: Machine,
    b: int,
    *,
    prios=None,
    data_reuse: bool = False,
    core: str | None = None,
) -> list[SimulationResult]:
    """Run many compiled graphs through the cluster loop in one dispatch.

    See :func:`repro.runtime.core.run_core_batch` — the C path makes a
    single Python->C call over a concatenated arena, OpenMP-fanned over
    points, and is bit-identical to per-point :func:`simulate_compiled`.
    """
    return run_core_batch(
        graphs, machine, b, prios=prios, data_reuse=data_reuse, core=core,
    )


# --------------------------------------------------------------------- #
# accelerated-cluster loop
# --------------------------------------------------------------------- #
def simulate_compiled_acc(
    cg: CompiledGraph,
    acc_machine,
    b: int,
    *,
    core: str | None = None,
) -> SimulationResult:
    """Accelerated-cluster event loop on a compiled graph — bit-identical
    to ``AcceleratedSimulator.run_reference``."""
    base: Machine = acc_machine.base
    ntasks = cg.ntasks
    tile_bytes = base.tile_bytes(b)
    rec = _obs_active()
    wall0 = time.perf_counter() if rec is not None else 0.0
    if ntasks == 0:
        return SimulationResult(0.0, 0.0, 0, 0, 0.0, base.cores, None)

    # the graph's own arrays go over as they lie when they have the
    # builders' dtypes, normalised and checked as in the batch entry
    _, _, node, wait, succ_ptr, succ_idx = (c[0] for c in _graph_columns([cg]))
    cpu_dur = np.ascontiguousarray(cg.dur_table[cg.kind], np.float64)
    acc_table, elig = acc_duration_table(acc_machine, b)
    acc_dur = np.ascontiguousarray(acc_table[cg.kind])
    offload = np.ascontiguousarray(elig[cg.kind])
    inf = float("inf")
    bwt = tile_bytes / base.bandwidth if base.bandwidth != inf else 0.0

    lib = _pick_engine(core)
    args = (
        ntasks,
        base.nodes,
        base.cores_per_node,
        acc_machine.accelerators,
        cpu_dur,
        acc_dur,
        offload,
        node, wait, succ_ptr, succ_idx,
        base.comm_serialized,
        base.latency,
        bwt,
    )
    engine = "c"
    if lib is not None:
        result = _c_acc(lib, *args)
    else:
        result = None
    if result is None:
        engine = "python"
        result = _py_acc(*args)
    makespan, busy, messages = result
    if rec is not None:
        # the accelerated loop records run-level summaries only
        rec.run(
            engine=engine,
            loop="acc",
            wall_s=time.perf_counter() - wall0,
            makespan=makespan,
            busy_seconds=busy,
            messages=messages,
            ntasks=ntasks,
        )
    return SimulationResult(
        makespan=makespan,
        flops=qr_flops(cg.m * b, cg.n * b),
        messages=messages,
        bytes_sent=messages * tile_bytes,
        busy_seconds=busy,
        cores=base.cores,
        trace=None,
    )


def _c_acc(
    lib, ntasks, nnodes, cores_per_node, accs, cpu_dur, acc_dur, offload,
    node, waiting, succ_ptr, succ_idx, serialized, lat, bwt,
):
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    u8 = ctypes.c_uint8
    out_mk, out_busy = f64(0.0), f64(0.0)
    out_msgs = i64(0)
    rc = lib.hqr_simulate_acc(
        i64(ntasks), i32(nnodes), i32(cores_per_node), i32(accs),
        _ptr(cpu_dur, f64), _ptr(acc_dur, f64), _ptr(offload, u8),
        _ptr(node, ctypes.c_int16), _ptr(waiting, u8),
        _ptr(succ_ptr, i32), _ptr(succ_idx, i32),
        i32(1 if serialized else 0), f64(lat), f64(bwt),
        ctypes.byref(out_mk), ctypes.byref(out_busy), ctypes.byref(out_msgs),
    )
    if rc == 1:
        raise ValueError(f"graph 0: {_WAIT_MISMATCH}")
    if rc != 0:  # pragma: no cover - allocation failure: retry in Python
        return None
    return out_mk.value, out_busy.value, out_msgs.value


def _py_acc(
    ntasks, nnodes, cores_per_node, accs, cpu_dur, acc_dur, offload,
    node, waiting, succ_ptr, succ_idx, serialized, lat, bwt,
):
    cpu_dur = cpu_dur.tolist()
    acc_dur = acc_dur.tolist()
    offload = offload.tolist()
    node = node.tolist()
    waiting = waiting.tolist()
    sp = succ_ptr.tolist()
    si = succ_idx.tolist()

    data_ready = [0.0] * ntasks
    free_cores = [cores_per_node] * nnodes
    free_accs = [accs] * nnodes
    cpu_heaps: list[list[int]] = [[] for _ in range(nnodes)]
    acc_heaps: list[list[int]] = [[] for _ in range(nnodes)]
    chan_free = [0.0] * nnodes
    sent_by = [-1] * nnodes  # the cluster loop's message rule
    sent_at = [0.0] * nnodes
    state = bytearray(ntasks)
    events: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    busy = 0.0
    finish = 0.0
    messages = 0

    def launch(t: int, start: float, on_acc: bool) -> None:
        nonlocal busy, finish
        state[t] = 2
        d = acc_dur[t] if on_acc else cpu_dur[t]
        end = start + d
        busy += d
        if end > finish:
            finish = end
        push(events, (end, (ntasks if on_acc else 0) + t))

    def try_start(t: int, now: float) -> None:
        nd = node[t]
        if offload[t] and free_accs[nd] > 0:
            free_accs[nd] -= 1
            launch(t, now, True)
        elif free_cores[nd] > 0:
            free_cores[nd] -= 1
            launch(t, now, False)
        else:
            state[t] = 1
            push(acc_heaps[nd] if offload[t] else cpu_heaps[nd], t)

    def pop_ready(heap) -> int:
        while heap:
            cand = pop(heap)
            if state[cand] == 1:
                return cand
        return -1

    for t in range(ntasks):
        if waiting[t] == 0:
            try_start(t, 0.0)

    while events:
        now, code = pop(events)
        if code >= 2 * ntasks:
            try_start(code - 2 * ntasks, now)
            continue
        if code >= ntasks:
            t = code - ntasks
            nd = node[t]
            nxt = pop_ready(acc_heaps[nd])
            if nxt >= 0:
                launch(nxt, now, True)
            else:
                free_accs[nd] += 1
        else:
            t = code
            nd = node[t]
            nxt = pop_ready(cpu_heaps[nd])
            if nxt < 0:
                nxt = pop_ready(acc_heaps[nd])
            if nxt >= 0:
                launch(nxt, now, False)
            else:
                free_cores[nd] += 1
        for i in range(sp[t], sp[t + 1]):
            s = si[i]
            dest = node[s]
            if dest == nd:
                arrival = now
            elif sent_by[dest] == t:
                arrival = sent_at[dest]
            else:
                if serialized:
                    depart = now
                    if chan_free[nd] > depart:
                        depart = chan_free[nd]
                    if chan_free[dest] > depart:
                        depart = chan_free[dest]
                    chan_free[nd] = depart + bwt
                    chan_free[dest] = depart + bwt
                    arrival = depart + lat + bwt
                else:
                    arrival = now + lat + bwt
                sent_by[dest] = t
                sent_at[dest] = arrival
                messages += 1
            if arrival > data_ready[s]:
                data_ready[s] = arrival
            waiting[s] -= 1
            if waiting[s] == 0:
                avail = data_ready[s]
                if avail <= now:
                    try_start(s, now)
                else:
                    push(events, (avail, 2 * ntasks + s))

    if any(waiting):
        raise _wait_mismatch(waiting)
    return finish, busy, messages
