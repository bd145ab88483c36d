"""Heterogeneous (accelerator-equipped) cluster simulation — §VI future work.

"From a more practical perspective, we could perform further experiments on
machines equipped with accelerators (such as GPUs)."  This module models
that machine: each node carries ``accelerators`` devices that execute the
GEMM-like *update* kernels (UNMQR/TSMQR/TTMQR) at an accelerator rate,
while the latency-bound factorization kernels stay on the CPU cores — the
standard split in GPU tile-QR implementations.

The scheduler keeps two ready queues per node (CPU-only tasks, and update
tasks that may run anywhere) and two resource pools; data movement uses
the same per-node communication channel, message rule and intra- /
inter-site link parameters as :class:`ClusterSimulator` (host-device
transfers are folded into the accelerator rate).  With no accelerators
it is the cluster loop, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.dag.graph import TaskGraph
from repro.kernels.weights import KernelKind, KernelRates, kernel_flops
from repro.runtime.core import _machine_params
from repro.runtime.machine import Machine
from repro.runtime.simulator import SimulationResult, qr_flops
from repro.tiles.layout import Layout


#: kernels eligible for accelerator execution (trailing updates)
ACC_KERNELS = (KernelKind.UNMQR, KernelKind.TSMQR, KernelKind.TTMQR)


@dataclass(frozen=True)
class AcceleratedMachine:
    """A :class:`Machine` plus per-node accelerators.

    ``acc_rates`` gives the accelerator's effective kernel rates (GFlop/s);
    the default models a Fermi-class GPU of the paper's era: ~10x a core
    on the GEMM-like updates.
    """

    base: Machine
    accelerators: int = 1
    acc_rates: KernelRates = KernelRates(peak=515.0, ts_rate=72.0, tt_rate=63.0)

    def __post_init__(self) -> None:
        if self.accelerators < 0:
            raise ValueError(f"accelerators must be >= 0, got {self.accelerators}")

    def acc_task_seconds(self, kind: KernelKind, b: int) -> float:
        """Accelerator execution time of an update kernel."""
        return kernel_flops(kind, b) / (self.acc_rates.rate(kind) * 1e9)

    def peak_gflops(self) -> float:
        """CPU + accelerator peak."""
        return self.base.peak_gflops() + (
            self.base.nodes * self.accelerators * self.acc_rates.peak
        )


class AcceleratedSimulator:
    """Event-driven simulation on an accelerator-equipped cluster."""

    def __init__(self, machine: AcceleratedMachine, layout: Layout, b: int):
        if layout.nodes > machine.base.nodes:
            raise ValueError(
                f"layout spans {layout.nodes} nodes but machine has "
                f"{machine.base.nodes}"
            )
        self.machine = machine
        self.layout = layout
        self.b = b

    def run(self, graph: TaskGraph) -> SimulationResult:
        """Simulate ``graph`` with a pure-Python event loop."""
        acc = self.machine
        base, b = acc.base, self.b
        ntasks = len(graph.tasks)
        if ntasks == 0:
            return SimulationResult(0.0, 0.0, 0, 0, 0.0, base.cores, None)

        owner = self.layout.owner
        node_of = []
        offload = []  # accelerator-eligible?
        cpu_secs = []
        acc_secs = []
        for t in graph.tasks:
            col = t.panel if t.col < 0 else t.col
            node_of.append(owner(t.row, col))
            eligible = acc.accelerators > 0 and t.kind in ACC_KERNELS
            offload.append(eligible)
            cpu_secs.append(base.task_seconds(t.kind, b))
            acc_secs.append(acc.acc_task_seconds(t.kind, b) if eligible else 0.0)

        preds, succs = graph.predecessors, graph.successors
        waiting = [len(p) for p in preds]
        data_ready = [0.0] * ntasks
        free_cores = [base.cores_per_node] * base.nodes
        free_accs = [acc.accelerators] * base.nodes
        cpu_heaps: list[list] = [[] for _ in range(base.nodes)]
        acc_heaps: list[list] = [[] for _ in range(base.nodes)]  # update tasks
        chan_free = [0.0] * base.nodes
        tile_bytes = base.tile_bytes(b)
        # the cluster loop's link parameters: intra-site, or inter-site on
        # a two-level network when the endpoints' sites differ
        (
            _, _, serialized, hierarchical,
            lat_intra, bwt_intra, lat_inter, bwt_inter, site,
        ) = _machine_params(base, b)

        sent: dict[tuple[int, int], float] = {}
        events: list[tuple[float, int, int, int]] = []
        # event kinds: 0 = finished on CPU, 1 = finished on accelerator,
        # 2 = data arrival
        messages = 0
        busy = 0.0
        finish = 0.0
        QUEUED, LAUNCHED = 1, 2
        state = bytearray(ntasks)

        def launch(t: int, start: float, on_acc: bool) -> None:
            nonlocal busy, finish
            state[t] = LAUNCHED
            dur = acc_secs[t] if on_acc else cpu_secs[t]
            end = start + dur
            busy += dur
            if end > finish:
                finish = end
            heapq.heappush(events, (end, 1 if on_acc else 0, t, 0))

        def try_start(t: int, now: float) -> None:
            node = node_of[t]
            # updates prefer an idle accelerator (they run ~10x faster there)
            if offload[t] and free_accs[node] > 0:
                free_accs[node] -= 1
                launch(t, now, True)
            elif free_cores[node] > 0:
                free_cores[node] -= 1
                launch(t, now, False)
            else:
                state[t] = QUEUED
                heap = acc_heaps[node] if offload[t] else cpu_heaps[node]
                heapq.heappush(heap, (t, t))

        def pop(heap) -> int | None:
            while heap:
                _, t = heapq.heappop(heap)
                if state[t] == QUEUED:
                    return t
            return None

        for t in range(ntasks):
            if waiting[t] == 0:
                try_start(t, 0.0)

        while events:
            now, kind, t, _ = heapq.heappop(events)
            if kind == 2:
                try_start(t, now)
                continue
            node = node_of[t]
            if kind == 1:
                # accelerator freed: only update tasks may take it
                nxt = pop(acc_heaps[node])
                if nxt is not None:
                    launch(nxt, now, True)
                else:
                    free_accs[node] += 1
            else:
                # core freed: prefer a CPU-only task, else steal an update
                nxt = pop(cpu_heaps[node])
                on_acc = False
                if nxt is None:
                    nxt = pop(acc_heaps[node])
                if nxt is not None:
                    launch(nxt, now, on_acc)
                else:
                    free_cores[node] += 1
            for s in succs[t]:
                dest = node_of[s]
                if dest == node:
                    arrival = now
                else:
                    key = (t, dest)
                    arrival = sent.get(key, -1.0)
                    if arrival < 0:
                        if hierarchical and site[node] != site[dest]:
                            lat, bwt = lat_inter, bwt_inter
                        else:
                            lat, bwt = lat_intra, bwt_intra
                        if serialized:
                            depart = max(now, chan_free[node], chan_free[dest])
                            chan_free[node] = depart + bwt
                            chan_free[dest] = depart + bwt
                            arrival = depart + lat + bwt
                        else:
                            arrival = now + lat + bwt
                        sent[key] = arrival
                        messages += 1
                if arrival > data_ready[s]:
                    data_ready[s] = arrival
                waiting[s] -= 1
                if waiting[s] == 0:
                    avail = data_ready[s]
                    if avail <= now:
                        try_start(s, now)
                    else:
                        heapq.heappush(events, (avail, 2, s, 0))

        if any(w > 0 for w in waiting):  # pragma: no cover - cycle guard
            raise RuntimeError("simulation stalled with unfinished tasks")

        return SimulationResult(
            makespan=finish,
            flops=qr_flops(graph.m * b, graph.n * b),
            messages=messages,
            bytes_sent=messages * tile_bytes,
            busy_seconds=busy,
            cores=base.cores,
            trace=None,
        )
