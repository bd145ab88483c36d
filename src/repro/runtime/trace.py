"""Execution-trace analysis: utilization, kernel breakdown, ASCII Gantt.

Consumes the ``trace`` a simulation records under ``record_trace=True``
(:func:`repro.runtime.core.run_core`): a list of ``(task_id, node,
start, end)`` tuples.  A task's kernel is read from the graph's ``kind``
codes (:attr:`~repro.dag.compiled.CompiledGraph.kind`), its tile from
:func:`~repro.dag.compiled.task_coordinates`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dag.compiled import KIND_ORDER
from repro.kernels.weights import KernelKind


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics of one simulated run."""

    makespan: float
    node_busy: dict[int, float]
    kernel_seconds: dict[KernelKind, float]
    kernel_counts: dict[KernelKind, int]

    @property
    def utilization(self) -> dict[int, float]:
        """Per-node busy time over the makespan.

        This is a *node* total: a node with ``c`` cores saturated the whole
        run reports ``c``, not 1.0.  Use :meth:`per_core_utilization` for
        the 0-to-1 per-core fraction.
        """
        if self.makespan == 0:
            return {n: 0.0 for n in self.node_busy}
        return {n: b / self.makespan for n, b in self.node_busy.items()}

    def per_core_utilization(self, cores_per_node: int) -> dict[int, float]:
        """Busy fraction per core of each node, in [0, 1]."""
        if cores_per_node <= 0:
            raise ValueError(f"cores_per_node must be positive, got {cores_per_node}")
        return {n: u / cores_per_node for n, u in self.utilization.items()}

    def imbalance(self) -> float:
        """max/mean node busy time — 1.0 is perfectly balanced."""
        if not self.node_busy:
            return 1.0
        vals = list(self.node_busy.values())
        mean = sum(vals) / len(vals)
        return max(vals) / mean if mean > 0 else 1.0


def summarize(trace: list[tuple[int, int, float, float]], kind) -> TraceSummary:
    """Aggregate a trace into per-node and per-kernel totals; ``kind`` is
    the per-task kind code array."""
    kinds = [KIND_ORDER[k] for k in kind.tolist()]
    node_busy: dict[int, float] = {}
    kern_sec: dict[KernelKind, float] = {k: 0.0 for k in KernelKind}
    kern_cnt: dict[KernelKind, int] = {k: 0 for k in KernelKind}
    makespan = 0.0
    for task_id, node, start, end in trace:
        dur = end - start
        node_busy[node] = node_busy.get(node, 0.0) + dur
        kernel = kinds[task_id]
        kern_sec[kernel] += dur
        kern_cnt[kernel] += 1
        if end > makespan:
            makespan = end
    return TraceSummary(
        makespan=makespan,
        node_busy=node_busy,
        kernel_seconds=kern_sec,
        kernel_counts=kern_cnt,
    )


def trace_events_json(
    trace: list[tuple[int, int, float, float]],
    kind,
    coords,
    *,
    fault_events: list[dict] | None = None,
    comm_trace: list[tuple[int, int, int, float, float]] | None = None,
    tile_bytes: int = 0,
    counters: dict[str, list[tuple[float, float]]] | None = None,
) -> str:
    """Render a trace as Chrome ``trace_event`` JSON.

    Load the result in ``chrome://tracing`` (or Perfetto): one process per
    node, one thread row per core (cores are assigned greedily from the
    span intervals), one complete event per executed task, named by its
    ``kind`` code and labelled with its row and panel from ``coords``
    (:func:`~repro.dag.compiled.task_coordinates`).  Injected
    faults — crashes, recoveries, slowdown windows, message drops from
    :class:`~repro.resilience.simulate.FaultyRunResult.fault_events` —
    appear as instant events on the affected node, which makes
    fault-recovery timelines directly inspectable.

    ``comm_trace`` — the ``(producer, src, dst, depart, arrival)`` tuples
    of ``SimulationResult.comm_trace``, each message ``tile_bytes`` long —
    renders as a dedicated "network" pseudo-process (one thread row per
    source node) with flow arrows (``ph: s``/``f``) from each transfer to
    its destination node, so tile movement is visible next to the compute
    rows.  ``counters`` — ``name -> [(time, value), ...]`` series, e.g.
    the busy-core timeline from
    :func:`~repro.obs.metrics.utilization_timeline` — render as counter
    tracks (``ph: C``).

    Times are exported in microseconds (the trace-event unit).
    """
    import json

    def us(seconds: float) -> float:
        return seconds * 1e6

    names = [KIND_ORDER[k].name for k in kind.tolist()]
    rows, panels = (c.tolist() for c in coords[:2])
    events: list[dict] = []
    spans = sorted(trace, key=lambda s: (s[2], s[3], s[0]))
    core_free: dict[int, list[float]] = {}
    for task_id, node, start, end in spans:
        cores = core_free.setdefault(node, [])
        for core, free in enumerate(cores):
            if free <= start + 1e-12:
                break
        else:
            core = len(cores)
            cores.append(0.0)
        cores[core] = end
        events.append(
            {
                "name": names[task_id],
                "ph": "X",
                "pid": node,
                "tid": core,
                "ts": us(start),
                "dur": us(end - start),
                "args": {
                    "task": task_id,
                    "row": rows[task_id],
                    "panel": panels[task_id],
                },
            }
        )
    for node in core_free:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": node,
                "args": {"name": f"node {node}"},
            }
        )
    if comm_trace:
        # a pseudo-process above the node pids hosts the transfer spans;
        # flow arrows bind each span to an instant on the receiving node
        net_pid = max((node for _, node, _, _ in trace), default=-1) + 1
        net_pid = max(net_pid, max(max(e[1], e[2]) for e in comm_trace) + 1)
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": net_pid,
                "args": {"name": "network"},
            }
        )
        for i, (producer, src, dst, depart, arrival) in enumerate(comm_trace):
            args = {
                "producer": producer,
                "src": src,
                "dst": dst,
                "bytes": tile_bytes,
            }
            events.append(
                {
                    "name": f"send {src}->{dst}",
                    "ph": "X",
                    "pid": net_pid,
                    "tid": src,
                    "ts": us(depart),
                    "dur": us(max(arrival - depart, 0.0)),
                    "args": args,
                }
            )
            events.append(
                {
                    "name": "tile",
                    "ph": "s",
                    "id": i,
                    "cat": "comm",
                    "pid": net_pid,
                    "tid": src,
                    "ts": us(depart),
                }
            )
            events.append(
                {
                    "name": "tile",
                    "ph": "f",
                    "bp": "e",
                    "id": i,
                    "cat": "comm",
                    "pid": dst,
                    "tid": 0,
                    "ts": us(arrival),
                }
            )
    for name, series in (counters or {}).items():
        for t, value in series:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "pid": 0,
                    "ts": us(t),
                    "args": {name: value},
                }
            )
    for ev in fault_events or ():
        kind = ev.get("type", "fault")
        node = ev.get("node", ev.get("dst", 0))
        if kind == "slowdown":
            events.append(
                {
                    "name": f"slowdown x{ev['factor']:g}",
                    "ph": "X",
                    "pid": node,
                    "tid": 0,
                    "ts": us(ev["start"]),
                    "dur": us(ev["end"] - ev["start"]),
                    "cname": "terrible",
                    "args": ev,
                }
            )
        else:
            events.append(
                {
                    "name": kind,
                    "ph": "i",
                    "s": "g",
                    "pid": node,
                    "tid": 0,
                    "ts": us(ev.get("time", 0.0)),
                    "args": ev,
                }
            )
    return json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}, sort_keys=True
    )


def ascii_gantt(
    trace: list[tuple[int, int, float, float]],
    *,
    width: int = 78,
    max_nodes: int = 16,
) -> str:
    """Coarse per-node timeline: one row per node, one glyph per time slot.

    Glyphs: ``#`` slot fully busy, ``+`` partially, ``.`` idle.  Intended
    for eyeballing pipeline ramp-up and starvation in a terminal.
    """
    if not trace:
        return "(empty trace)"
    makespan = max(end for _, _, _, end in trace)
    nodes = sorted({node for _, node, _, _ in trace})[:max_nodes]
    slot = makespan / width
    lines = []
    for node in nodes:
        occupancy = [0.0] * width
        for _, nd, start, end in trace:
            if nd != node:
                continue
            first = min(int(start / slot), width - 1)
            last = min(int(end / slot), width - 1)
            for i in range(first, last + 1):
                lo = max(start, i * slot)
                hi = min(end, (i + 1) * slot)
                occupancy[i] += max(0.0, hi - lo)
        row = "".join(
            "#" if occ >= 0.9 * slot else ("+" if occ > 0 else ".")
            for occ in occupancy
        )
        lines.append(f"node {node:>3} |{row}|")
    return "\n".join(lines)
