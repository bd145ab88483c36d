"""Metrics registry and derivation from traced runs.

A tiny Prometheus-style registry — counters, gauges, histograms with
string labels — plus :func:`derive_run_metrics`, which turns one traced
simulation (the ``trace`` / ``comm_trace`` / ``queue_trace`` of
``run_core(..., record_trace=True)``) into the attribution the paper's
figures argue from:

* per-kernel and per-hierarchy-level (TS / low / coupling / high) time;
* per-link communication volume (messages and bytes);
* ready-queue depth extrema and core-utilization timeline;
* critical-path slack (achieved makespan minus the weighted longest
  path — how much of the run is *not* explained by the DAG's depth).

Exports: :meth:`MetricsRegistry.to_json` (machine-readable dict) and
:meth:`MetricsRegistry.to_prometheus` (text exposition format, for
scraping or ``repro metrics --prom``).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "cache_metrics_into",
    "derive_run_metrics",
    "utilization_timeline",
]

#: hierarchy-level names, index = paper level number (§IV-B)
LEVEL_NAMES = ("ts", "low", "coupling", "high")


def _label_key(labels: dict[str, str]) -> tuple:
    return tuple(sorted(labels.items()))


def _escape_label_value(value) -> str:
    """Exposition-format 0.0.4 label-value escaping.

    Backslash, double-quote and line-feed must be escaped — tenant
    names and cache keys are caller-supplied strings and would
    otherwise corrupt the whole ``/metrics`` payload.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP-line escaping: backslash and line feed only."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


@dataclass
class Counter:
    """Monotonically increasing sum, optionally labelled."""

    name: str
    help: str
    samples: dict[tuple, float] = field(default_factory=dict)

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: str) -> None:
        key = _label_key(labels)
        self.samples[key] = self.samples.get(key, 0.0) + value

    def value(self, **labels: str) -> float:
        return self.samples.get(_label_key(labels), 0.0)


@dataclass
class Gauge:
    """Point-in-time value, optionally labelled."""

    name: str
    help: str
    samples: dict[tuple, float] = field(default_factory=dict)

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        self.samples[_label_key(labels)] = value

    def value(self, **labels: str) -> float:
        return self.samples.get(_label_key(labels), 0.0)


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket catches the
    rest.  Unlabelled (labelled histograms are not needed here).
    """

    name: str
    help: str
    buckets: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    n: int = 0

    kind = "histogram"

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.buckets, value)] += 1
        self.total += value
        self.n += 1


class MetricsRegistry:
    """Ordered collection of metrics with JSON / Prometheus export."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_make(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_make(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", *, buckets: tuple[float, ...]
    ) -> Histogram:
        m = self._metrics.get(name)
        if m is None:
            m = Histogram(name, help, buckets=buckets)
            self._metrics[name] = m
        elif not isinstance(m, Histogram):
            raise TypeError(f"metric {name!r} already registered as {m.kind}")
        return m

    def _get_or_make(self, cls, name: str, help: str):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, help)
            self._metrics[name] = m
        elif not isinstance(m, cls):
            raise TypeError(f"metric {name!r} already registered as {m.kind}")
        return m

    def __iter__(self):
        return iter(self._metrics.values())

    def __getitem__(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- export -------------------------------------------------------- #
    def to_json(self) -> dict:
        """Nested dict: metric name -> kind/help/samples."""
        out: dict = {}
        for m in self:
            if isinstance(m, Histogram):
                out[m.name] = {
                    "kind": m.kind,
                    "help": m.help,
                    "buckets": list(m.buckets),
                    "counts": list(m.counts),
                    "sum": m.total,
                    "count": m.n,
                }
            else:
                out[m.name] = {
                    "kind": m.kind,
                    "help": m.help,
                    "samples": [
                        {"labels": dict(key), "value": value}
                        for key, value in sorted(m.samples.items())
                    ],
                }
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for m in self:
            if m.help:
                lines.append(f"# HELP {m.name} {_escape_help(m.help)}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            if isinstance(m, Histogram):
                acc = 0
                for ub, c in zip(m.buckets, m.counts):
                    acc += c
                    lines.append(f'{m.name}_bucket{{le="{ub:g}"}} {acc}')
                lines.append(f'{m.name}_bucket{{le="+Inf"}} {m.n}')
                lines.append(f"{m.name}_sum {m.total:g}")
                lines.append(f"{m.name}_count {m.n}")
                continue
            for key, value in sorted(m.samples.items()):
                if key:
                    labels = ",".join(
                        f'{k}="{_escape_label_value(v)}"' for k, v in key
                    )
                    lines.append(f"{m.name}{{{labels}}} {value:g}")
                else:
                    lines.append(f"{m.name} {value:g}")
        return "\n".join(lines) + "\n"

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def cache_metrics_into(reg: MetricsRegistry, stats: dict[str, int]) -> None:
    """Export compiled-graph cache operation counters into ``reg``.

    ``stats`` is :meth:`repro.dag.cache.CompiledGraphCache.stats` —
    process-wide hit/miss/store/evict counts, measured at the cache
    itself rather than inferred from recorder log lines.  Also derives
    ``repro_graph_cache_hit_ratio`` (hits over lookups) when any lookup
    happened; the serving layer gates its cache SLO on that gauge.  The
    answer memo kept on the entries (``answer_hit`` / ``answer_miss``)
    gets its own counter pair: questions answered without simulating,
    and questions that had to simulate.
    """
    stats = dict(stats)
    reg.counter(
        "repro_cache_answer_hits_total",
        "questions answered from a cache entry without simulating",
    ).inc(stats.pop("answer_hit", 0))
    reg.counter(
        "repro_cache_answer_misses_total",
        "questions that found no remembered answer and simulated",
    ).inc(stats.pop("answer_miss", 0))
    ops = reg.counter(
        "repro_graph_cache_ops_total",
        "compiled-graph cache operations (process-wide counters)",
    )
    for event, count in sorted(stats.items()):
        ops.inc(count, event=event)
    hits = stats.get("hit_memory", 0)
    lookups = hits + stats.get("miss", 0)
    if lookups:
        reg.gauge(
            "repro_graph_cache_hit_ratio",
            "cache hits over lookups since process start",
        ).set(hits / lookups)


# --------------------------------------------------------------------- #
# derivation
# --------------------------------------------------------------------- #
def utilization_timeline(
    tasks: list[tuple[int, int, float, float]], *, max_points: int = 2000
) -> list[tuple[float, int]]:
    """Busy-core step function over time from task spans.

    Returns ``(time, busy_cores)`` change points (cluster-wide),
    decimated to at most ``max_points`` for export.
    """
    if not tasks:
        return []
    deltas: list[tuple[float, int]] = []
    for _, _, start, end in tasks:
        deltas.append((start, 1))
        deltas.append((end, -1))
    deltas.sort()
    points: list[tuple[float, int]] = []
    busy = 0
    for t, d in deltas:
        busy += d
        if points and points[-1][0] == t:
            points[-1] = (t, busy)
        else:
            points.append((t, busy))
    if len(points) > max_points:
        step = len(points) / max_points
        points = [points[int(i * step)] for i in range(max_points)]
    return points


def _task_level(row: int, panel: int, killer: int, m: int, config) -> str:
    """Hierarchy-level label of a task (TS/low/coupling/high).

    Kill and pair-update kernels are attributed to the level of their
    victim tile; GEQRT/UNMQR (panel factorization and its updates) get
    the dedicated ``panel`` bucket.
    """
    if killer < 0:
        return "panel"
    from repro.hqr.levels import tile_level

    lv = tile_level(row, panel, m, config.p, config.a, domino=config.domino)
    return LEVEL_NAMES[lv]


def derive_run_metrics(
    res,
    graph=None,
    *,
    runs=(),
    coords=None,
    critical_path: float | None = None,
    config=None,
) -> MetricsRegistry:
    """Build a registry from one traced run.

    ``res`` is a :class:`~repro.runtime.core.SimulationResult` from
    ``run_core(..., record_trace=True)``: its ``trace``, ``comm_trace``
    and ``queue_trace`` give the per-task, per-message and ready-queue
    metrics (each message carries ``bytes_sent // messages`` bytes), its
    ``makespan`` the makespan and slack gauges.  ``runs`` (the run's
    ``simulate`` spans, from an attached request trace) gives the engine
    counters: each span's ``engine`` attribute and duration.  ``graph`` (a
    :class:`~repro.dag.compiled.CompiledGraph`) enables per-kernel
    attribution from its ``kind`` codes; ``coords`` (its
    :func:`~repro.dag.compiled.task_coordinates`) and ``config``
    additionally enable per-hierarchy-level attribution; ``critical_path``
    (seconds, the list pass's ``plain_critical_path``) enables the
    critical-path-slack gauges.  All are optional — missing context
    simply skips the derived metric.
    """
    from repro.dag.compiled import KIND_ORDER

    reg = MetricsRegistry()
    names = None if graph is None else [
        KIND_ORDER[k].name for k in graph.kind.tolist()
    ]
    spans = res.trace or ()

    tasks_total = reg.counter("repro_tasks_total", "executed task spans")
    kern_sec = reg.counter(
        "repro_kernel_seconds_total", "busy seconds by kernel kind"
    )
    dur_hist = reg.histogram(
        "repro_task_seconds",
        "task duration distribution",
        buckets=(1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0),
    )
    for task_id, _node, start, end in spans:
        d = end - start
        dur_hist.observe(d)
        if names is not None:
            tasks_total.inc(kind=names[task_id])
            kern_sec.inc(d, kind=names[task_id])
        else:
            tasks_total.inc()

    if graph is not None and coords is not None and config is not None:
        rows, panels, _, killers = (c.tolist() for c in coords)
        level_sec = reg.counter(
            "repro_level_seconds_total",
            "busy seconds by hierarchy level (ts/low/coupling/high/panel)",
        )
        level_tasks = reg.counter(
            "repro_level_tasks_total", "task count by hierarchy level"
        )
        for task_id, _node, start, end in spans:
            label = _task_level(
                rows[task_id], panels[task_id], killers[task_id], graph.m,
                config,
            )
            level_sec.inc(end - start, level=label)
            level_tasks.inc(level=label)

    # -- communication ------------------------------------------------- #
    msgs = reg.counter("repro_messages_total", "cross-node messages by link")
    comm_bytes = reg.counter(
        "repro_comm_bytes_total", "bytes shipped by link"
    )
    comm_sec = reg.counter(
        "repro_comm_seconds_total", "wire seconds by link (depart to arrival)"
    )
    nbytes = res.bytes_sent // res.messages if res.messages else 0
    for _prod, src, dst, depart, arrival in res.comm_trace or ():
        link = {"src": str(src), "dst": str(dst)}
        msgs.inc(**link)
        comm_bytes.inc(nbytes, **link)
        comm_sec.inc(arrival - depart, **link)

    # -- queues and utilization ---------------------------------------- #
    if res.queue_trace:
        qmax = reg.gauge(
            "repro_ready_queue_depth_max", "peak ready-queue depth per node"
        )
        peaks: dict[int, int] = {}
        for _t, node, depth in res.queue_trace:
            if depth > peaks.get(node, 0):
                peaks[node] = depth
        for node, depth in sorted(peaks.items()):
            qmax.set(depth, node=str(node))

    timeline = utilization_timeline(spans)
    if timeline:
        reg.gauge("repro_busy_cores_peak", "peak concurrently busy cores").set(
            max(v for _, v in timeline)
        )

    reg.gauge("repro_makespan_seconds", "simulated makespan").set(res.makespan)

    # -- critical-path slack ------------------------------------------- #
    if critical_path is not None:
        reg.gauge(
            "repro_critical_path_seconds", "weighted longest path"
        ).set(critical_path)
        reg.gauge(
            "repro_critical_path_slack_seconds",
            "makespan minus critical path (0 = DAG-depth-bound)",
        ).set(res.makespan - critical_path)

    # -- engine runs --------------------------------------------------- #
    if runs:
        run_wall = reg.counter(
            "repro_engine_wall_seconds_total", "engine wall time by engine"
        )
        run_count = reg.counter(
            "repro_engine_runs_total", "engine invocations by engine"
        )
        for sp in runs:
            engine = str(sp.attrs.get("engine", "?"))
            run_count.inc(engine=engine)
            run_wall.inc(sp.duration, engine=engine)
    return reg
