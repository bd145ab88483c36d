"""SLO-gated serving benchmark: ``repro serve --bench``.

Four phases, each exercising a serving property the acceptance criteria
name:

1. **stream** — a seeded 3-tenant Poisson mix through the virtual-time
   runner at ~70% utilization; the per-tenant latency percentiles,
   throughput and shed rate recorded here are the committed SLO
   numbers.  The phase runs twice with the same seed and asserts the
   summaries are identical (seeded reproducibility).
2. **overload** — the same mix offered at 2x the configured capacity;
   admission control must shed (never wedge) and the run must terminate
   with every job accounted for.
3. **chaos** — a :class:`~repro.serve.stream.ChaosWindow` applies a
   ``repro.resilience`` crash scenario to jobs dispatched mid-stream;
   the daemon-side planner answers through the recovery path
   (degraded, replanned) and the stream completes.  Degraded jobs must
   auto-trigger the tracing flight recorder at least once.
4. **live** — a real daemon is booted on an ephemeral port, driven over
   HTTP by the bundled client, and its ``/metrics`` endpoint scraped;
   records real wall time and proves the HTTP path end to end,
   including ``GET /trace/<job_id>`` and a triggered ``/debug/flight``
   dump.

Every stream phase runs with request tracing on: the steady phase is
replayed and must stay bit-identical *with tracing enabled*, and the
per-request span trees must attribute latency to stages (admission +
queue + cache + plan + simulate) summing within 5% of the end-to-end
latency.

The benchmark passes or fails on those properties (``ok``), never on
time: ``serve_wall_s`` records the real wall time of one run on one
host, and the serving path's speed is judged by ``perf/``'s
``serve_mix`` workload.
"""

from __future__ import annotations

import os
import time

from repro.obs.provenance import run_metadata
from repro.obs.tracing import ATTRIBUTION_STAGES, FlightRecorder, Tracer
from repro.serve.arrivals import poisson_arrivals
from repro.serve.scheduler import TenantSpec
from repro.serve.service import PlannerService, PlanRequest
from repro.serve.stream import ChaosWindow, run_stream

__all__ = ["format_serve_report", "serve_bench", "write_serve_report"]

#: benchmark tenancy (weights 4:1:2, distinct queue bounds)
BENCH_TENANTS = (
    TenantSpec("interactive", weight=4.0, queue_limit=8),
    TenantSpec("batch", weight=1.0, queue_limit=16),
    TenantSpec("explore", weight=2.0, queue_limit=8),
)

#: request catalog per tenant: interactive asks small pinned configs,
#: batch asks bigger ones, explore asks "auto" (the paper's §VI rules)
_CATALOG: dict[str, list[dict]] = {
    "interactive": [
        {"m": 12, "n": 3,
         "config": {"p": 3, "q": 1, "a": 2, "low": "greedy",
                    "high": "fibonacci", "domino": True}},
        {"m": 16, "n": 4,
         "config": {"p": 4, "q": 1, "a": 2, "low": "greedy",
                    "high": "fibonacci", "domino": True}},
    ],
    "batch": [
        {"m": 24, "n": 6,
         "config": {"p": 4, "q": 2, "a": 3, "low": "greedy",
                    "high": "fibonacci", "domino": True}},
        {"m": 32, "n": 8,
         "config": {"p": 4, "q": 2, "a": 4, "low": "binary",
                    "high": "fibonacci", "domino": False}},
    ],
    "explore": [
        {"m": 16, "n": 4, "config": "auto"},
        {"m": 20, "n": 5, "config": "auto"},
    ],
}


def _durations() -> tuple[float, float, float]:
    """(stream, overload, chaos) virtual seconds per REPRO_BENCH_SCALE."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
    if scale == "small":
        return 40.0, 20.0, 20.0
    if scale == "full":
        return 360.0, 180.0, 120.0
    return 120.0, 60.0, 60.0


def _calibrate(service: PlannerService) -> dict[str, float]:
    """Plan every catalog entry once: warms the graph cache and stamps
    each payload with its deterministic cost (the simulated makespan)
    for admission control.  Returns the per-tenant mean cost."""
    mean_cost: dict[str, float] = {}
    for tenant, entries in sorted(_CATALOG.items()):
        costs = []
        for payload in entries:
            res = service.plan(PlanRequest.from_json(payload))
            payload["cost"] = res.makespan
            costs.append(res.makespan)
        mean_cost[tenant] = sum(costs) / len(costs)
    return mean_cost


def _request_factory(rng, tenant: str) -> dict:
    return dict(rng.choice(_CATALOG[tenant]))


def _rates(
    mean_cost: dict[str, float], *, capacity: int, util: float
) -> dict[str, float]:
    """Per-tenant arrival rates offering ``util x capacity`` busy-share,
    split evenly across tenants."""
    share = util * capacity / len(mean_cost)
    return {t: share / mu for t, mu in mean_cost.items()}


def _attribution_check(tracer: Tracer, *, tol: float = 0.05) -> dict:
    """Per-request latency attribution over a tracer's stored traces.

    The span stages (admission + queue + cache + plan + simulate) must
    sum within ``tol`` of each trace's end-to-end latency — the
    acceptance criterion of the tracing subsystem."""
    traces = tracer.traces()
    max_err = 0.0
    for tr in traces:
        att = tr.attribution()
        total = att["total"]
        staged = sum(att[s] for s in ATTRIBUTION_STAGES)
        if total > 0:
            max_err = max(max_err, abs(staged - total) / total)
    return {
        "requests_traced": len(traces),
        "max_attribution_err": max_err,
        "attribution_ok": bool(traces) and max_err <= tol,
    }


def serve_bench(
    *,
    seed: int = 0,
    capacity: int = 2,
    util: float = 0.7,
    skip_live: bool = False,
) -> dict:
    """Run the full serving benchmark; returns its report."""
    wall0 = time.perf_counter()
    d_stream, d_over, d_chaos = _durations()
    service = PlannerService()
    mean_cost = _calibrate(service)

    # -- 1: seeded steady-state stream (the SLO numbers) --------------- #
    rates = _rates(mean_cost, capacity=capacity, util=util)
    arrivals = poisson_arrivals(
        rates, d_stream, seed=seed, request_factory=_request_factory
    )
    tracer = Tracer()
    stream = run_stream(
        service, BENCH_TENANTS, arrivals, capacity=capacity, tracer=tracer
    )
    summary = stream.summary()
    retracer = Tracer()
    rerun = run_stream(
        service, BENCH_TENANTS, arrivals, capacity=capacity, tracer=retracer
    )
    spans = [t.to_json() for t in tracer.traces()]
    deterministic = (
        rerun.summary() == summary
        and rerun.trace == stream.trace
        # span trees are built from virtual time only, so they must
        # replay bit-identically too — tracing cannot perturb the run
        and [t.to_json() for t in retracer.traces()] == spans
    )
    tracing = _attribution_check(tracer)

    # -- 2: 2x-capacity overload (shed, don't wedge) -------------------- #
    over_rates = _rates(mean_cost, capacity=capacity, util=2.0)
    over_arrivals = poisson_arrivals(
        over_rates, d_over, seed=seed + 1, request_factory=_request_factory
    )
    overload = run_stream(
        service, BENCH_TENANTS, over_arrivals, capacity=capacity
    )
    overload_ok = (
        overload.shed > 0 and overload.total == len(over_arrivals)
    )

    # -- 3: crash scenario under live traffic --------------------------- #
    chaos_arrivals = poisson_arrivals(
        rates, d_chaos, seed=seed + 2, request_factory=_request_factory
    )[:24]  # recovery planning is python-loop work: bound the jobs
    # open the window at the 25th-percentile arrival so the stream sees
    # both clean and faulted service
    window = ChaosWindow(
        "crash", seed=seed, start=chaos_arrivals[len(chaos_arrivals) // 4].time
    )
    # cooldown=0 so every degraded job dumps: the phase must prove the
    # flight recorder fires automatically under faults
    chaos_tracer = Tracer(flight=FlightRecorder(cooldown=0.0))
    chaos = run_stream(
        service, BENCH_TENANTS, chaos_arrivals,
        capacity=capacity, chaos=window, tracer=chaos_tracer,
    )
    flight_dumps = len(chaos_tracer.flight.dumps())
    chaos_ok = (
        chaos.total == len(chaos_arrivals)
        and chaos.served > 0
        and chaos.degraded > 0
        and flight_dumps > 0
    )

    # -- 4: live daemon + client + /metrics scrape ----------------------- #
    live: dict = {"skipped": True}
    live_ok = True
    if not skip_live:
        live = _live_smoke(arrivals[:25])
        live_ok = (
            bool(live.get("ok_requests", 0))
            and live.get("metrics_scraped", False)
            and live.get("drained", False)
            and live.get("trace_fetched", False)
            and live.get("breakdown_ok", False)
            and live.get("flight_dumped", False)
        )

    wall = time.perf_counter() - wall0
    report = {
        "meta": run_metadata(),
        "seed": seed,
        "capacity": capacity,
        "target_utilization": util,
        "virtual_duration_s": d_stream,
        "tenants": {
            t.name: {
                "weight": t.weight,
                "queue_limit": t.queue_limit,
                "rate_rps": rates[t.name],
                "mean_cost_s": mean_cost[t.name],
            }
            for t in BENCH_TENANTS
        },
        "stream": summary,
        "deterministic": deterministic,
        "overload": {
            "offered_utilization": 2.0,
            "jobs": overload.total,
            "served": overload.served,
            "shed": overload.shed,
            "shed_rate": overload.shed / max(1, overload.total),
            "completed_all": overload.total == len(over_arrivals),
            "ok": overload_ok,
        },
        "chaos": {
            "scenario": window.scenario,
            "jobs": chaos.total,
            "served": chaos.served,
            "shed": chaos.shed,
            "degraded_jobs": chaos.degraded,
            "flight_dumps": flight_dumps,
            "ok": chaos_ok,
        },
        "tracing": tracing,
        "live": live,
        # headline SLO fields (from the steady-state stream)
        "latency_p50_s": summary["latency_p50_s"],
        "latency_p95_s": summary["latency_p95_s"],
        "latency_p99_s": summary["latency_p99_s"],
        "throughput_rps": summary["throughput_rps"],
        "shed_rate": summary["shed_rate"],
        "cache_hit_ratio": stream.slo.cache_hit_ratio(),
        "serve_wall_s": wall,
        "ok": (
            deterministic
            and overload_ok
            and chaos_ok
            and live_ok
            and tracing["attribution_ok"]
        ),
    }
    return report


def _live_smoke(arrivals) -> dict:
    """Boot a real daemon, drive it over HTTP, scrape /metrics, fetch a
    span tree via ``GET /trace/<job_id>``, trigger a flight dump, drain."""
    from repro.serve.client import ServeClient, drive
    from repro.serve.server import PlanningDaemon

    t0 = time.perf_counter()
    daemon = PlanningDaemon(tenants=BENCH_TENANTS, port=0, workers=2)
    daemon.start()
    trace_fetched = breakdown_ok = flight_dumped = False
    client = ServeClient(port=daemon.port)
    try:
        client.wait_ready()
        tally = drive(client, list(arrivals), honor_retry_after=True)
        resp = client.plan("interactive", dict(_CATALOG["interactive"][0]))
        if resp.ok and resp.job_id is not None:
            tree = client.trace(resp.job_id)
            trace_fetched = (
                tree.get("trace_id") == resp.trace_id
                and tree.get("root", {}).get("name") == "request"
            )
            bd = resp.breakdown or {}
            staged = sum(bd.get(s, 0.0) for s in ATTRIBUTION_STAGES)
            total = bd.get("total", 0.0)
            breakdown_ok = (
                total > 0 and abs(staged - total) / total <= 0.05
            )
        flight = client.flight(trigger=True)
        flight_dumped = bool(flight.get("dumps"))
        metrics_text = client.metrics()
        stats = client.stats()
    finally:
        client.close()
        drain = daemon.shutdown()
    return {
        "requests": tally["sent"],
        "ok_requests": tally["ok"],
        "shed_requests": tally["shed"],
        "error_requests": tally["errors"],
        "metrics_scraped": "repro_serve_requests_total" in metrics_text,
        "daemon_served": stats["slo"]["served"],
        "trace_fetched": trace_fetched,
        "breakdown_ok": breakdown_ok,
        "flight_dumped": flight_dumped,
        "drained": drain["drained"],
        "wall_s": time.perf_counter() - t0,
    }


def format_serve_report(report: dict) -> str:
    """Human-readable benchmark summary."""
    lines = [
        f"serving benchmark  (seed {report['seed']}, capacity "
        f"{report['capacity']}, {report['virtual_duration_s']:.0f}s virtual "
        f"stream at {report['target_utilization']:.0%} load)",
        f"  deterministic replay: "
        f"{'yes' if report['deterministic'] else 'NO — SEED LEAK'}",
    ]
    s = report["stream"]
    lines.append(
        f"  stream: {s['served']} served, {s['shed']} shed  "
        f"p50 {s['latency_p50_s']:.3f}s  p95 {s['latency_p95_s']:.3f}s  "
        f"p99 {s['latency_p99_s']:.3f}s  {s['throughput_rps']:.3f} rps"
    )
    for name, t in sorted(s["per_tenant"].items()):
        lines.append(
            f"    {name:>12}: {t['served']:4d} served "
            f"({t['throughput_rps']:.3f} rps)  p95 {t['latency_p95_s']:.3f}s"
            f"  shed {t['shed_rate']:.1%}"
        )
    o = report["overload"]
    lines.append(
        f"  overload (2x capacity): {o['served']} served, {o['shed']} shed "
        f"({o['shed_rate']:.1%}), completed={o['completed_all']}  "
        f"{'ok' if o['ok'] else 'FAILED'}"
    )
    c = report["chaos"]
    lines.append(
        f"  chaos ({c['scenario']}): {c['served']} served, "
        f"{c['degraded_jobs']} degraded, {c['shed']} shed, "
        f"{c.get('flight_dumps', 0)} flight dumps  "
        f"{'ok' if c['ok'] else 'FAILED'}"
    )
    tr = report.get("tracing")
    if tr:
        lines.append(
            f"  tracing: {tr['requests_traced']} span trees, max "
            f"attribution err {tr['max_attribution_err']:.2%}  "
            f"{'ok' if tr['attribution_ok'] else 'FAILED'}"
        )
    live = report["live"]
    if live.get("skipped"):
        lines.append("  live daemon: skipped")
    else:
        lines.append(
            f"  live daemon: {live['ok_requests']}/{live['requests']} ok "
            f"over HTTP, metrics_scraped={live['metrics_scraped']}, "
            f"trace_fetched={live.get('trace_fetched')}, "
            f"flight_dumped={live.get('flight_dumped')}, "
            f"drained={live['drained']} ({live['wall_s']:.2f}s)"
        )
    ratio = report.get("cache_hit_ratio")
    lines.append(
        f"  cache hit ratio: {ratio:.1%}" if ratio is not None
        else "  cache hit ratio: n/a"
    )
    lines.append(f"  wall time: {report['serve_wall_s']:.2f}s")
    lines.append("PASS" if report["ok"] else "FAIL")
    return "\n".join(lines)


def write_serve_report(report: dict, path) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
