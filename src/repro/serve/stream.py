"""Deterministic virtual-time job-stream execution.

The live daemon measures wall-clock latencies, which no two runs ever
reproduce bit-for-bit.  The stream runner instead executes a seeded
arrival trace in *virtual time*: ``capacity`` model servers, weighted-
fair dequeue, and a service time equal to each plan's simulated
makespan (deterministic in the request).  Same seed, same admission
decisions, same latency trace — the property the serving benchmark's SLO
numbers and the scheduler-invariant tests are built on.

Planning itself still really happens (through the warm compiled-graph
cache), so a stream run exercises the exact code path the daemon
serves; only *time* is simulated.

Chaos windows couple the stream to :mod:`repro.resilience`: jobs
dispatched inside the window carry a fault scenario, are planned once
on the C planner and run through
:func:`~repro.resilience.simulate.run_with_faults` (crash recovery,
shrunken-grid replanning), and come back with inflated makespans — live traffic then shows the
degradation as queue growth and admission sheds instead of a wedged
service.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from repro.obs.tracing import Span, Tracer, stream_trace_id
from repro.serve.arrivals import Arrival
from repro.serve.scheduler import FairScheduler, Job, TenantSpec
from repro.serve.service import PlannerService, PlanRequest
from repro.serve.slo import SLOTracker

__all__ = ["ChaosWindow", "StreamOutcome", "run_stream"]


@dataclass(frozen=True)
class ChaosWindow:
    """Fault scenario applied to jobs dispatched in ``[start, end)``."""

    scenario: str
    seed: int = 0
    start: float = 0.0
    end: float = math.inf
    severity: float = 1.0

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def apply(self, req: PlanRequest) -> PlanRequest:
        """Attach the scenario (explicit request faults win)."""
        if req.fault_scenario is not None:
            return req
        return replace(
            req,
            fault_scenario=self.scenario,
            fault_seed=self.seed,
            fault_severity=self.severity,
        )


@dataclass
class StreamOutcome:
    """Everything one stream run produced."""

    trace: list[dict]  # per-job admission/latency records, arrival order
    slo: SLOTracker
    duration: float  # virtual horizon (last completion or arrival)
    served: int
    shed: int
    degraded: int

    @property
    def total(self) -> int:
        return self.served + self.shed

    def summary(self) -> dict:
        """Deterministic per-tenant SLO summary (see ``SLOTracker``)."""
        return self.slo.summary(self.duration)


def run_stream(
    service: PlannerService,
    tenants: tuple[TenantSpec, ...],
    arrivals: list[Arrival],
    *,
    capacity: int = 2,
    max_inflight_cost: float | None = None,
    chaos: ChaosWindow | None = None,
    min_service: float = 1e-3,
    default_cost: float = 1.0,
    tracer: Tracer | None = None,
) -> StreamOutcome:
    """Run an arrival trace through the scheduler in virtual time.

    Every arrival is either shed by admission control (recorded with its
    deterministic ``retry_after``) or queued, dequeued weighted-fairly
    when one of the ``capacity`` servers frees up, planned for real, and
    completed after a virtual service time of the plan's makespan.
    Returns the full per-job trace; the run never blocks — an overloaded
    stream sheds and still terminates with every job accounted for.

    ``tracer`` (optional) collects a per-request span tree in *virtual*
    time — trace ids derived from the job id, no wall clocks — so
    seeded runs stay bit-reproducible with tracing on; degraded and
    shed jobs trigger its flight recorder.
    """
    sched = FairScheduler(
        tenants, capacity=capacity, max_inflight_cost=max_inflight_cost
    )
    slo = SLOTracker()
    trace: list[dict] = []
    busy: list[tuple[float, int, Job, object]] = []  # (finish, id, job, res)
    idle = capacity
    horizon = 0.0
    served = shed = degraded = 0

    def dispatch(now: float) -> None:
        nonlocal idle, degraded
        while idle > 0:
            job = sched.next_job(now)
            if job is None:
                return
            idle -= 1
            req = PlanRequest.from_json(job.request)
            if chaos is not None and chaos.active(now):
                req = chaos.apply(req)
            result = service.plan(req)
            if result.degradation > 1.0:
                degraded += 1
            svc = max(min_service, result.makespan)
            heapq.heappush(busy, (now + svc, job.job_id, job, result))

    def complete() -> None:
        nonlocal idle, served, horizon
        finish, _, job, result = heapq.heappop(busy)
        sched.finish(job)
        idle += 1
        latency = finish - job.arrival
        slo.record(
            job.tenant,
            latency=latency,
            outcome="served",
            cache_hit=result.cache_hit,
            degraded=result.degradation > 1.0,
        )
        if tracer is not None:
            tr = tracer.start(
                job.tenant, job.arrival,
                trace_id=stream_trace_id(job.job_id),
                span_id=f"{job.job_id:016x}",
                job_id=job.job_id,
            )
            tr.span("admission", job.arrival, job.arrival, admitted=True)
            tr.span("queue", job.arrival, job.start)
            svc = tr.span(
                "service", job.start, finish,
                cache_hit=result.cache_hit,
                degradation=result.degradation,
            )
            svc.children.append(
                Span("simulate", job.start, finish, {"engine": "virtual"})
            )
            tracer.finish(tr, finish)
            if result.degradation > 1.0:
                tracer.flight.trigger(
                    "fault", now=finish,
                    detail=f"job {job.job_id} degradation "
                           f"{result.degradation:.3f}",
                )
        trace.append(
            {
                "job": job.job_id,
                "tenant": job.tenant,
                "outcome": "served",
                "arrival": job.arrival,
                "start": job.start,
                "finish": finish,
                "latency": latency,
                "degradation": result.degradation,
            }
        )
        served += 1
        horizon = max(horizon, finish)
        dispatch(finish)

    i, n = 0, len(arrivals)
    job_id = 0
    while i < n or busy:
        next_arrival = arrivals[i].time if i < n else math.inf
        next_finish = busy[0][0] if busy else math.inf
        if next_finish <= next_arrival:
            complete()
            continue
        ev = arrivals[i]
        i += 1
        horizon = max(horizon, ev.time)
        cost = float(ev.request.get("cost", default_cost))
        job = Job(
            job_id=job_id,
            tenant=ev.tenant,
            request=ev.request,
            cost=cost,
            arrival=ev.time,
        )
        job_id += 1
        adm = sched.offer(job, ev.time)
        if not adm.admitted:
            slo.record(ev.tenant, latency=0.0, outcome="shed")
            if tracer is not None:
                tr = tracer.start(
                    ev.tenant, ev.time,
                    trace_id=stream_trace_id(job.job_id),
                    span_id=f"{job.job_id:016x}",
                    job_id=job.job_id,
                )
                tr.span(
                    "admission", ev.time, ev.time,
                    admitted=False, reason=adm.reason,
                )
                tracer.finish(tr, ev.time, status="shed")
                tracer.flight.trigger(
                    "shed", now=ev.time,
                    detail=f"{ev.tenant}: {adm.reason}",
                )
            trace.append(
                {
                    "job": job.job_id,
                    "tenant": ev.tenant,
                    "outcome": "shed",
                    "arrival": ev.time,
                    "reason": adm.reason,
                    "retry_after": adm.retry_after,
                }
            )
            shed += 1
            continue
        dispatch(ev.time)

    return StreamOutcome(
        trace=trace,
        slo=slo,
        duration=max(horizon, min_service),
        served=served,
        shed=shed,
        degraded=degraded,
    )
