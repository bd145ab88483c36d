"""repro.serve — the HQR planner as a long-lived, multi-tenant service.

The paper's contribution is a *planner*: given ``(m, n, a, p x q,
tree/domino config)`` it produces an elimination list whose simulated
makespan ranks configurations.  This package serves that planner:

* :mod:`repro.serve.service` — :class:`PlannerService`, the in-process
  planning API answering from the warm compiled-graph cache;
* :mod:`repro.serve.scheduler` — bounded per-tenant queues,
  weighted-fair dequeue, admission control (shed with ``Retry-After``);
* :mod:`repro.serve.arrivals` — seeded Poisson / bursty /
  replay-from-file arrival generators;
* :mod:`repro.serve.stream` — deterministic virtual-time job-stream
  runner (same seed, same latency trace) with chaos windows that route
  jobs through :mod:`repro.resilience`;
* :mod:`repro.serve.slo` — per-tenant throughput, latency percentiles,
  shed rate, cache hit ratio, exported through the
  :mod:`repro.obs` MetricsRegistry;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the stdlib
  HTTP daemon (``repro serve``) and its JSON client;
* :mod:`repro.serve.bench` — the SLO-gated serving benchmark behind
  ``repro serve --bench``.

See ``docs/serving.md`` for the API schema and tenancy model.
"""

from repro.serve.arrivals import (
    Arrival,
    bursty_arrivals,
    poisson_arrivals,
    replay_arrivals,
    save_arrivals,
)
from repro.serve.scheduler import (
    Admission,
    FairScheduler,
    Job,
    TenantSpec,
    parse_tenants,
)
from repro.serve.service import PlannerService, PlanRequest, PlanResult
from repro.serve.slo import SLOTracker
from repro.serve.stream import ChaosWindow, StreamOutcome, run_stream

__all__ = [
    "Admission",
    "Arrival",
    "ChaosWindow",
    "FairScheduler",
    "Job",
    "PlanRequest",
    "PlanResult",
    "PlannerService",
    "SLOTracker",
    "StreamOutcome",
    "TenantSpec",
    "bursty_arrivals",
    "parse_tenants",
    "poisson_arrivals",
    "replay_arrivals",
    "run_stream",
    "save_arrivals",
]
