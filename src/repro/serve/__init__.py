"""repro.serve — the HQR planner as a long-lived, multi-tenant service.

The paper's contribution is a *planner*: given ``(m, n, a, p x q,
tree/domino config)`` it produces an elimination list whose simulated
makespan ranks configurations.  This package serves that planner:

* :mod:`repro.serve.service` — :class:`PlannerService`, the in-process
  planning API answering from the warm compiled-graph cache;
* :mod:`repro.serve.scheduler` — bounded per-tenant queues,
  weighted-fair dequeue, admission control (shed with ``Retry-After``);
* :mod:`repro.serve.arrivals` — a seeded Poisson arrival generator,
  the load :func:`repro.serve.client.drive` replays against a daemon;
* :mod:`repro.serve.slo` — per-tenant throughput, latency percentiles,
  shed rate, cache hit ratio, exported through the
  :mod:`repro.obs` MetricsRegistry;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the stdlib
  HTTP daemon (``repro serve``) and its JSON client.

See ``docs/serving.md`` for the API schema and tenancy model.
"""

from repro.serve.arrivals import Arrival, poisson_arrivals
from repro.serve.scheduler import (
    Admission,
    FairScheduler,
    Job,
    TenantSpec,
    parse_tenants,
)
from repro.serve.service import PlannerService, PlanRequest, PlanResult
from repro.serve.slo import SLOTracker

__all__ = [
    "Admission",
    "Arrival",
    "FairScheduler",
    "Job",
    "PlanRequest",
    "PlanResult",
    "PlannerService",
    "SLOTracker",
    "TenantSpec",
    "parse_tenants",
    "poisson_arrivals",
]
