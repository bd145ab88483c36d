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

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.serve.arrivals": ("Arrival", "poisson_arrivals"),
    "repro.serve.scheduler": (
        "Admission", "FairScheduler", "Job", "TenantSpec",
        "parse_tenants",
    ),
    "repro.serve.service": ("PlannerService", "PlanRequest", "PlanResult"),
    "repro.serve.slo": ("SLOTracker",),
})
