"""Deterministic seeded arrival process: the load a daemon is driven with.

The same seed must produce the same request sequence on every machine
and in every process: :func:`poisson_arrivals` derives its randomness
from ``random.Random`` seeded with a string (seeded via SHA-512, stable
across processes and platforms) and returns a plain sorted list of
:class:`Arrival` events, independent per-tenant Poisson streams
(memoryless steady-state traffic) timed in seconds from the start.
:func:`repro.serve.client.drive` replays them against a live daemon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

__all__ = ["Arrival", "poisson_arrivals"]

#: request factory signature: (per-tenant rng, tenant name) -> JSON dict
RequestFactory = Callable[[random.Random, str], dict]


@dataclass(frozen=True)
class Arrival:
    """One job arriving at ``time`` (seconds from the start) for ``tenant``."""

    time: float
    tenant: str
    request: dict


def _default_request(rng: random.Random, tenant: str) -> dict:
    return {"m": 16, "n": 4, "config": "auto"}


def poisson_arrivals(
    rates: dict[str, float],
    duration: float,
    *,
    seed: int = 0,
    request_factory: RequestFactory = _default_request,
) -> list[Arrival]:
    """Independent Poisson stream per tenant over ``[0, duration)``.

    ``rates`` maps tenant name to arrival rate in jobs per second.  A
    rate of 0 yields no arrivals for that tenant.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    events: list[Arrival] = []
    for tenant in sorted(rates):
        rate = rates[tenant]
        if rate < 0:
            raise ValueError(f"negative rate for tenant {tenant!r}")
        if rate == 0:
            continue
        # one RNG per tenant, seeded with a string (SHA-512 based: stable
        # across processes, platforms and python builds)
        rng = random.Random(f"repro.serve:{seed}:poisson:{tenant}")
        t = rng.expovariate(rate)
        while t < duration:
            events.append(Arrival(t, tenant, request_factory(rng, tenant)))
            t += rng.expovariate(rate)
    events.sort(key=lambda a: (a.time, a.tenant))
    return events
