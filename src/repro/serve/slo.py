"""SLO accounting: per-tenant latency percentiles, throughput, shed rate.

One :class:`SLOTracker` per daemon collects request outcomes;
:meth:`SLOTracker.summary` reduces them to the SLO numbers ``GET
/stats`` reports and :meth:`SLOTracker.into_registry` exports them
through the :class:`~repro.obs.metrics.MetricsRegistry` for the
daemon's ``/metrics`` Prometheus endpoint.

Percentiles use the nearest-rank definition — deterministic, no
interpolation — so identical request streams produce bit-identical
summaries.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict

__all__ = ["SLOTracker", "percentile"]

#: latency buckets for the exported histogram (seconds)
LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)

#: summary percentiles, in the order they appear in reports
QUANTILES = (50, 95, 99)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(0, rank - 1)]


class SLOTracker:
    """Thread-safe accumulator of per-tenant serving outcomes."""

    def __init__(
        self, max_samples: int = 200_000, *, breach_s: float | None = None
    ):
        self._lock = threading.Lock()
        self.max_samples = max_samples
        #: latency above this (seconds) counts as an SLO breach; ``None``
        #: disables breach accounting
        self.breach_s = breach_s
        self._latency: dict[str, list[float]] = defaultdict(list)
        self._served: dict[str, int] = defaultdict(int)
        self._shed: dict[str, int] = defaultdict(int)
        self._errors: dict[str, int] = defaultdict(int)
        self._degraded: dict[str, int] = defaultdict(int)
        self._breaches: dict[str, int] = defaultdict(int)
        self._cache_hits = 0
        self._cache_lookups = 0
        self.dropped_samples = 0

    def record(
        self,
        tenant: str,
        *,
        latency: float,
        outcome: str,
        cache_hit: bool | None = None,
        degraded: bool = False,
    ) -> None:
        """One finished (or shed) request.

        ``outcome`` is ``"served"``, ``"shed"`` or ``"error"``; latency
        is only sampled for served requests.
        """
        if outcome not in ("served", "shed", "error"):
            raise ValueError(f"unknown outcome {outcome!r}")
        with self._lock:
            if outcome == "served":
                self._served[tenant] += 1
                if self.breach_s is not None and latency > self.breach_s:
                    self._breaches[tenant] += 1
                lat = self._latency[tenant]
                if len(lat) < self.max_samples:
                    lat.append(latency)
                else:
                    self.dropped_samples += 1
            elif outcome == "shed":
                self._shed[tenant] += 1
            else:
                self._errors[tenant] += 1
            if degraded:
                self._degraded[tenant] += 1
            if cache_hit is not None:
                self._cache_lookups += 1
                if cache_hit:
                    self._cache_hits += 1

    # -- reductions ---------------------------------------------------- #
    def tenants(self) -> tuple[str, ...]:
        with self._lock:
            names = set(self._served) | set(self._shed) | set(self._errors)
        return tuple(sorted(names))

    def cache_hit_ratio(self) -> float | None:
        """Hits over lookups, or None when nothing was looked up."""
        with self._lock:
            if not self._cache_lookups:
                return None
            return self._cache_hits / self._cache_lookups

    def summary(self, duration: float) -> dict:
        """SLO reduction over ``duration`` seconds.

        Per-tenant throughput, latency percentiles, shed rate; plus the
        aggregate view.  Deterministic in the recorded outcomes —
        cache-dependent numbers live outside this dict (see
        :meth:`cache_hit_ratio`), so two identical request records compare
        equal even when only the second one found a warm cache.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        per_tenant = {}
        all_lat: list[float] = []
        total_served = total_shed = total_errors = 0
        with self._lock:
            names = sorted(
                set(self._served) | set(self._shed) | set(self._errors)
            )
            for name in names:
                lat = self._latency.get(name, [])
                served = self._served.get(name, 0)
                shed = self._shed.get(name, 0)
                errors = self._errors.get(name, 0)
                offered = served + shed + errors
                entry = {
                    "served": served,
                    "shed": shed,
                    "errors": errors,
                    "throughput_rps": served / duration,
                    "shed_rate": shed / offered if offered else 0.0,
                    "degraded": self._degraded.get(name, 0),
                }
                for q in QUANTILES:
                    entry[f"latency_p{q}_s"] = percentile(lat, q)
                entry["latency_mean_s"] = (
                    sum(lat) / len(lat) if lat else 0.0
                )
                per_tenant[name] = entry
                all_lat.extend(lat)
                total_served += served
                total_shed += shed
                total_errors += errors
        offered = total_served + total_shed + total_errors
        out = {
            "duration_s": duration,
            "served": total_served,
            "shed": total_shed,
            "errors": total_errors,
            "throughput_rps": total_served / duration,
            "shed_rate": total_shed / offered if offered else 0.0,
            "per_tenant": per_tenant,
        }
        for q in QUANTILES:
            out[f"latency_p{q}_s"] = percentile(all_lat, q)
        return out

    # -- export -------------------------------------------------------- #
    def into_registry(self, reg, *, duration: float | None = None) -> None:
        """Export into a :class:`~repro.obs.metrics.MetricsRegistry`."""
        requests = reg.counter(
            "repro_serve_requests_total",
            "planning requests by tenant and outcome",
        )
        lat_hist = reg.histogram(
            "repro_serve_latency_seconds",
            "served request latency (queue wait + service)",
            buckets=LATENCY_BUCKETS,
        )
        quant = reg.gauge(
            "repro_serve_latency_quantile_seconds",
            "nearest-rank latency percentiles by tenant",
        )
        with self._lock:
            names = sorted(
                set(self._served) | set(self._shed) | set(self._errors)
            )
            for name in names:
                for outcome, counts in (
                    ("served", self._served),
                    ("shed", self._shed),
                    ("error", self._errors),
                ):
                    if counts.get(name):
                        requests.inc(
                            counts[name], tenant=name, outcome=outcome
                        )
                lat = self._latency.get(name, [])
                for v in lat:
                    lat_hist.observe(v)
                for q in QUANTILES:
                    quant.set(
                        percentile(lat, q), tenant=name, quantile=f"p{q}"
                    )
            degraded = sum(self._degraded.values())
            breaches = dict(self._breaches)
            hits, lookups = self._cache_hits, self._cache_lookups
        if degraded:
            reg.counter(
                "repro_serve_degraded_total",
                "requests answered through the fault-recovery path",
            ).inc(degraded)
        if breaches:
            breach_total = reg.counter(
                "repro_serve_slo_breaches_total",
                "served requests over the latency SLO threshold",
            )
            for name, n in sorted(breaches.items()):
                breach_total.inc(n, tenant=name)
        if lookups:
            reg.gauge(
                "repro_serve_cache_hit_ratio",
                "request-level warm-graph hit ratio",
            ).set(hits / lookups)
        if duration is not None and duration > 0:
            with self._lock:
                served = sum(self._served.values())
            reg.gauge(
                "repro_serve_throughput_rps", "served requests per second"
            ).set(served / duration)
