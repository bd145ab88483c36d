"""In-process planning service: the daemon's brain, usable without HTTP.

A :class:`PlanRequest` is one tenant question — "what does this
factorization cost, under this (or an auto-picked) HQR configuration,
optionally under faults?".  :class:`PlannerService.plan` answers it with
:func:`~repro.bench.runner.answers` over the warm fingerprint-keyed
compiled-graph cache (:mod:`repro.dag.cache`): a repeated question about
the same ``(m, n, config, layout, machine, b)`` point is one lookup of
the result remembered on that graph's cache entry — no DAG construction
and no simulation; fault-carrying requests are planned once more with
the C planner and run through
:func:`~repro.resilience.simulate.run_with_faults`, reporting the
degradation instead of failing.

Everything a result carries is deterministic in the request.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

from repro.bench.runner import BenchSetup, answers
from repro.hqr.config import HQRConfig
from repro.tiles.layout import BlockCyclic2D

__all__ = ["PlanRequest", "PlanResult", "PlannerService"]

#: request fields accepted in the JSON ``config`` object
_CONFIG_KEYS = ("p", "q", "a", "low", "high", "domino")

#: upper bound on request size, so one tenant cannot wedge a worker
#: behind a million-task DAG build (paper-scale sweeps go through
#: ``run_config_sweep``, not the serving path)
MAX_TILES = 512


def _number(value, what: str, *, positive: bool) -> float:
    """``value`` as a finite float ``> 0`` (``positive``) or ``>= 0``."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if math.isinf(out) or not (out > 0 if positive else out >= 0):
        raise ValueError(f"{what} must be a finite number "
                         f"{'>' if positive else '>='} 0, got {value!r}")
    return out


@dataclass(frozen=True)
class PlanRequest:
    """One planning question, JSON-serializable for the HTTP API."""

    m: int
    n: int
    config: HQRConfig | None = None  # None = auto-pick (§VI rules)
    fault_scenario: str | None = None
    fault_seed: int = 0
    fault_severity: float = 1.0
    cost: float | None = None  # admission-control cost estimate

    @classmethod
    def from_json(cls, payload: dict) -> "PlanRequest":
        """Validate and decode the wire format; raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        try:
            m, n = int(payload["m"]), int(payload["n"])
        except (KeyError, TypeError, ValueError):
            raise ValueError("request needs integer 'm' and 'n'") from None
        if m <= 0 or n <= 0 or m < n:
            raise ValueError(f"need m >= n >= 1 tiles, got m={m}, n={n}")
        if m > MAX_TILES or n > MAX_TILES:
            raise ValueError(
                f"request exceeds the serving size cap of {MAX_TILES} tiles"
            )
        cfg_spec = payload.get("config", "auto")
        if cfg_spec == "auto" or cfg_spec is None:
            config = None
        elif isinstance(cfg_spec, dict):
            unknown = set(cfg_spec) - set(_CONFIG_KEYS)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            try:
                config = HQRConfig(
                    p=int(cfg_spec.get("p", 1)),
                    q=int(cfg_spec.get("q", 1)),
                    a=int(cfg_spec.get("a", 1)),
                    low_tree=str(cfg_spec.get("low", "greedy")),
                    high_tree=str(cfg_spec.get("high", "fibonacci")),
                    domino=bool(cfg_spec.get("domino", True)),
                )
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad config: {exc}") from None
        else:
            raise ValueError("'config' must be \"auto\" or an object")
        faults = payload.get("faults")
        scenario, fseed, fsev = None, 0, 1.0
        if faults is not None:
            if not isinstance(faults, dict) or "scenario" not in faults:
                raise ValueError("'faults' must be {scenario, seed?, severity?}")
            from repro.resilience.faults import scenario_names

            scenario, fseed = faults["scenario"], faults.get("seed", 0)
            if scenario not in scenario_names():
                raise ValueError(f"unknown fault scenario {scenario!r}")
            if type(fseed) is not int:
                raise ValueError(f"fault seed must be an integer, got {fseed!r}")
            fsev = _number(faults.get("severity", 1.0), "fault severity",
                           positive=True)
        cost = payload.get("cost")
        if cost is not None:
            # a negative cost banks fair-queuing credit, a NaN one disables
            # the in-flight budget for good
            cost = _number(cost, "cost", positive=False)
        return cls(
            m=m,
            n=n,
            config=config,
            fault_scenario=scenario,
            fault_seed=fseed,
            fault_severity=fsev,
            cost=cost,
        )

    def to_json(self) -> dict:
        out: dict = {"m": self.m, "n": self.n}
        if self.config is None:
            out["config"] = "auto"
        else:
            c = self.config
            out["config"] = {
                "p": c.p, "q": c.q, "a": c.a,
                "low": c.low_tree, "high": c.high_tree, "domino": c.domino,
            }
        if self.fault_scenario is not None:
            out["faults"] = {
                "scenario": self.fault_scenario,
                "seed": self.fault_seed,
                "severity": self.fault_severity,
            }
        if self.cost is not None:
            out["cost"] = self.cost
        return out


@dataclass(frozen=True)
class PlanResult:
    """Planner answer: simulated cost of the configured factorization."""

    makespan: float
    gflops: float
    messages: int
    config: str  # resolved configuration (after auto-pick)
    auto: bool  # config was auto-picked
    cache_hit: bool  # the question's cache entry was resident
    degradation: float  # makespan / fault-free makespan (1.0 = no faults)
    replanned: bool  # faults forced a shrunken-grid replan
    plan_wall_s: float  # real seconds this plan took to compute

    def to_json(self) -> dict:
        return {
            "makespan_s": self.makespan,
            "gflops": self.gflops,
            "messages": self.messages,
            "config": self.config,
            "auto": self.auto,
            "cache_hit": self.cache_hit,
            "degradation": self.degradation,
            "replanned": self.replanned,
            "plan_wall_s": self.plan_wall_s,
        }


class PlannerService:
    """Thread-safe planning front end over the simulation stack.

    One instance per daemon; its HTTP handler threads call :meth:`plan`
    concurrently.  The underlying compiled-graph cache is shared
    process-wide and lock-protected, so concurrent planners de-duplicate
    builds instead of racing them.
    """

    def __init__(self, setup: BenchSetup | None = None):
        self.setup = setup or BenchSetup()
        self._lock = threading.Lock()
        self.plans = 0
        self.failures = 0
        self.plan_wall_s = 0.0

    # ------------------------------------------------------------------ #
    def resolve_config(self, req: PlanRequest) -> tuple[HQRConfig, bool]:
        """The request's config, or the §VI auto rules when absent."""
        if req.config is not None:
            cfg = req.config
            auto = False
        else:
            from repro.hqr.auto import auto_config

            cfg = auto_config(
                req.m,
                req.n,
                grid_p=self.setup.grid_p,
                grid_q=self.setup.grid_q,
                cores_per_node=self.setup.machine.cores_per_node,
            )
            auto = True
        if cfg.p * cfg.q > self.setup.machine.nodes:
            raise ValueError(
                f"virtual grid {cfg.p} x {cfg.q} exceeds the "
                f"{self.setup.machine.nodes}-node machine"
            )
        return cfg, auto

    def plan(self, req: PlanRequest) -> PlanResult:
        """Answer one request; deterministic in the request contents."""
        t0 = time.perf_counter()
        try:
            result = self._plan(req, t0)
        except Exception:
            with self._lock:
                self.failures += 1
            raise
        with self._lock:
            self.plans += 1
            self.plan_wall_s += result.plan_wall_s
        return result

    def _plan(self, req: PlanRequest, t0: float) -> PlanResult:
        cfg, auto = self.resolve_config(req)
        layout = BlockCyclic2D(cfg.p, cfg.q)
        # a fault-free result is a pure function of the fingerprinted inputs:
        # only a first-seen (or evicted) question simulates
        res, cache_hit, _ = answers([(req.m, req.n, cfg, layout)],
                                    self.setup.machine, self.setup.b, reuse=True)[0]
        degradation, replanned = 1.0, False
        if req.fault_scenario is not None:
            faulty = self._plan_with_faults(req, cfg, layout, res.makespan)
            degradation = faulty.degradation
            replanned = bool(faulty.crashed_nodes)
            res = faulty
        return PlanResult(
            makespan=res.makespan,
            gflops=res.gflops,
            messages=res.messages,
            config=str(cfg),
            auto=auto,
            cache_hit=cache_hit,
            degradation=degradation,
            replanned=replanned,
            plan_wall_s=time.perf_counter() - t0,
        )

    def _plan_with_faults(self, req, cfg, layout, baseline: float):
        """Re-run the plan under an injected fault scenario.

        :func:`~repro.resilience.simulate.run_with_faults` recovers
        (lineage-cone re-execution, shrunken-grid replanning) rather than
        failing, so a chaos-window request still gets an answer — just a
        degraded one.
        """
        from repro.hqr.hierarchy import hqr_elimination_list
        from repro.resilience import FaultSchedule, run_with_faults

        # target the ranks the layout actually uses — a crash on one of
        # the machine's idle nodes would be a no-op "fault"
        active = max(2, cfg.p * cfg.q)
        schedule = FaultSchedule.scenario(
            req.fault_scenario,
            seed=req.fault_seed,
            nodes=min(active, self.setup.machine.nodes),
            horizon=baseline,
            severity=req.fault_severity,
        )
        return run_with_faults(
            hqr_elimination_list(req.m, req.n, cfg), req.m, req.n, layout,
            self.setup.machine, self.setup.b, schedule,
            baseline_makespan=baseline,
        )

    # ------------------------------------------------------------------ #
    def counters(self) -> dict[str, float]:
        with self._lock:
            return {
                "plans": self.plans,
                "failures": self.failures,
                "plan_wall_s": self.plan_wall_s,
            }
