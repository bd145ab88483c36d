"""Fault injection, failure-aware rescheduling, and recovery benchmarking.

The paper's experiments run on a 60-node Grid'5000 cluster where node
failures and stragglers are routine; the fault-free simulator and the
distributed engine model a perfect machine.  This package supplies the
missing robustness layer:

* :mod:`repro.resilience.faults` — deterministic, seed-driven fault
  schedules: node crashes at time *t*, transient slowdowns, message
  drops; composable into named scenarios;
* :mod:`repro.resilience.simulate` — failure-aware simulation
  (:func:`run_with_faults`, one plan on the C planner): a crash
  invalidates in-flight and lost tasks, a detection-latency model fires,
  and recovery re-executes the affected DAG cone on the surviving nodes;
* :mod:`repro.resilience.replan` — re-planning on the shrunken grid:
  degraded ``p x q`` selection and the restart-from-scratch alternative
  recovery strategy (a fresh :mod:`repro.hqr` elimination tree on the
  survivors);
* :mod:`repro.resilience.bench` — the recovery benchmark behind
  ``repro faults``: makespan-degradation and recovery-overhead curves
  per scenario, written as JSON with ``--json``.

With an empty fault schedule :func:`run_with_faults` is bit-identical to
the fault-free core (asserted by ``tests/resilience``).
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.faults": (
        "FaultSchedule", "MessageDrops", "NodeCrash", "Slowdown",
        "scenario_names",
    ),
    "repro.resilience.replan": ("shrunken_config", "shrunken_grid"),
    "repro.resilience.simulate": ("FaultyRunResult", "run_with_faults"),
})
