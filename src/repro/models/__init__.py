"""Analytic models: performance prediction, lower bounds, config exploration.

The simulator replays a DAG event by event; these models predict without
replaying — the "assess priorities / huge parameter space to explore"
programme of §VI.  The explorer uses them to rank HQR configurations
cheaply, and the test-suite checks the predictions bracket and correlate
with the simulator.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.models.performance": ("PerformanceModel", "Prediction"),
    "repro.models.bounds": ("bandwidth_lower_bound_words",),
    "repro.models.explorer": ("ConfigExplorer", "RankedConfig"),
})
