"""Analytic models: performance prediction, lower bounds, config exploration.

The simulator replays a DAG event by event; these models predict without
replaying — the "assess priorities / huge parameter space to explore"
programme of §VI.  The explorer uses them to rank HQR configurations
cheaply, and the test-suite checks the predictions bracket and correlate
with the simulator.
"""

from repro.models.performance import PerformanceModel, Prediction
from repro.models.bounds import bandwidth_lower_bound_words
from repro.models.explorer import ConfigExplorer, RankedConfig

__all__ = [
    "PerformanceModel",
    "Prediction",
    "bandwidth_lower_bound_words",
    "ConfigExplorer",
    "RankedConfig",
]
