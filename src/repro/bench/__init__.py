"""Benchmark harnesses regenerating the paper's tables and figures.

Each function returns the data series of one paper artifact (computed with
the cluster simulator and the analytic SCALAPACK model); the pytest-benchmark
suites under ``benchmarks/`` drive them and print paper-style output.
"""

from repro.bench.runner import (
    BenchSetup,
    run_config,
    run_config_sweep,
    run_eliminations,
    sweep_m_values,
)
from repro.bench.figures import figure6, figure7, figure8, figure9
from repro.bench.tables import (
    table1,
    table2,
    table3,
    table4,
    figure5_views,
    panel_tree_figures,
)

__all__ = [
    "BenchSetup",
    "run_config",
    "run_config_sweep",
    "run_eliminations",
    "sweep_m_values",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "table1",
    "table2",
    "table3",
    "table4",
    "figure5_views",
    "panel_tree_figures",
]
