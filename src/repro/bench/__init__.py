"""Benchmark harnesses regenerating the paper's tables and figures.

Each function returns the data series of one paper artifact (computed with
the cluster simulator and the analytic SCALAPACK model); the pytest-benchmark
suites under ``benchmarks/`` drive them and print paper-style output.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.runner": (
        "BenchSetup", "run_config", "run_config_sweep",
        "run_eliminations", "sweep_m_values",
    ),
    "repro.bench.figures": ("figure6", "figure7", "figure8", "figure9"),
    "repro.bench.tables": (
        "table1", "table2", "table3", "table4", "figure5_views",
        "panel_tree_figures",
    ),
})
