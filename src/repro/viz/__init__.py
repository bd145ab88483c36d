"""Terminal visualizations: reduction trees, schedules, profiles.

Everything renders to plain text — the library targets headless HPC
environments; pipe the output into a pager or commit it as a golden file.
"""

from repro.viz.trees import render_reduction_tree, render_elimination_timeline
from repro.viz.profiles import (
    parallelism_profile, render_parallelism_profile, sparkline,
)

__all__ = [
    "render_reduction_tree",
    "render_elimination_timeline",
    "sparkline",
    "parallelism_profile",
    "render_parallelism_profile",
]
