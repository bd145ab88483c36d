"""Terminal visualizations: parallelism profiles and sparklines.

Everything renders to plain text — the library targets headless HPC
environments; pipe the output into a pager or commit it as a golden file.
"""

from repro.viz.profiles import (
    parallelism_profile, render_parallelism_profile, sparkline,
)

__all__ = [
    "sparkline",
    "parallelism_profile",
    "render_parallelism_profile",
]
