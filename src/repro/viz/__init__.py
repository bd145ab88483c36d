"""Terminal visualizations: parallelism profiles and sparklines.

Everything renders to plain text — the library targets headless HPC
environments; pipe the output into a pager or commit it as a golden file.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.viz.profiles": (
        "parallelism_profile", "render_parallelism_profile",
        "sparkline",
    ),
})
