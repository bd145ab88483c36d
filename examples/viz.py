"""Terminal pictures of a task graph: parallelism profiles and sparklines.

The profile (tasks eligible per unit step, :func:`parallelism_profile`)
shows a tree's pipeline behaviour at a glance: flat trees ramp up one task
at a time, greedy fans out immediately — §III-B's discussion as a picture.
Everything renders to plain text.  ``design_space.py`` prints it; this
module is imported by that example, not run.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dag.compiled import CompiledGraph


def parallelism_profile(graph: CompiledGraph) -> list[int]:
    """Tasks eligible per unit step under infinite resources (unit weights).

    ``profile[s]`` counts tasks whose earliest unit-time start is step ``s``
    (one more than the latest of their predecessors', over the successor
    CSR in program order); its length is the unit critical path.
    """
    ptr, succ = graph.succ_ptr.tolist(), graph.succ_idx.tolist()
    level = [0] * len(graph)
    for t, lv in enumerate(level):
        for s in succ[ptr[t] : ptr[t + 1]]:
            if level[s] <= lv:
                level[s] = lv + 1
    return np.bincount(level).tolist() if level else []

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, width: int | None = None) -> str:
    """Unicode sparkline of a numeric series (resampled to ``width``)."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and len(vals) > width:
        # bucket means
        out = []
        per = len(vals) / width
        for i in range(width):
            lo, hi = int(i * per), max(int((i + 1) * per), int(i * per) + 1)
            bucket = vals[lo:hi]
            out.append(sum(bucket) / len(bucket))
        vals = out
    top = max(vals)
    if top == 0:
        return _BLOCKS[0] * len(vals)
    return "".join(_BLOCKS[min(8, int(v / top * 8 + 0.5))] for v in vals)


def render_parallelism_profile(
    profile: Sequence[int], *, width: int = 72, label: str = ""
) -> str:
    """Sparkline plus summary statistics of a parallelism profile."""
    if not profile:
        return f"{label}: (empty)"
    peak = max(profile)
    mean = sum(profile) / len(profile)
    spark = sparkline(profile, width=width)
    head = f"{label}: " if label else ""
    return (
        f"{head}{spark}\n"
        f"{'':>{len(head)}}steps={len(profile)}  peak={peak}  mean={mean:.1f}"
    )
