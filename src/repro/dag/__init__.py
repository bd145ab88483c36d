"""Task-graph layer: from an elimination list to a kernel-level DAG.

The paper's DAGuE implementation consumes "a function that computes the
elimination list" and derives every kernel task and data movement from it
(§IV-C).  This package is the equivalent: :class:`TaskGraph` expands an
elimination list into GEQRT/UNMQR/TSQRT/TSMQR/TTQRT/TTMQR task instances,
infers the dataflow dependencies from tile access order, and offers the
standard DAG analyses (upward ranks, parallelism profile, weight
invariants).
"""

from repro.dag.tasks import Task
from repro.dag.graph import TaskGraph
from repro.dag.analysis import (
    parallelism_profile,
    total_weight,
    theoretical_total_weight,
    upward_ranks,
)

__all__ = [
    "Task",
    "TaskGraph",
    "parallelism_profile",
    "total_weight",
    "theoretical_total_weight",
    "upward_ranks",
]
