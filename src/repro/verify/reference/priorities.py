"""Scheduling priority functions for the cluster simulator.

DAGuE schedules ready tasks "according to a data-reuse heuristic ... tuned
by the user through a priority function" (§IV-C).  The simulator accepts
any callable ``task -> sortable`` (lower runs first); this module provides
the standard choices plus the upward-rank (critical-path) priority the
paper's §VI proposes to investigate.
"""

from __future__ import annotations

from repro.verify.reference.analysis import upward_ranks
from repro.verify.reference.graph import TaskGraph
from repro.verify.reference.tasks import Task


def program_order(task: Task):
    """FIFO in DAG construction order — panel-major for panel-major lists."""
    return task.id


def panel_first(task: Task):
    """Prioritize lower panel indices (factorization front), then id."""
    return (task.panel, task.id)


def column_major(task: Task):
    """Prioritize by trailing column — finishes columns early (usually a
    poor choice; included as an ablation)."""
    return (task.col if task.col >= 0 else task.panel, task.id)


def upward_rank(graph: TaskGraph):
    """Critical-path priority: longest weighted path from each task to an
    exit, negated so that tasks on the critical path run first (HEFT's
    upward rank, restricted to computation weights)."""
    rank = upward_ranks(graph)

    def priority(task: Task):
        return (-rank[task.id], task.id)

    return priority


PRIORITIES = {
    "program-order": lambda graph: program_order,
    "panel-first": lambda graph: panel_first,
    "column-major": lambda graph: column_major,
    "critical-path": upward_rank,
}


def make_priority(name: str, graph: TaskGraph):
    """Instantiate a named priority for a graph."""
    try:
        factory = PRIORITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown priority {name!r}; choose from {sorted(PRIORITIES)}"
        ) from None
    return factory(graph)
