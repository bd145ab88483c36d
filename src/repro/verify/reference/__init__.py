"""The object graph: the verifier's reference builder and simulator.

Production plans, simulates and executes one graph form, the flat-array
:class:`~repro.dag.compiled.CompiledGraph`.  This package keeps the
explicit form it replaced — one :class:`Task` object a kernel, Python
predecessor lists (:class:`TaskGraph`), the priority functions and DAG
analyses that read them, :func:`compile_graph` and the
:class:`ClusterSimulator` front end — only as the independent reference
that ``repro verify`` and the tests compare the production path against.
"""

from repro.verify.reference.graph import TaskGraph
from repro.verify.reference.simulator import ClusterSimulator, compile_graph
from repro.verify.reference.tasks import Task

__all__ = ["ClusterSimulator", "Task", "TaskGraph", "compile_graph"]
