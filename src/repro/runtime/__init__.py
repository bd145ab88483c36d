"""Runtime layer: execute or simulate a task graph.

Two complementary engines, mirroring what DAGuE provides in the paper:

* **Numeric executors** (:mod:`repro.runtime.executor`) actually run the
  tile kernels on a :class:`~repro.tiles.matrix.TiledMatrix` — sequentially
  or with a dependency-driven thread pool — producing the real ``R`` (and
  ``Q`` on demand).
* **Distributed simulator** (:mod:`repro.runtime.simulator`) replays the
  DAG on a modelled cluster (p x q nodes, C cores each, per-kernel rates,
  latency/bandwidth network with one communication channel per node) and
  reports makespan, GFlop/s, and message counts.  This substitutes for the
  paper's 60-node edel platform — see DESIGN.md §2.
"""

from repro.runtime.machine import Machine
from repro.runtime.executor import SequentialExecutor, ThreadedExecutor
from repro.runtime.simulator import ClusterSimulator, SimulationResult

__all__ = [
    "Machine",
    "SequentialExecutor",
    "ThreadedExecutor",
    "ClusterSimulator",
    "SimulationResult",
]

# The event-loop core lives in repro.runtime.core (imported lazily by
# ClusterSimulator._run_core to avoid a circular import at package init).
