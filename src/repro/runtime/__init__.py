"""Runtime layer: execute or simulate a compiled task graph.

Two complementary engines, mirroring what DAGuE provides in the paper:

* **Numeric executors** (:mod:`repro.runtime.executor`) actually run the
  tile kernels on a :class:`~repro.tiles.matrix.TiledMatrix` — sequentially
  or with a dependency-driven thread pool — producing the real ``R`` (and
  ``Q`` on demand).
* **The event-loop core** (:mod:`repro.runtime.core`) replays the DAG on a
  modelled cluster (p x q nodes, C cores each, per-kernel rates,
  latency/bandwidth network with one communication channel per node) and
  reports makespan, GFlop/s, and message counts.  This substitutes for the
  paper's 60-node edel platform — see DESIGN.md §2.
"""

from repro.runtime.machine import Machine
from repro.runtime.executor import SequentialExecutor, ThreadedExecutor

__all__ = [
    "Machine",
    "SequentialExecutor",
    "ThreadedExecutor",
]
