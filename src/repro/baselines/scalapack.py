"""SCALAPACK PDGEQRF performance model.

SCALAPACK's QR is a *panel* algorithm, not a tile algorithm: it performs one
parallel distributed reduction per **column** (not per tile), so "there is a
factor of b in the latency term" compared to tile algorithms (§V-C), and its
panel factorization is memory-bound BLAS-2 work on the critical path.

The model has two components:

* **panel critical path** — for each of the ``N`` columns: a BLAS-2
  reflector generation/application over the local rows of the panel's
  process column (at an effective memory-bound rate) plus a per-column
  collective (norm + pivot-free reduction) over the process-row tree;
* **trailing-update throughput** — the remaining ``~2MN^2`` flops run at an
  effective per-core GEMM rate over all cores.

With lookahead the two overlap, so ``T = max(panel_cp, update)``; tall and
skinny matrices are panel-bound (the paper's 6.4%-of-peak plateau), square
matrices are update-bound (44.2% of peak).  The default constants are
calibrated to those two measurements of §V-C — see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

from repro.runtime.machine import Machine
from repro.runtime.core import qr_flops


@dataclass(frozen=True)
class ScalapackModel:
    """Analytic PDGEQRF timing on a ``pr x qc`` process grid.

    Parameters
    ----------
    machine:
        Cluster description (cores, peak, latency).
    pr, qc:
        Process grid (one MPI rank per node, MKL threads inside).
    nb:
        Column block (panel) width.
    blas2_rate:
        Effective panel BLAS-2 rate per node, flops/s (memory-bound).
    gemm_rate_per_core:
        Effective trailing-update rate per core, flops/s.
    col_overhead:
        Fixed per-column synchronization cost (collectives, pipeline
        stalls), seconds.
    """

    machine: Machine
    pr: int = 15
    qc: int = 4
    nb: int = 64
    blas2_rate: float = 0.35e9
    gemm_rate_per_core: float = 4.2e9
    col_overhead: float = 1.0e-3

    def panel_seconds(self, M: int, N: int) -> float:
        """Critical-path time of all panel factorizations."""
        total = 0.0
        reduction = 2 * ceil(log2(max(self.pr, 2))) * self.machine.latency
        k = min(M, N)
        for j0 in range(0, k, self.nb):
            rows = M - j0
            local = rows / self.pr
            width = min(self.nb, k - j0)
            # sum_{j<width} 4 * local * (width - j) ~= 2 * local * width^2
            flops = 2.0 * local * width * width
            total += flops / self.blas2_rate + width * (
                self.col_overhead + reduction
            )
        return total

    def update_seconds(self, M: int, N: int) -> float:
        """Throughput time of the trailing updates (the bulk of the flops)."""
        return qr_flops(M, N) / (self.machine.cores * self.gemm_rate_per_core)

    def seconds(self, M: int, N: int) -> float:
        """Total modelled run time (panel and update overlap via lookahead)."""
        if M <= 0 or N <= 0:
            raise ValueError(f"matrix dims must be positive, got {M}x{N}")
        return max(self.panel_seconds(M, N), self.update_seconds(M, N))

    def gflops(self, M: int, N: int) -> float:
        """Modelled performance in GFlop/s."""
        seconds = self.seconds(M, N)
        if seconds == self.update_seconds(M, N):
            # the update term binds: the GEMM plateau, exactly (flops
            # over flops / rate can round one ulp below the rate)
            return self.machine.cores * self.gemm_rate_per_core / 1e9
        return qr_flops(M, N) / seconds / 1e9

    def percent_of_peak(self, M: int, N: int) -> float:
        """Modelled performance as a percentage of machine peak."""
        return 100.0 * self.gflops(M, N) / self.machine.peak_gflops()
