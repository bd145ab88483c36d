"""HQR structure analytics: level census, kernel mix, rate ceilings.

Quantifies the Figure 5 discussion ("the proportion of level 0 tiles tends
to one half [for a = 2 and] tall and skinny matrices, but it is much less
for square matrices") and the Figure 6 kernel-rate reasoning: the fraction
of flops executed by TS kernels determines the throughput ceiling

    ceiling = 1 / (f_ts / r_ts + (1 - f_ts) / r_tt)

which is what tuning ``a`` trades against parallelism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.dag.compiled import KIND_ORDER, CompiledGraph, compiled_from_eliminations
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.hqr.levels import tile_level
from repro.kernels.weights import EDEL_RATES, WEIGHTS, KernelKind, KernelRates
from repro.runtime.machine import Machine
from repro.tiles.layout import SingleNode


def level_census(m: int, n: int, p: int, a: int, *, domino: bool = True) -> Counter:
    """Count of on/below-diagonal tiles per level over the whole matrix."""
    census: Counter = Counter()
    for k in range(min(m, n)):
        for i in range(k, m):
            census[tile_level(i, k, m, p, a, domino=domino)] += 1
    return census


def level_fractions(m: int, n: int, p: int, a: int, *, domino: bool = True) -> dict[int, float]:
    """Level census normalized to fractions."""
    census = level_census(m, n, p, a, domino=domino)
    total = sum(census.values())
    return {lvl: census.get(lvl, 0) / total for lvl in (0, 1, 2, 3)}


@dataclass(frozen=True)
class KernelMix:
    """Flop-weighted kernel composition of a task graph."""

    weights: dict[KernelKind, int]

    @property
    def total(self) -> int:
        return sum(self.weights.values())

    @property
    def ts_fraction(self) -> float:
        """Fraction of flops executed by TS kernels (TSQRT + TSMQR)."""
        if self.total == 0:
            return 0.0
        ts = self.weights[KernelKind.TSQRT] + self.weights[KernelKind.TSMQR]
        return ts / self.total

    def rate_ceiling(self, rates: KernelRates = EDEL_RATES) -> float:
        """Throughput ceiling (GFlop/s per core) of this kernel mix:
        harmonic mean of the per-family rates, flop-weighted."""
        f = self.ts_fraction
        return 1.0 / (f / rates.ts_rate + (1.0 - f) / rates.tt_rate)


def kernel_mix(graph: CompiledGraph) -> KernelMix:
    """Flop-weighted kernel mix of a task graph, from its kind codes."""
    counts = np.bincount(graph.kind, minlength=len(KIND_ORDER)).tolist()
    return KernelMix(weights={k: c * WEIGHTS[k] for k, c in zip(KIND_ORDER, counts)})


def config_kernel_mix(m: int, n: int, config: HQRConfig) -> KernelMix:
    """Kernel mix of the HQR tree for a given shape and configuration."""
    elims = hqr_elimination_list(m, n, config)
    return kernel_mix(
        compiled_from_eliminations(elims, m, n, SingleNode(), Machine(nodes=1), 1)
    )
