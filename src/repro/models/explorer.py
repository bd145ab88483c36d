"""HQR configuration exploration via the analytic performance model.

§VI: "it is not clear how to account for the different architectural
costs, and because of the huge parameter space to explore" — the explorer
enumerates (a, low tree, high tree, domino) for a fixed shape/grid, ranks
configurations with the cheap three-term model, and can verify the top
candidates against the event simulator (one
:func:`~repro.bench.runner.answers` call over the picks).  Ranking builds
no graph: each candidate is predicted from its elimination list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.bench.runner import answers
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.models.performance import PerformanceModel, Prediction
from repro.runtime.machine import Machine
from repro.tiles.layout import Layout


@dataclass(frozen=True)
class RankedConfig:
    """One explored configuration with its prediction."""

    config: HQRConfig
    prediction: Prediction

    @property
    def gflops(self) -> float:
        return self.prediction.gflops


class ConfigExplorer:
    """Enumerate and rank HQR configurations for one problem."""

    def __init__(
        self,
        m: int,
        n: int,
        machine: Machine,
        layout: Layout,
        b: int,
        *,
        grid_p: int,
        grid_q: int,
    ):
        self.m = m
        self.n = n
        self.machine = machine
        self.layout = layout
        self.b = b
        self.grid_p = grid_p
        self.grid_q = grid_q

    def space(
        self,
        a_values=(1, 2, 4, 8),
        trees=("flat", "binary", "greedy", "fibonacci"),
        dominos=(True, False),
    ):
        """The configuration grid."""
        for a, low, high, domino in itertools.product(a_values, trees, trees, dominos):
            yield HQRConfig(
                p=self.grid_p, q=self.grid_q, a=a,
                low_tree=low, high_tree=high, domino=domino,
            )

    def rank(self, configs=None) -> list[RankedConfig]:
        """Model-predicted ranking, best first.

        Each candidate is predicted from its elimination list; no graph
        is built or cached.  Ties keep enumeration order (stable sort).
        """
        cfgs = list(configs) if configs is not None else list(self.space())
        model = PerformanceModel(self.machine, self.b)
        m, n = self.m, self.n
        out = [
            RankedConfig(config=cfg, prediction=model.predict(
                hqr_elimination_list(m, n, cfg), m, n, self.layout
            ))
            for cfg in cfgs
        ]
        out.sort(key=lambda rc: -rc.gflops)
        return out

    def verify(
        self, ranked: list[RankedConfig], top: int = 3
    ) -> list[tuple[RankedConfig, float]]:
        """(pick, simulated GF/s) for the ``top`` model picks; a pick whose
        cache entry remembers its result is answered from there."""
        picks = ranked[:top]
        got = answers([(self.m, self.n, rc.config, self.layout) for rc in picks],
                      self.machine, self.b, reuse=True)
        return [(rc, result.gflops) for rc, (result, _, _) in zip(picks, got)]
