"""Seeded stochastic autotuner for huge HQR design spaces.

§VI of the paper motivates automatic configuration selection with "the
huge parameter space to explore"; the :mod:`repro.models.explorer`
answers that with exhaustive enumeration over a small fixed subspace.
This package is the scaling answer: a seeded simulated-annealing /
Metropolis random walk over the *full* legal space (trees x domino x
``a`` x grid x layout), with simulated makespan as energy.

* :mod:`repro.tune.energy` — batched energy evaluation: whole proposal
  batches through one C-core dispatch, fingerprint-memoized, warm
  compiled-graph cache;
* :mod:`repro.tune.sampler` — the annealer: geometric cooling, bounded
  sample streaming with online thinning, SIGINT-safe resumable
  checkpoints;
* :mod:`repro.tune.bench` — tune-vs-exhaustive comparison on an
  enumerable subspace (``repro tune --bench``).

Entry point: ``repro tune`` (see docs/tuning.md for the guide).
"""

from repro.tune.bench import tune_bench
from repro.tune.energy import EnergyEvaluator, initial_case
from repro.tune.sampler import (
    Annealer,
    CoolingSchedule,
    SampleBuffer,
    TuneResult,
    load_checkpoint,
)

__all__ = [
    "Annealer",
    "CoolingSchedule",
    "EnergyEvaluator",
    "SampleBuffer",
    "TuneResult",
    "initial_case",
    "load_checkpoint",
    "tune_bench",
]
