"""Energy evaluation for the autotuner: simulated makespan, batched.

The annealer's energy function is the simulated makespan of one HQR
configuration on the target machine.  :class:`EnergyEvaluator` evaluates
a whole proposal batch per call:

* every unique configuration in the batch is fingerprinted with the
  compiled-graph cache key, so repeat visits along the chain cost a
  dictionary lookup (``memo_hits``) instead of a simulation;
* :meth:`~EnergyEvaluator.bounds` answers with an admissible lower bound
  (:func:`~repro.models.bounds.elimination_bound`, one native pass over
  the elimination list, memoised by key for every later chain of the
  process) where the energy is not known yet, so the annealer can reject
  a proposal the bound already condemns without building or simulating
  its graph;
* the energies the annealer does need are one
  :func:`~repro.bench.runner.answers` call with ``reuse``: a graph cache
  entry's remembered answer (an earlier chain's, the planning service's),
  else one native call that expands, builds and simulates each miss.

Without the native core every bound is 0.0: the annealer's filter is
off and it simulates what it always did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import _ccore
from repro.bench.runner import answers
from repro.dag.cache import default_cache, fingerprint
from repro.hqr.hierarchy import hqr_elimination_list
from repro.models.bounds import elimination_bound
from repro.runtime.machine import Machine
from repro.verify.generator import VerifyCase

__all__ = ["EnergyEvaluator", "initial_case"]


def initial_case(
    m: int,
    n: int,
    b: int,
    machine: Machine,
    *,
    grid_p: int | None = None,
    grid_q: int | None = None,
    seed: int = 0,
) -> VerifyCase:
    """The search's starting point: the paper's §VI selection rules.

    :func:`repro.hqr.auto.auto_config` picks trees/``a``/domino for the
    shape; the grid defaults to a tall column of the machine's nodes
    capped at ``m`` rows (the verifier's grid semantics).  The returned
    :class:`VerifyCase` carries the machine's shape in its fields so
    ``describe()`` and serialized samples are self-contained.
    """
    from repro.hqr.auto import auto_config

    if grid_p is None:
        grid_p = max(1, min(m, machine.nodes))
    if grid_q is None:
        grid_q = max(1, machine.nodes // grid_p)
    if grid_p * grid_q > machine.nodes:
        raise ValueError(
            f"grid {grid_p}x{grid_q} needs {grid_p * grid_q} ranks but the "
            f"machine has only {machine.nodes} nodes"
        )
    cfg = auto_config(
        m, n, grid_p=grid_p, grid_q=grid_q,
        cores_per_node=machine.cores_per_node,
    )
    return VerifyCase(
        index=0,
        seed=seed,
        m=m,
        n=n,
        b=b,
        p=cfg.p,
        q=cfg.q,
        a=cfg.a,
        low_tree=cfg.low_tree,
        high_tree=cfg.high_tree,
        domino=cfg.domino,
        layout_kind="grid",
        nodes=machine.nodes,
        cores_per_node=machine.cores_per_node,
        comm_serialized=machine.comm_serialized,
        site_size=machine.site_size,
        latency=machine.latency,
        bandwidth=machine.bandwidth,
        priority=None,
    )


@dataclass
class EnergyEvaluator:
    """Batched makespan evaluation against one fixed ``(shape, machine)``.

    ``machine`` is the evaluator's source of truth (it may carry fields a
    :class:`VerifyCase` cannot express, e.g. inter-site parameters); the
    cases only contribute the searched axes — config and layout.
    """

    m: int
    n: int
    b: int
    machine: Machine
    #: energies obtained outside the run's own memo (unique configs,
    #: simulated or answered from the graph cache)
    evaluations: int = 0
    #: proposals answered from the per-run energy memo
    memo_hits: int = 0
    #: the run's energy memo: key -> exact energy
    memo: dict[str, float] = field(default_factory=dict)
    _keys: dict[VerifyCase, str] = field(default_factory=dict)

    def energy_key(self, case: VerifyCase) -> str:
        """Memo key: the compiled-graph cache fingerprint of the case,
        kept per case (a chain revisits most cases)."""
        key = self._keys.get(case)
        if key is None:
            key = self._keys[case] = fingerprint(
                self.m, self.n, case.config(), case.layout(), self.machine,
                self.b,
            )
        return key

    def bounds(self, cases: list[VerifyCase], keys: list[str]) -> list[float]:
        """Per case and its key: the memoised energy, else a lower bound on it.

        The bound is read from the case's elimination list with no graph
        built (:func:`~repro.models.bounds.elimination_bound`) and kept by
        key in the cache's ``bounds``, once per process, when the native
        core is there; otherwise it is 0.0, which rules nothing out.
        """
        if not _ccore.native_available():
            return [self.memo.get(key, 0.0) for key in keys]
        memo = default_cache().bounds
        out = []
        for case, key in zip(cases, keys):
            value = self.memo.get(key, memo.get(key))
            if value is None:
                value = memo[key] = max(elimination_bound(
                    hqr_elimination_list(self.m, self.n, case.config()),
                    self.m, self.n, case.layout(), self.machine, self.b,
                ))
            out.append(value)
        return out

    def evaluate(self, cases: list[VerifyCase]) -> list[float]:
        """Exact makespan per case; the fresh keys are one :func:`answers`
        call."""
        keys = [self.energy_key(c) for c in cases]
        fresh = {key: case for case, key in zip(cases, keys) if key not in self.memo}
        if fresh:
            self.evaluations += len(fresh)
            got = answers([
                (self.m, self.n, case.config(), case.layout())
                for case in fresh.values()
            ], self.machine, self.b, reuse=True)
            for key, (result, _, _) in zip(fresh, got):
                self.memo[key] = result.makespan
        self.memo_hits += len(cases) - len(fresh)
        return [self.memo[key] for key in keys]
