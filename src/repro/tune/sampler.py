"""Seeded simulated-annealing search over the legal HQR design space.

The full configuration space of the paper — trees x trees x domino x
``a`` x grid x layout — explodes combinatorially; exhausting it (the
:mod:`repro.models.explorer` route) stops being an option a few axes in.
:class:`Annealer` walks it instead: a Metropolis random walk whose
proposal distribution is :func:`repro.verify.propose_neighbor` (one axis
perturbed per move, machine pinned) and whose energy is the simulated
makespan from :class:`repro.tune.energy.EnergyEvaluator`.

Design points, in the order they matter:

* **batched evaluation** — each temperature step draws a whole batch of
  proposals and evaluates them through one native call, then replays
  Metropolis acceptance sequentially.  Cheap wall-clock, and the
  accept/reject stream stays a pure function of ``(seed, params)``.
* **simulate only what the chain must see** — a proposal whose energy
  is not known yet is first met with a lower bound on it
  (:meth:`EnergyEvaluator.bounds`).  When the bound alone makes the
  replay draw its uniform, that uniform rejects every energy at or above
  the bound, and the bound is above the k-th best energy, the proposal
  is rejected unsimulated (``bounded``) — exactly what simulating it
  would have led to, so the stream, best-k and checkpoints are those of
  a chain that simulates everything.
* **bounded streaming** — accepted samples accumulate in a RAM buffer
  (:class:`SampleBuffer`) and flush to ``samples.jsonl`` in chunks; when
  the kept count reaches its cap the buffer doubles its thinning stride
  (prospectively — already-written samples are never rewritten).
* **resumable checkpoints** — the annealer flushes the buffer and
  atomically rewrites ``checkpoint.json`` (RNG state, current chain
  state, counters, best-k, buffer bookkeeping) once the start point is
  evaluated, after a batch once :data:`CHECKPOINT_INTERVAL_S` has passed
  since the last write, and whenever the walk ends normally (budget,
  ``max_evaluations`` or a requested stop) — never from an exception,
  whose mid-batch state cannot be resumed.  A SIGINT-stopped run
  resumed from its checkpoint produces the *bitwise identical*
  accepted-sample stream and best-k list of an uninterrupted run; only
  wall time and the evaluation count may differ (the energy memo is
  per-process and deliberately not checkpointed).  A hard stop (a
  second SIGINT mid-batch, a SIGKILL) loses at most the batches since
  the last write: resume truncates ``samples.jsonl`` back to it and
  replays them bitwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from repro.tune.energy import EnergyEvaluator
from repro.verify.generator import NEIGHBOR_AXES, VerifyCase, propose_neighbor

__all__ = [
    "Annealer",
    "CoolingSchedule",
    "SampleBuffer",
    "TuneResult",
    "load_checkpoint",
]

#: pending samples that force a sample-file flush (chunked I/O)
FLUSH_CHUNK = 64

#: least seconds (monotonic clock) between two mid-run checkpoints; the
#: start and every normal end of :meth:`Annealer.run` write one regardless
CHECKPOINT_INTERVAL_S = 1.0

#: a bound-based rejection needs ``u >= exp(-delta / T) * _EXP_SLACK``: C99
#: does not promise a monotone ``exp``, and the proof compares ``exp`` at
#: the bound's delta with ``exp`` at the (larger) exact one
_EXP_SLACK = 1.0 + 2.0**-40


def _reject_threshold(bound: float, energy: float, e0: float, t: float):
    """For a proposal whose energy is only known to be ``>= bound``:
    ``None`` when the chain at ``energy`` might accept it without drawing
    a uniform, else the value a uniform must reach to reject it whatever
    its exact energy (the uniform is then drawn in any case)."""
    delta = (bound - energy) / e0
    return math.exp(-delta / t) * _EXP_SLACK if delta > 0 else None


@dataclass(frozen=True)
class CoolingSchedule:
    """Geometric cooling: ``T_j = max(floor, t0 * alpha**j)`` per batch.

    Temperatures are dimensionless — acceptance compares *relative*
    energy deltas ``(E' - E) / E0`` against ``T``, so the same schedule
    works across matrix sizes and machines without re-tuning.
    """

    t0: float = 0.05
    alpha: float = 0.85
    floor: float = 1e-4

    def __post_init__(self) -> None:
        if self.t0 <= 0 or not (0 < self.alpha <= 1) or self.floor <= 0:
            raise ValueError(
                f"need t0 > 0, 0 < alpha <= 1, floor > 0; got "
                f"t0={self.t0}, alpha={self.alpha}, floor={self.floor}"
            )

    def temperature(self, batch_idx: int) -> float:
        return max(self.floor, self.t0 * self.alpha**batch_idx)


class SampleBuffer:
    """Bounded RAM buffer streaming accepted samples to a JSONL file.

    ``seen`` counts every offered sample; one in ``thin`` is kept.  When
    the kept count (written + pending) reaches ``max_kept`` the stride
    doubles, so an arbitrarily long chain needs at most ``2 * max_kept``
    lines on disk.  Thinning is *prospective*: doubling never touches
    samples already written.  ``state()``/restore keeps all three
    counters across checkpoint/resume so the kept-sample stream is a
    pure function of the offered stream.
    """

    def __init__(
        self,
        path: str,
        *,
        max_kept: int = 4096,
        chunk: int = FLUSH_CHUNK,
    ) -> None:
        self.path = path
        self.max_kept = max(1, max_kept)
        self.chunk = max(1, chunk)
        self.seen = 0
        self.thin = 1
        self.flushed = 0  # lines on disk
        self.pending: list[dict] = []

    # ------------------------------------------------------------------ #
    def offer(self, sample: dict) -> bool:
        """Offer one sample; keep it if it lands on the thinning stride."""
        keep = self.seen % self.thin == 0
        self.seen += 1
        if keep:
            self.pending.append(sample)
            if self.flushed + len(self.pending) >= self.max_kept:
                self.thin *= 2
            if len(self.pending) >= self.chunk:
                self.flush()
        return keep

    def flush(self) -> None:
        """Append pending samples to disk (one sorted-key JSON per line)."""
        if not self.pending:
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            for sample in self.pending:
                fh.write(json.dumps(sample, sort_keys=True) + "\n")
        self.flushed += len(self.pending)
        self.pending.clear()

    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        return {"seen": self.seen, "thin": self.thin, "flushed": self.flushed}

    def restore(self, state: dict) -> None:
        """Adopt checkpointed counters and truncate the file to match.

        Lines past ``flushed`` were written after the checkpoint (e.g. a
        kill between flush and checkpoint) and are dropped so the resumed
        stream continues from exactly the checkpointed prefix.
        """
        self.seen = int(state["seen"])
        self.thin = int(state["thin"])
        self.flushed = int(state["flushed"])
        self.pending.clear()
        lines: list[str] = []
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        if len(lines) < self.flushed:
            raise ValueError(
                f"sample file {self.path} has {len(lines)} lines but the "
                f"checkpoint expects {self.flushed}; refusing to resume"
            )
        if len(lines) > self.flushed:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.writelines(lines[: self.flushed])


@dataclass
class TuneResult:
    """Outcome of one :meth:`Annealer.run` (finished or interrupted)."""

    best: list[dict]
    proposals: int
    accepted: int
    evaluations: int
    memo_hits: int
    batches: int
    e0: float
    final_temperature: float
    accept_history: list[dict]
    interrupted: bool
    samples_path: str
    checkpoint_path: str
    wall_s: float = 0.0
    #: proposals rejected on their energy bound alone, never simulated
    bounded: int = 0

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else 0.0

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["acceptance_rate"] = self.acceptance_rate
        return d


def _rng_state_to_json(state) -> list:
    return [state[0], list(state[1]), state[2]]


def _rng_state_from_json(state) -> tuple:
    return (state[0], tuple(state[1]), state[2])


def _atomic_write_json(path: str, payload: dict) -> None:
    # no indent: json's C encoder only runs for the compact form, and a
    # checkpoint carries the 625-word RNG state
    text = json.dumps(payload, sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


#: checkpoint fields whose JSON type nothing else checks on resume
_CHECKPOINT_TYPES = {
    "batch_idx": int, "proposals": int, "accepted": int, "evaluations": int,
    "memo_hits": int, "bounded": int, "e0": float, "accept_history": list,
}


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint file (raises ``FileNotFoundError`` if absent)."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Annealer:
    """Metropolis chain over :class:`VerifyCase` states, batch-evaluated.

    One instance owns one run directory (``samples.jsonl`` +
    ``checkpoint.json``).  Construct with ``resume=True`` to continue a
    checkpointed run; parameters must match the checkpoint exactly or
    construction refuses (silently changing the schedule mid-chain would
    produce a stream no single-seed run can reproduce).
    """

    CHECKPOINT_VERSION = 1

    def __init__(
        self,
        evaluator: EnergyEvaluator,
        start: VerifyCase,
        out_dir: str,
        *,
        seed: int = 0,
        budget: int = 200,
        batch_size: int = 16,
        schedule: CoolingSchedule | None = None,
        top_k: int = 5,
        axes: tuple[str, ...] | None = None,
        max_a: int | None = None,
        max_kept: int = 4096,
        max_evaluations: int | None = None,
        resume: bool = False,
    ) -> None:
        if budget < 1 or batch_size < 1 or top_k < 1:
            raise ValueError("budget, batch_size and top_k must be >= 1")
        for axis in axes or ():
            if axis not in NEIGHBOR_AXES:
                raise ValueError(
                    f"unknown axis {axis!r}; pick from {NEIGHBOR_AXES}"
                )
        self.evaluator = evaluator
        self.out_dir = out_dir
        self.seed = seed
        self.budget = budget
        self.batch_size = batch_size
        self.schedule = schedule or CoolingSchedule()
        self.top_k = top_k
        self.axes = tuple(axes) if axes else None
        self.max_a = max_a
        #: stop once this many energies were needed (memo hits and
        #: bounded rejections are free, so a long chain rides on few)
        self.max_evaluations = max_evaluations
        os.makedirs(out_dir, exist_ok=True)
        self.samples_path = os.path.join(out_dir, "samples.jsonl")
        self.checkpoint_path = os.path.join(out_dir, "checkpoint.json")
        self.buffer = SampleBuffer(self.samples_path, max_kept=max_kept)

        self.rng = random.Random(seed)
        #: the dry run's copy of ``rng``, reseated by ``setstate`` each round
        self._scratch = random.Random()
        #: a uniform drawn from ``rng`` and not spent yet (see ``_replay``):
        #: set only between two rounds of a batch
        self._pending: float | None = None
        self.current = start
        self.energy = math.nan
        self.e0 = math.nan
        self.proposals = 0
        self.accepted = 0
        self.bounded = 0
        self.batch_idx = 0
        self.accept_history: list[dict] = []
        #: key -> {"key", "energy", "case"}; pruned to top_k each batch
        self._best: dict[str, dict] = {}
        #: the top_k-th lowest energy in ``_best`` (None with fewer keys)
        self._kth: float | None = None
        self._stop = False
        self._started = False

        if resume:
            self._restore()
        elif os.path.exists(self.checkpoint_path):
            raise FileExistsError(
                f"{self.checkpoint_path} exists; pass resume=True to "
                "continue it or point --out at a fresh directory"
            )
        else:
            # a fresh run must not append to a stale sample file
            if os.path.exists(self.samples_path):
                os.remove(self.samples_path)

    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Ask the chain to stop at the next batch boundary (signal-safe)."""
        self._stop = True

    # ------------------------------------------------------------------ #
    def _params(self) -> dict:
        ev = self.evaluator
        return {
            "m": ev.m,
            "n": ev.n,
            "b": ev.b,
            "machine": {
                "nodes": ev.machine.nodes,
                "cores_per_node": ev.machine.cores_per_node,
                "latency": ev.machine.latency,
                "bandwidth": (
                    "inf" if ev.machine.bandwidth == float("inf")
                    else ev.machine.bandwidth
                ),
                "comm_serialized": ev.machine.comm_serialized,
                "site_size": ev.machine.site_size,
            },
            "seed": self.seed,
            "budget": self.budget,
            "batch_size": self.batch_size,
            "t0": self.schedule.t0,
            "alpha": self.schedule.alpha,
            "floor": self.schedule.floor,
            "top_k": self.top_k,
            "axes": list(self.axes) if self.axes else None,
            "max_a": self.max_a,
            "max_kept": self.buffer.max_kept,
            "max_evaluations": self.max_evaluations,
        }

    def _checkpoint(self) -> None:
        self.buffer.flush()
        _atomic_write_json(self.checkpoint_path, {
            "version": self.CHECKPOINT_VERSION,
            "params": self._params(),
            "batch_idx": self.batch_idx,
            "proposals": self.proposals,
            "accepted": self.accepted,
            "evaluations": self.evaluator.evaluations,
            "memo_hits": self.evaluator.memo_hits,
            "bounded": self.bounded,
            "e0": self.e0,
            "current": {
                "case": self.current.to_dict(),
                "energy": self.energy,
            },
            "rng_state": _rng_state_to_json(self.rng.getstate()),
            "best": self.best(),
            "accept_history": self.accept_history,
            "buffer": self.buffer.state(),
        })

    def _restore(self) -> None:
        """Adopt the checkpoint's state.  Anything unusable in it - not JSON,
        not an object, a field missing or malformed, other knobs - raises
        one ``ValueError`` naming the file and the field."""
        field = None
        try:
            ck = load_checkpoint(self.checkpoint_path)
            if not isinstance(ck, dict):
                raise TypeError(f"a JSON {type(ck).__name__}, not an object")
            field = "version"
            if ck.get(field) != self.CHECKPOINT_VERSION:
                raise ValueError(f"{ck.get(field)} != {self.CHECKPOINT_VERSION}")
            field = "params"
            if ck["params"] != self._params():
                raise ValueError(
                    "checkpoint parameters do not match this run; resuming "
                    "under different knobs would break seeded "
                    "reproducibility.\n"
                    f"  checkpoint: {json.dumps(ck['params'], sort_keys=True)}\n"
                    f"  requested:  {json.dumps(self._params(), sort_keys=True)}"
                )
            for field, kind in _CHECKPOINT_TYPES.items():
                # "bounded" is absent before the filter
                value = ck.get(field, 0) if field == "bounded" else ck[field]
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise TypeError(f"{type(value).__name__}, not {kind.__name__}")
            self.batch_idx = ck["batch_idx"]
            self.proposals = ck["proposals"]
            self.accepted = ck["accepted"]
            # counters carry over; post-resume misses re-simulate (memo is
            # per-process), so `evaluations` may end higher than uninterrupted
            self.evaluator.evaluations = ck["evaluations"]
            self.evaluator.memo_hits = ck["memo_hits"]
            self.bounded = ck.get("bounded", 0)
            self.e0 = ck["e0"]
            self.accept_history = ck["accept_history"]
            field = "current"
            self.current = VerifyCase.from_dict(ck["current"]["case"])
            self.energy = float(ck["current"]["energy"])
            field = "rng_state"
            self.rng.setstate(_rng_state_from_json(ck["rng_state"]))
            field = "best"
            # each case through from_dict: a retired field's key is dropped
            self._best = {
                entry["key"]: {
                    **entry, "case": VerifyCase.from_dict(entry["case"]).to_dict()
                }
                for entry in ck["best"]
            }
            self._kth = self._kth_best(e["energy"] for e in ck["best"])
            field = "buffer"
            self.buffer.restore(ck["buffer"])
        except (AttributeError, IndexError, KeyError, OverflowError,
                TypeError, ValueError) as exc:
            where = f"field {field!r}" if field else "its top level"
            raise ValueError(
                f"cannot resume from {self.checkpoint_path} ({where}): "
                f"{type(exc).__name__}: {exc}"
            ) from None
        self._started = True

    # ------------------------------------------------------------------ #
    def best(self) -> list[dict]:
        """Top-k evaluated configs, ascending energy (key breaks ties)."""
        ranked = sorted(
            self._best.values(), key=lambda e: (e["energy"], e["key"])
        )
        return ranked[: self.top_k]

    def _note(self, key: str, case: VerifyCase, energy: float) -> None:
        if key in self._best:
            return
        self._best[key] = {"key": key, "energy": energy, "case": case.to_dict()}
        # prune so checkpoints stay O(top_k) regardless of chain length
        if len(self._best) > 4 * self.top_k:
            self._best = {e["key"]: e for e in self.best()}
        self._kth = self._kth_best(e["energy"] for e in self._best.values())

    # ------------------------------------------------------------------ #
    def run(self) -> TuneResult:
        """Walk until the proposal budget is spent or a stop is requested."""
        wall0 = time.perf_counter()
        if not self._started:
            key = self.evaluator.energy_key(self.current)
            self.energy = self.evaluator.evaluate([self.current], [key])[0]
            self.e0 = self.energy if self.energy > 0 else 1.0
            self._note(key, self.current, self.energy)
            self._started = True
            self._checkpoint()
        delay = float(os.environ.get("REPRO_TUNE_BATCH_DELAY", "0") or 0.0)
        interrupted = False
        # on disk: the state after batch `saved`, written at `saved_at`; an
        # exception leaves it alone, since mid-batch state cannot resume
        saved, saved_at = self.batch_idx, time.monotonic()
        while self.proposals < self.budget:
            if self._stop:
                interrupted = True
                break
            if (
                self.max_evaluations is not None
                and self.evaluator.evaluations >= self.max_evaluations
            ):
                break
            self._run_batch()
            if delay:
                time.sleep(delay)
            if time.monotonic() - saved_at >= CHECKPOINT_INTERVAL_S:
                self._checkpoint()  # flushes the buffer first
                saved, saved_at = self.batch_idx, time.monotonic()
        if saved != self.batch_idx:
            self._checkpoint()
        return TuneResult(
            best=self.best(),
            proposals=self.proposals,
            accepted=self.accepted,
            evaluations=self.evaluator.evaluations,
            memo_hits=self.evaluator.memo_hits,
            batches=self.batch_idx,
            e0=self.e0,
            final_temperature=self.schedule.temperature(
                max(0, self.batch_idx - 1)
            ),
            accept_history=self.accept_history,
            interrupted=interrupted,
            samples_path=self.samples_path,
            checkpoint_path=self.checkpoint_path,
            wall_s=time.perf_counter() - wall0,
            bounded=self.bounded,
        )

    def _run_batch(self) -> None:
        t = self.schedule.temperature(self.batch_idx)
        k = min(self.batch_size, self.budget - self.proposals)
        ev = self.evaluator
        cases = [propose_neighbor(
            self.current, self.rng, self.rng.choice(self.axes) if self.axes else None,
            fixed_machine=True, max_a=self.max_a,
        ) for _ in range(k)]
        keys = ev.keys(cases)
        # bounded once: later rounds read the memo for energies obtained since
        batch = list(zip(cases, keys, ev.bounds(cases, keys)))
        accepted_before = self.accepted
        # rounds: obtain every energy the rest of the batch may need in one
        # evaluate, then replay until a proposal can be neither decided
        # from what is known nor ruled out by its bound
        done = 0
        while done < k:
            needed = self._needed(batch[done:], t)
            if needed:
                ev.evaluate(list(needed.values()), list(needed))
                # the replay counts a known proposal a memo hit: one per
                # key evaluated here is a needed energy instead
                ev.memo_hits -= len(needed)
            start, done = done, self._replay(batch, done, t)
            if done == start and not needed:  # the next round would be this one
                raise RuntimeError(f"batch {self.batch_idx}: proposal {done} is "
                                   "neither known, ruled out nor needed")
        self.accept_history.append({
            "batch": self.batch_idx,
            "temperature": t,
            "proposed": k,
            "accepted": self.accepted - accepted_before,
        })
        self.batch_idx += 1

    def _kth_best(self, energies) -> float | None:
        """The k-th lowest of ``energies`` (one per noted key), or ``None``
        with fewer than ``top_k``: then any energy would enter best-k."""
        energies = sorted(energies)
        return energies[self.top_k - 1] if len(energies) >= self.top_k else None

    def _draws(self, rng: random.Random):
        """The chain's next uniforms: the pending one, then ``rng``'s."""
        pending = () if self._pending is None else (self._pending,)
        return itertools.chain(pending, iter(rng.random, None)).__next__

    def _needed(self, batch: list[tuple], t: float) -> dict[str, VerifyCase]:
        """The unknown proposals in ``batch`` (the rest of a batch) whose
        energy the replay may need, by key.

        A dry run of the replay on a copy of the RNG and the chain state:
        a proposal it cannot rule out is taken to be rejected, the likely
        outcome at a tuning temperature.  A wrong guess costs a simulation
        or a round, never a different stream — :meth:`_replay` decides.
        """
        memo = self.evaluator.memo
        rng = self._scratch
        rng.setstate(self.rng.getstate())
        draw = self._draws(rng)
        energy, kth = self.energy, self._kth
        noted = {key: e["energy"] for key, e in self._best.items()}
        needed: dict[str, VerifyCase] = {}
        for case, key, bound in batch:
            value = memo.get(key)
            if value is None:
                threshold = _reject_threshold(bound, energy, self.e0, t)
                # drawn whenever the exact energy is above ``energy``, which
                # is the guess when the bound cannot tell
                u = draw()
                if threshold is None or kth is None or not (
                    u >= threshold and bound > kth
                ):
                    needed.setdefault(key, case)
                continue
            if key not in noted:
                noted[key] = value
                kth = self._kth_best(noted.values())
            delta = (value - energy) / self.e0
            if delta <= 0 or draw() < math.exp(-delta / t):
                energy = value
        return needed

    def _replay(self, batch: list[tuple], i: int, t: float) -> int:
        """Metropolis over ``batch[i:]`` as a chain that simulates every
        proposal would run it; returns where it stopped: the end, or the
        first unknown proposal its bound cannot rule out.

        A bounded rejection consumes the uniform the unfiltered chain would
        draw and is neither noted nor memoised: above the k-th best, it
        could never change :meth:`best`.  One that does not reject is kept
        pending for the exact energy's draw (see docs/tuning.md).
        """
        ev = self.evaluator
        draw, self._pending = self._draws(self.rng), None
        for i in range(i, len(batch)):
            case, key, bound = batch[i]
            ep = ev.memo.get(key)
            if ep is None:
                threshold = _reject_threshold(bound, self.energy, self.e0, t)
                if threshold is None or self._kth is None or not bound > self._kth:
                    return i
                u = draw()
                if u < threshold:
                    self._pending = u
                    return i
                self.proposals += 1
                self.bounded += 1
                continue
            ev.memo_hits += 1
            self.proposals += 1
            self._note(key, case, ep)
            delta = (ep - self.energy) / self.e0
            if delta <= 0 or draw() < math.exp(-delta / t):
                self.current = case
                self.energy = ep
                self.accepted += 1
                self.buffer.offer({
                    "proposal": self.proposals,
                    "batch": self.batch_idx,
                    "temperature": t,
                    "energy": ep,
                    "case": case.to_dict(),
                })
        return len(batch)

    # ------------------------------------------------------------------ #
    def metrics_into(self, reg, result: TuneResult) -> None:
        """Export run counters into a :class:`MetricsRegistry`."""
        for name, text, value in (
            ("proposals", "annealer proposals drawn", result.proposals),
            ("accepted", "Metropolis-accepted proposals", result.accepted),
            ("evaluations", "energies needed: unique configurations simulated "
             "or answered from the graph cache (post-memo, post-bound)",
             result.evaluations),
            ("energy_memo_hits", "proposals answered from the per-run energy "
             "memo", result.memo_hits),
            ("bounded", "proposals rejected on their energy lower bound, "
             "unsimulated", result.bounded),
        ):
            reg.counter(f"repro_tune_{name}_total", text).inc(value)
        reg.gauge(
            "repro_tune_acceptance_rate", "accepted over proposed"
        ).set(result.acceptance_rate)
        if result.best:
            reg.gauge(
                "repro_tune_best_makespan_seconds",
                "lowest simulated makespan seen",
            ).set(result.best[0]["energy"])
