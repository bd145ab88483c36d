"""The four benchmark workloads: their inputs, one iteration, the output check.

Every input is built here from ``--seed`` and literal paper constants
(§V-A: b = 280, 15 x 4 block-cyclic grid, the edel machine), never from a
``repro`` default a later change may edit.  A workload is used as

    w = make(name, seed, tmp, expected)
    w.prepare()
    repeat:  w.reset()              # untimed
             out = w.run()          # timed by the caller
             attempted, failed = w.check(out)
    w.close()

Simulated makespans repeat bit for bit, so every check is an equality:
drift is a failed operation, not noise.

What the seed may change is restricted to what leaves an iteration's cost
alone, because the benchmark's steadiness is judged across seeds: the two
sweeps are the paper's point set and take nothing from the seed; the tune
chains are a fixed pair and the seed picks which runs first (chain cost
varies +-15 % with the chain's own seed - measured - which would read as
noise); the serve cold questions are a fixed set of 60 (trees and domino
drawn once from ``SERVE_COLD_DRAW``: they move both time and memory by a few
percent) and the seed picks the order in which they are asked.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import threading
import time
from pathlib import Path

TILE_B = 280
GRID_P, GRID_Q = 15, 4
TREES = ("flat", "binary", "greedy", "fibonacci")

#: Figure 6(a): low tree greedy, no domino, n = 16 tile columns
SWEEP_HIGH = ("greedy", "binary", "flat", "fibonacci")
SWEEP_A = (1, 4, 8)
SWEEP_M = (16, 32, 64, 128, 256, 512)
SWEEP_N = 16

TUNE_M, TUNE_N = 96, 12
TUNE_CHAIN_SEEDS = (11, 12)
TUNE_BUDGET, TUNE_BATCH = 400, 8

SERVE_CLIENTS = 2
SERVE_REQUESTS = 120
SERVE_COLD_M = (48, 96, 160, 224)
SERVE_COLD_N = (6, 12, 16)
SERVE_COLD_A = (1, 2, 4, 6, 8)
#: draws the trees and domino of the cold questions, once for every seed
SERVE_COLD_DRAW = 1553
#: the four hot questions (tenant ``interactive``), asked on even slots
SERVE_HOT = (
    {"m": 64, "n": 16, "config": {
        "p": 15, "q": 4, "a": 4, "low": "fibonacci", "high": "fibonacci",
        "domino": True}},
    {"m": 128, "n": 16, "config": {
        "p": 15, "q": 4, "a": 4, "low": "greedy", "high": "fibonacci",
        "domino": False}},
    {"m": 96, "n": 12, "config": {
        "p": 15, "q": 4, "a": 1, "low": "greedy", "high": "flat",
        "domino": True}},
    {"m": 240, "n": 16, "config": {
        "p": 15, "q": 4, "a": 8, "low": "flat", "high": "binary",
        "domino": False}},
)

NAMES = ("sweep_cold", "sweep_warm", "tune_chain", "serve_mix")
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def bench_setup():
    from repro.bench.runner import BenchSetup
    from repro.runtime.machine import Machine

    return BenchSetup(
        b=TILE_B, grid_p=GRID_P, grid_q=GRID_Q, machine=Machine.edel()
    )


def sweep_points() -> list:
    from repro.hqr.config import HQRConfig

    return [
        (m, SWEEP_N, HQRConfig(
            p=GRID_P, q=GRID_Q, a=a, low_tree="greedy", high_tree=high,
            domino=False,
        ))
        for high in SWEEP_HIGH for a in SWEEP_A for m in SWEEP_M
    ]


def cold_questions(seed: int) -> list[dict]:
    """The 60 cold questions (every (m, n, a) once) in the seed's order."""
    rng = random.Random(SERVE_COLD_DRAW)
    questions = [
        {"m": m, "n": n, "config": {
            "p": GRID_P, "q": GRID_Q, "a": a,
            "low": rng.choice(TREES), "high": rng.choice(TREES),
            "domino": rng.random() < 0.5,
        }}
        for m in SERVE_COLD_M for n in SERVE_COLD_N for a in SERVE_COLD_A
    ]
    random.Random(seed).shuffle(questions)
    return questions


def _mismatches(got: list, want: list) -> int:
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


class Workload:
    """Shared state: the paper's setup and the process-wide graph cache."""

    name = ""

    def __init__(self, seed: int, tmp: Path, expected: dict | None):
        from repro.dag.cache import default_cache

        self.seed = seed
        self.tmp = Path(tmp)
        #: ``None`` while ``--capture-expected`` regenerates the file
        self.expected = expected
        self.setup = bench_setup()
        self.cache = default_cache()

    def empty_cache(self) -> None:
        self.cache.clear_memory()
        shutil.rmtree(self.cache.root, ignore_errors=True)

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        pass

    def run(self):
        raise NotImplementedError

    def check(self, out) -> tuple[int, int]:
        """(operations attempted, operations failed) for one iteration."""
        raise NotImplementedError

    def makespans(self, out) -> list[float]:
        """Every simulated makespan the iteration returned, in order."""
        raise NotImplementedError

    def counts(self, out) -> dict:
        """Counts the outputs carry; must repeat exactly run to run."""
        return {"runtime.core.makespan_sum_s": math.fsum(self.makespans(out))}

    def capture(self, out):
        """What ``expected.json`` stores for this workload."""
        return self.makespans(out)

    def close(self) -> None:
        pass


class Sweep(Workload):
    """The 72 Figure 6(a) points through ``run_config_sweep(workers=1)``."""

    def __init__(self, name, seed, tmp, expected):
        super().__init__(seed, tmp, expected)
        self.name = name
        self.points = sweep_points()

    def reset(self) -> None:
        if self.name == "sweep_cold":
            self.empty_cache()

    def run(self):
        from repro.bench.runner import run_config_sweep

        return run_config_sweep(self.points, self.setup, workers=1)

    def makespans(self, out):
        return [r.makespan for r in out]

    def check(self, out):
        got = self.makespans(out)
        if self.expected is None:
            return len(got), 0
        return len(self.points), _mismatches(got, self.expected["sweep"])


class TuneChain(Workload):
    """Two annealing chains over one emptied cache, fresh run directories."""

    name = "tune_chain"

    def prepare(self) -> None:
        from repro.tune import initial_case

        # initial_case picks trees/a/domino with the §VI rules; pin them so
        # an edit to those rules cannot move the chains' starting point
        self.start = initial_case(
            TUNE_M, TUNE_N, TILE_B, self.setup.machine,
            grid_p=GRID_P, grid_q=GRID_Q,
        ).replaced(a=1, low_tree="greedy", high_tree="fibonacci", domino=True)
        self.order = list(TUNE_CHAIN_SEEDS)
        random.Random(self.seed).shuffle(self.order)
        self.out_root = self.tmp / "tune"
        self.runs = 0

    def reset(self) -> None:
        self.empty_cache()
        shutil.rmtree(self.out_root, ignore_errors=True)

    def run(self):
        from repro.tune import Annealer, CoolingSchedule, EnergyEvaluator

        self.runs += 1  # an Annealer refuses a directory that has a run
        results = {}
        for chain_seed in self.order:
            evaluator = EnergyEvaluator(
                TUNE_M, TUNE_N, TILE_B, self.setup.machine
            )
            results[chain_seed] = Annealer(
                evaluator, self.start,
                str(self.out_root / f"{self.runs}-{chain_seed}"),
                seed=chain_seed, budget=TUNE_BUDGET, batch_size=TUNE_BATCH,
                schedule=CoolingSchedule(t0=0.05, alpha=0.85, floor=1e-4),
            ).run()
        return results

    def makespans(self, out):
        return [out[s].best[0]["energy"] for s in TUNE_CHAIN_SEEDS]

    def counts(self, out):
        chains = out.values()
        return {
            **super().counts(out),
            "tune.proposals": sum(r.proposals for r in chains),
            "tune.evaluations": sum(r.evaluations for r in chains),
            "tune.memo_hits": sum(r.memo_hits for r in chains),
        }

    def check(self, out):
        """Each chain's best energy, against the file and re-derived."""
        from repro.bench.runner import run_config
        from repro.verify.generator import VerifyCase

        attempted = failed = 0
        for i, chain_seed in enumerate(TUNE_CHAIN_SEEDS):
            res = out[chain_seed]
            attempted += res.proposals
            best = res.best[0]
            case = VerifyCase.from_dict(best["case"])
            again = run_config(
                TUNE_M, TUNE_N, case.config(), self.setup,
                layout=case.layout(),
            ).makespan
            ok = again == best["energy"] and res.proposals == TUNE_BUDGET
            if self.expected is not None:
                ok = ok and best["energy"] == self.expected["tune"][i]
            if not ok:
                failed += res.proposals
        return attempted, failed


class ServeMix(Workload):
    """A live daemon driven closed-loop by two clients, hot and cold mixed."""

    name = "serve_mix"

    def prepare(self) -> None:
        from repro.serve.client import ServeClient
        from repro.serve.server import PlanningDaemon
        from repro.serve.service import PlannerService

        self.daemon = PlanningDaemon(
            PlannerService(setup=self.setup), port=0, workers=2
        )
        self.daemon.start()
        self.client = ServeClient(port=self.daemon.port)
        self.client.wait_ready()
        cold = cold_questions(self.seed)
        #: slot -> the cold answer through run_config, derived once
        self.rederived: dict[int, float] = {}
        self.requests = []
        for slot in range(SERVE_REQUESTS):
            if slot % 2 == 0:
                hot = SERVE_HOT[(slot // 2) % len(SERVE_HOT)]
                self.requests.append(("interactive", hot))
            else:
                self.requests.append(("batch", cold[slot // 2]))

    def reset(self) -> None:
        self.empty_cache()
        for question in SERVE_HOT:
            self.client.plan("interactive", question)

    def run(self):
        """Per slot ``(start, end, response)``; each client takes the next
        unsent slot as soon as its previous reply arrived (closed loop)."""
        records = [None] * len(self.requests)
        slots = iter(range(len(self.requests)))
        lock = threading.Lock()

        def client_loop():
            while True:
                with lock:
                    slot = next(slots, None)
                if slot is None:
                    return
                tenant, question = self.requests[slot]
                t0 = time.perf_counter()
                resp = self.client.plan(tenant, question)
                records[slot] = (t0, time.perf_counter(), resp)

        threads = [
            threading.Thread(target=client_loop) for _ in range(SERVE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return records

    def makespans(self, out):
        return [rec[2].body.get("makespan_s") for rec in out]

    def counts(self, out):
        # which client asks a cold question first decides hits and misses,
        # so only the answers themselves are exact here
        good = [m for m in self.makespans(out) if m is not None]
        return {"runtime.core.makespan_sum_s": math.fsum(good)}

    def capture(self, out):
        return self.makespans(out)[: 2 * len(SERVE_HOT) : 2]

    def check(self, out):
        """Any non-200 fails; hot answers against the file, cold answers
        against ``run_config`` (the same question always has one answer)."""
        from repro.bench.runner import run_config
        from repro.hqr.config import HQRConfig
        from repro.tiles.layout import BlockCyclic2D

        failed = 0
        for slot, ((tenant, question), rec) in enumerate(
            zip(self.requests, out)
        ):
            resp = rec[2]
            if resp.status != 200:
                failed += 1
                continue
            got = resp.body["makespan_s"]
            if tenant == "interactive":
                if self.expected is None:
                    continue
                want = self.expected["hot"][(slot // 2) % len(SERVE_HOT)]
            else:
                if slot not in self.rederived:
                    c = question["config"]
                    cfg = HQRConfig(
                        p=c["p"], q=c["q"], a=c["a"], low_tree=c["low"],
                        high_tree=c["high"], domino=c["domino"],
                    )
                    self.rederived[slot] = run_config(
                        question["m"], question["n"], cfg, self.setup,
                        layout=BlockCyclic2D(cfg.p, cfg.q),
                    ).makespan
                want = self.rederived[slot]
            failed += got != want
        return len(out), failed

    def close(self) -> None:
        self.daemon.shutdown()


def make(name: str, seed: int, tmp: Path, expected: dict | None) -> Workload:
    if name in ("sweep_cold", "sweep_warm"):
        return Sweep(name, seed, tmp, expected)
    if name == "tune_chain":
        return TuneChain(seed, tmp, expected)
    if name == "serve_mix":
        return ServeMix(seed, tmp, expected)
    raise ValueError(f"unknown workload {name!r}; pick one of {NAMES}")
