"""Closed-ish-form performance prediction for an elimination-list algorithm.

Predicts the makespan of a DAG on a machine as the max of three terms —
throughput (work over cores, at the kernel-mix rate), weighted critical
path, and per-node communication-channel occupancy — each computable in
one linear pass, i.e. orders of magnitude faster than event simulation.

This is deliberately an *optimistic* model (each term ignores the others'
interference), so ``predicted <= simulated`` makespan always holds; across
configurations the ranking correlates well with the simulator (tested),
which is what a tuning search needs.  All three terms come from the one
pass of :func:`repro.models.bounds.list_bound` over an elimination list,
which builds no graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.bounds import list_bound
from repro.runtime.machine import Machine
from repro.runtime.core import qr_flops


@dataclass(frozen=True)
class Prediction:
    """Model output for one (algorithm, machine, layout) combination."""

    work_term: float
    cp_term: float
    comm_term: float
    flops: float

    @property
    def makespan(self) -> float:
        """Predicted lower-envelope makespan (seconds)."""
        return max(self.work_term, self.cp_term, self.comm_term)

    @property
    def gflops(self) -> float:
        """Predicted performance."""
        return self.flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    @property
    def binding(self) -> str:
        """Which term limits performance: work / critical-path / comm."""
        terms = {
            "work": self.work_term,
            "critical-path": self.cp_term,
            "comm": self.comm_term,
        }
        return max(terms, key=terms.get)


class PerformanceModel:
    """Three-term makespan predictor."""

    def __init__(self, machine: Machine, b: int):
        self.machine = machine
        self.b = b

    def predict(self, elims, m: int, n: int, layout) -> Prediction:
        """Predict the graph an ``m x n``-tile elimination list expands
        to, its tasks placed by ``layout``."""
        machine, b = self.machine, self.b
        gb = list_bound(elims, m, n, layout, machine, b)
        # busiest channel: its distinct messages (one per producer and
        # destination node, as the simulator sends them), each charged the
        # bandwidth term at both endpoints
        bw_time = (
            machine.tile_bytes(b) / machine.bandwidth
            if machine.bandwidth != float("inf")
            else 0.0
        )
        comm = gb.channel_load * bw_time if machine.comm_serialized else 0.0
        return Prediction(
            work_term=gb.work / machine.cores,
            cp_term=gb.plain_critical_path,
            comm_term=comm,
            flops=qr_flops(m * b, n * b),
        )
