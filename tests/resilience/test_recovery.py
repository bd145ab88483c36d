"""Failure-aware simulation: recovery correctness and determinism."""

from dataclasses import dataclass

import pytest

from repro import _ccore
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr import HQRConfig, hqr_elimination_list
from repro.resilience import (
    FaultSchedule,
    MessageDrops,
    NodeCrash,
    Slowdown,
    run_with_faults,
    shrunken_config,
    shrunken_grid,
)
from repro.resilience.replan import node_remap, replan_restart
from repro.runtime import Machine
from repro.tiles.layout import BlockCyclic2D, Cyclic1D

ENGINES = ("auto", "python")  # python: as on a host with no compiler


@dataclass
class Problem:
    """One elimination list on one machine, run with or without faults."""

    elims: object
    m: int
    n: int
    machine: Machine
    layout: object
    b: int = 40

    def plain(self):
        """The fault-free run of the object graph, an independent path."""
        graph = TaskGraph.from_eliminations(self.elims, self.m, self.n)
        return ClusterSimulator(self.machine, self.layout, self.b).run(graph)

    def faulty(self, schedule, **kw):
        return run_with_faults(
            self.elims, self.m, self.n, self.layout, self.machine, self.b,
            schedule, **kw,
        )


def build(m=12, n=4, cfg=None):
    cfg = cfg or HQRConfig(p=2, a=2, low_tree="greedy", high_tree="binary")
    return Problem(
        hqr_elimination_list(m, n, cfg), m, n,
        Machine(nodes=4, cores_per_node=4), BlockCyclic2D(2, 2),
    )


class TestFaultFreePath:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_schedule_bit_identical(self, engine, request):
        """The no-fault path must stay byte-for-byte the ordinary run."""
        if engine == "python":
            request.getfixturevalue("no_native")
        prob = build()
        plain = prob.plain()
        faulty = prob.faulty(FaultSchedule())
        assert faulty.makespan == plain.makespan
        assert faulty.messages == plain.messages
        assert faulty.busy_seconds == plain.busy_seconds
        assert faulty.tasks_reexecuted == 0
        assert faulty.degradation == 1.0


class TestCrashRecovery:
    def crash_schedule(self, prob, frac=0.4, node=1):
        base = prob.plain().makespan
        return base, FaultSchedule(
            name="crash",
            crashes=(NodeCrash(node=node, time=frac * base),),
            detection_latency=0.02 * base,
        )

    def test_completes_and_accounts(self):
        prob = build()
        base, sched = self.crash_schedule(prob)
        res = prob.faulty(sched, baseline_makespan=base)
        assert res.makespan >= base
        assert res.crashed_nodes == (1,)
        assert res.tasks_reexecuted >= 0
        assert any(e["type"] == "crash" for e in res.fault_events)
        assert any(e["type"] == "recovery" for e in res.fault_events)

    def test_no_work_lands_on_dead_node_after_crash(self):
        prob = build(16, 4)
        base, sched = self.crash_schedule(prob, frac=0.3)
        res = prob.faulty(sched, baseline_makespan=base, record_trace=True)
        tc = sched.crashes[0].time
        for _, node, start, _ in res.trace:
            if node == 1:
                assert start < tc

    def test_late_crash_loses_more_lineage(self):
        """Without checkpoints a late crash wipes more durable outputs,
        so the recovery cone grows with crash time (the classic
        lineage-recovery cost curve)."""
        prob = build(16, 4)
        base = prob.plain().makespan

        def run(frac):
            sched = FaultSchedule(
                crashes=(NodeCrash(node=1, time=frac * base),),
                detection_latency=0.02 * base,
            )
            return prob.faulty(sched, baseline_makespan=base)

        assert run(0.9).tasks_reexecuted >= run(0.1).tasks_reexecuted

    def test_deterministic_across_invocations_and_engines(self, monkeypatch):
        prob = build(16, 4)
        sched = FaultSchedule.scenario(
            "crash", seed=7, nodes=4, horizon=prob.plain().makespan
        )
        outcomes = []
        for engine in ENGINES:
            if engine == "python":  # as on a host with no compiler
                monkeypatch.setattr(_ccore, "get_lib", lambda: None)
            for _ in range(2):
                r = prob.faulty(sched)
                outcomes.append(
                    (
                        r.makespan,
                        r.messages,
                        r.tasks_reexecuted,
                        r.tasks_aborted,
                        r.refetch_messages,
                    )
                )
        assert len(set(outcomes)) == 1

    def test_multi_crash(self):
        prob = build(16, 4)
        base = prob.plain().makespan
        sched = FaultSchedule(
            crashes=(
                NodeCrash(node=1, time=0.3 * base),
                NodeCrash(node=2, time=0.5 * base),
            ),
            detection_latency=0.02 * base,
        )
        res = prob.faulty(sched, baseline_makespan=base)
        assert res.crashed_nodes == (1, 2)
        assert res.makespan >= base

    def test_rejects_total_cluster_loss(self):
        prob = build()
        sched = FaultSchedule(
            crashes=tuple(NodeCrash(node=n, time=0.1) for n in range(4)),
        )
        with pytest.raises(ValueError, match="nothing survives"):
            prob.faulty(sched)

    def test_rejects_out_of_range_node(self):
        prob = build()
        sched = FaultSchedule(crashes=(NodeCrash(node=99, time=0.1),))
        with pytest.raises(ValueError, match="outside machine"):
            prob.faulty(sched)

    def test_non_blockcyclic_layout_recovers_too(self):
        cfg = HQRConfig(p=2, a=2)
        m, n = 12, 4
        prob = Problem(
            hqr_elimination_list(m, n, cfg), m, n,
            Machine(nodes=3, cores_per_node=4), Cyclic1D(3),
        )
        base = prob.plain().makespan
        sched = FaultSchedule(
            crashes=(NodeCrash(node=0, time=0.4 * base),),
            detection_latency=0.02 * base,
        )
        res = prob.faulty(sched, baseline_makespan=base)
        assert res.makespan >= base


class TestSlowdownsAndDrops:
    def test_slowdown_stretches_makespan(self):
        prob = build(16, 4)
        base = prob.plain().makespan
        sched = FaultSchedule(
            slowdowns=(Slowdown(node=0, start=0.0, end=base, factor=4.0),),
        )
        res = prob.faulty(sched, baseline_makespan=base)
        assert res.makespan > base
        assert res.tasks_reexecuted == 0

    def test_drops_delay_and_double_traffic(self):
        prob = build(16, 4)
        base_res = prob.plain()
        sched = FaultSchedule(
            seed=2,
            drops=MessageDrops(rate=0.3),
            retransmit_timeout=0.02 * base_res.makespan,
        )
        res = prob.faulty(sched, baseline_makespan=base_res.makespan)
        assert res.messages_dropped > 0
        assert res.retransmits == res.messages_dropped
        # each drop costs one extra wire transmission
        assert res.messages == base_res.messages + res.messages_dropped
        assert res.makespan >= base_res.makespan


class TestReplan:
    def test_shrunken_grid(self):
        assert shrunken_grid(15, 4, 59) == (14, 4)
        assert shrunken_grid(15, 4, 3) == (1, 3)
        assert shrunken_grid(3, 1, 2) == (2, 1)
        assert shrunken_grid(2, 2, 4) == (2, 2)
        with pytest.raises(ValueError):
            shrunken_grid(2, 2, 0)

    def test_shrunken_config_keeps_trees(self):
        cfg = HQRConfig(p=15, q=4, a=8, low_tree="binary", high_tree="greedy")
        small = shrunken_config(cfg, 20)
        assert (small.p, small.q) == (5, 4)
        assert small.a == 8 and small.low_tree == "binary"

    def test_node_remap(self):
        remap = node_remap(4, (1,))
        assert remap[1] in (0, 2, 3)
        assert [remap[n] for n in (0, 2, 3)] == [0, 2, 3]
        with pytest.raises(ValueError):
            node_remap(2, (0, 1))

    def test_replan_restart_charges_elapsed_time(self):
        cfg = HQRConfig(p=2, a=2)
        plan = replan_restart(
            12, 4, cfg, Machine(nodes=4, cores_per_node=4), 40,
            failed=(3,), crash_time=1.5, detection_latency=0.5,
        )
        assert plan.config.p <= 2
        assert plan.total_makespan == pytest.approx(
            2.0 + plan.restart_makespan
        )


class TestBenchReport:
    def test_report_structure_and_determinism(self):
        from repro.bench.runner import BenchSetup
        from repro.resilience.bench import (
            format_resilience_report,
            report_ok,
            resilience_report,
        )

        setup = BenchSetup(
            machine=Machine(nodes=6, cores_per_node=4), grid_p=3, grid_q=2
        )
        kwargs = dict(
            scenarios=("crash", "slowdown", "message-drop"),
            seed=1,
            setup=setup,
            m=10,
            n=4,
            with_distributed_check=False,
        )
        report = resilience_report(**kwargs)
        assert set(report["scenarios"]) == {"crash", "slowdown", "message-drop"}
        for sc in report["scenarios"].values():
            assert len(sc["points"]) >= 2
            for p in sc["points"]:
                assert p["recovered"]
                assert p["makespan"] > 0
        crash_pts = report["scenarios"]["crash"]["points"]
        assert all("best_strategy" in p for p in crash_pts)
        assert report_ok(report)
        text = format_resilience_report(report)
        assert "crash" in text and "fault-free makespan" in text
        assert report["meta"]["python"]  # provenance stamp
        second = resilience_report(**kwargs)
        second["meta"] = report["meta"]  # stamp carries a wall-clock time
        assert second == report

    def test_report_ok_fails_on_bad_kill_check(self):
        from repro.resilience.bench import report_ok

        report = {
            "scenarios": {"crash": {"points": [{"recovered": True}]}},
            "distributed_kill": {"passed": False},
        }
        assert not report_ok(report)

    def test_unknown_scenario_rejected(self):
        from repro.resilience.bench import resilience_report

        with pytest.raises(ValueError, match="unknown scenario"):
            resilience_report(scenarios=("meteor",))
