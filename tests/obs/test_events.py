"""Bitwise neutrality of looking: attaching a request trace, whose
``simulate`` spans are the run record, must not change any engine's
result, nor which loop runs."""

import contextlib

from repro.bench.runner import BenchSetup, run_config
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.hqr.config import HQRConfig
from repro.hqr.hierarchy import hqr_elimination_list
from repro.obs.tracing import RequestTrace, attach, mint_trace_id


def small_problem(m=16, n=4):
    setup = BenchSetup()
    cfg = HQRConfig(
        p=setup.grid_p, q=setup.grid_q, a=4,
        low_tree="greedy", high_tree="fibonacci", domino=False,
    )
    return setup, cfg, m, n


@contextlib.contextmanager
def traced():
    """Attach a fresh request trace; yields the list of its ``simulate``
    spans, filled when the block ends."""
    trace = RequestTrace(mint_trace_id(), "test", 0.0)
    spans = []
    with attach(trace):
        yield spans
    spans.extend(s for s in trace.root.children if s.name == "simulate")


class TestBitwiseNeutrality:
    """A trace attached vs not must not move a single bit of any result."""

    def test_reference_engine(self):
        setup, cfg, m, n = small_problem()
        graph = TaskGraph.from_eliminations(
            hqr_elimination_list(m, n, cfg), m, n
        )
        sim = ClusterSimulator(setup.machine, setup.layout, setup.b)
        bare = sim.run_reference(graph)
        with traced() as spans:
            instrumented = sim.run_reference(graph)
        assert instrumented.makespan == bare.makespan
        assert instrumented.busy_seconds == bare.busy_seconds
        assert instrumented.messages == bare.messages
        assert instrumented.trace == bare.trace
        assert [s.attrs["engine"] for s in spans] == ["python"]

    def test_compiled_engine(self):
        setup, cfg, m, n = small_problem()
        bare = run_config(m, n, cfg, setup)
        with traced() as spans:
            instrumented = run_config(m, n, cfg, setup)
        assert instrumented == bare
        assert len(spans) == 1

    def test_summary_level_keeps_c_core(self):
        """An attached trace must not force the Python loop."""
        from repro._ccore import native_available

        setup, cfg, m, n = small_problem()
        bare = run_config(m, n, cfg, setup)
        with traced() as spans:
            instrumented = run_config(m, n, cfg, setup)
        assert instrumented.makespan == bare.makespan
        assert instrumented.trace is None  # no per-task detail untraced
        engine = "c-batch" if native_available() else "python"
        assert [s.attrs["engine"] for s in spans] == [engine]

    def test_empty_fault_hooks_are_neutral(self):
        from repro.dag.compiled import compiled_from_eliminations
        from repro.resilience.faults import FaultSchedule
        from repro.runtime.core import FaultHooks, run_core

        setup, cfg, m, n = small_problem()
        cg = compiled_from_eliminations(
            hqr_elimination_list(m, n, cfg), m, n,
            setup.layout, setup.machine, setup.b,
        )

        def run():
            hooks = FaultHooks(
                FaultSchedule(), replan=lambda dead: cg.node.tolist()
            )
            return run_core(
                cg, setup.machine, setup.b, record_trace=True, fault=hooks
            ).result

        bare = run()
        with traced() as spans:
            instrumented = run()
        assert instrumented == bare
        assert len(instrumented.trace) == cg.ntasks
        assert [s.attrs["engine"] for s in spans] == ["python"]

    def test_resilient_engine_with_faults_records_them(self):
        from repro.resilience.faults import FaultSchedule
        from repro.resilience.simulate import run_with_faults

        setup, cfg, m, n = small_problem()
        elims = hqr_elimination_list(m, n, cfg)

        def run(schedule, **kw):
            return run_with_faults(
                elims, m, n, setup.layout, setup.machine, setup.b, schedule,
                **kw,
            )

        baseline = run(FaultSchedule()).makespan
        schedule = FaultSchedule.scenario(
            "crash", seed=0, nodes=setup.machine.nodes, horizon=baseline
        )
        bare = run(schedule, baseline_makespan=baseline)
        with traced() as spans:
            instrumented = run(schedule, baseline_makespan=baseline)
        assert instrumented == bare
        assert {e["type"] for e in bare.fault_events} >= {"crash", "recovery"}
        # the faulted run is one Python-loop span; the fault events are
        # the result's own record
        assert [s.attrs["engine"] for s in spans] == ["python"]
        assert spans[0].attrs["ntasks"] > 0


class TestOverhead:
    def test_summary_recording_overhead_bounded(self):
        """An attached trace (C core preserved) stays near the untraced
        wall time; the 1.5x bound only absorbs CI timing noise."""
        import time

        setup, cfg, m, n = small_problem(32, 8)
        run_config(m, n, cfg, setup)  # warm imports and the native core

        def best_of(k=5, record=False):
            best = float("inf")
            for _ in range(k):
                with traced() if record else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    run_config(m, n, cfg, setup)
                    best = min(best, time.perf_counter() - t0)
            return best

        disabled = best_of()
        summary = best_of(record=True)
        assert summary < disabled * 1.5 + 1e-3
