"""Virtual-time stream runner: seeded determinism, overload shedding,
chaos degradation — the acceptance-criteria behaviors."""

from _serve_testlib import TENANTS, TINY_REQUEST
from repro.obs.tracing import Tracer, traces_jsonl
from repro.serve.arrivals import poisson_arrivals
from repro.serve.stream import ChaosWindow, run_stream


def factory(rng, tenant):
    return dict(TINY_REQUEST)


RATES = {"gold": 1.5, "bronze": 0.5}


def make_arrivals(duration=30.0, seed=0, rates=RATES):
    return poisson_arrivals(
        rates, duration, seed=seed, request_factory=factory
    )


class TestDeterminism:
    def test_same_seed_identical_trace_and_summary(self, service):
        arrivals = make_arrivals(seed=5)
        one = run_stream(service, TENANTS, arrivals, capacity=2)
        two = run_stream(service, TENANTS, arrivals, capacity=2)
        assert one.trace == two.trace
        assert one.summary() == two.summary()

    def test_summary_stable_across_cache_states(self, service):
        """First run builds graphs cold, second finds them warm — the
        SLO summary must not see the difference."""
        arrivals = make_arrivals(duration=10.0, seed=6)
        cold = run_stream(service, TENANTS, arrivals, capacity=2)
        warm = run_stream(service, TENANTS, arrivals, capacity=2)
        assert cold.summary() == warm.summary()
        assert warm.slo.cache_hit_ratio() == 1.0

    def test_traced_stream_is_bit_identical_and_virtual(self, service):
        """A seeded traced run replays byte for byte, cold then warm: no
        wall-clock span of the planning chain leaks into a virtual-time
        trace."""
        arrivals = make_arrivals(duration=10.0, seed=7)
        dumps = []
        for _ in range(2):
            tracer = Tracer()
            run_stream(service, TENANTS, arrivals, capacity=2, tracer=tracer)
            dumps.append(traces_jsonl(tracer.traces()))
        assert dumps[0] == dumps[1]
        names, stack = set(), [t.root for t in tracer.traces()]
        while stack:
            sp = stack.pop()
            names.add(sp.name)
            stack.extend(sp.children)
        assert names == {"request", "admission", "queue", "service", "simulate"}

    def test_different_seed_different_trace(self, service):
        one = run_stream(service, TENANTS, make_arrivals(seed=1), capacity=2)
        two = run_stream(service, TENANTS, make_arrivals(seed=2), capacity=2)
        assert one.trace != two.trace


class TestOverload:
    def test_two_x_capacity_sheds_never_wedges(self, service):
        """Offered load far above capacity: the stream still terminates,
        every arrival is accounted for, and sheds are nonzero."""
        # min_service floors each job at 0.2 virtual seconds, so the
        # 20 jobs/s offered load is ~4x what one model server drains
        arrivals = make_arrivals(
            duration=10.0, rates={"gold": 15.0, "bronze": 5.0}
        )
        out = run_stream(
            service, TENANTS, arrivals, capacity=1, min_service=0.2
        )
        assert out.total == len(arrivals)
        assert out.shed > 0 and out.served > 0
        sheds = [t for t in out.trace if t["outcome"] == "shed"]
        assert all(s["retry_after"] > 0 for s in sheds)
        assert all(s["reason"] == "queue-full" for s in sheds)

    def test_weighted_share_under_saturation(self, service):
        """When both tenants saturate their queues, served counts track
        the 3:1 weights (within the slack the bounded queues allow)."""
        arrivals = make_arrivals(
            duration=10.0, rates={"gold": 20.0, "bronze": 20.0}
        )
        out = run_stream(
            service, TENANTS, arrivals, capacity=1, min_service=0.2
        )
        per = out.summary()["per_tenant"]
        assert per["gold"]["served"] > 2 * per["bronze"]["served"]

    def test_cost_budget_sheds_over_budget(self, service):
        arrivals = make_arrivals(duration=10.0, rates={"gold": 20.0})
        out = run_stream(
            service, TENANTS, arrivals, capacity=1,
            max_inflight_cost=1.5, default_cost=1.0,
        )
        reasons = {t["reason"] for t in out.trace if t["outcome"] == "shed"}
        assert "over-budget" in reasons


class TestChaos:
    def test_crash_window_degrades_but_completes(self, service):
        arrivals = make_arrivals(duration=20.0, seed=9)[:16]
        window = ChaosWindow("crash", seed=0, start=arrivals[4].time)
        out = run_stream(
            service, TENANTS, arrivals, capacity=2, chaos=window
        )
        assert out.total == len(arrivals)
        assert out.served > 0
        assert out.degraded > 0  # faults visibly inflated service
        assert out.trace == run_stream(
            service, TENANTS, arrivals, capacity=2, chaos=window
        ).trace  # chaos streams replay deterministically too

    def test_explicit_request_faults_win_over_window(self, service):
        from repro.serve.service import PlanRequest

        window = ChaosWindow("storm", seed=1)
        req = PlanRequest.from_json(
            {**TINY_REQUEST, "faults": {"scenario": "crash", "seed": 2}}
        )
        assert window.apply(req).fault_scenario == "crash"
