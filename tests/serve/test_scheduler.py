"""Scheduler invariants: weighted-fair share, bounded queues, shed
behavior, deterministic retry hints."""

import pytest

from repro.serve.scheduler import (
    Admission,
    FairScheduler,
    Job,
    TenantSpec,
    parse_tenants,
)


def job(jid, tenant, cost=1.0, arrival=0.0):
    return Job(job_id=jid, tenant=tenant, request={}, cost=cost,
               arrival=arrival)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            TenantSpec("")
        with pytest.raises(ValueError):
            TenantSpec("x", weight=0.0)
        with pytest.raises(ValueError):
            TenantSpec("x", queue_limit=0)

    def test_parse(self):
        tenants = parse_tenants("interactive:4:8,batch:1:16,explore")
        assert [t.name for t in tenants] == ["interactive", "batch", "explore"]
        assert tenants[0].weight == 4.0
        assert tenants[1].queue_limit == 16
        assert tenants[2].weight == 1.0 and tenants[2].queue_limit == 8

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_tenants("")
        with pytest.raises(ValueError):
            parse_tenants("a:1:2:3")
        with pytest.raises(ValueError):
            parse_tenants("a,a")


class TestWeightedFairness:
    def test_saturated_share_proportional_to_weight(self):
        """Under permanent backlog, service counts track 3:1 weights."""
        tenants = (
            TenantSpec("gold", weight=3.0, queue_limit=1000),
            TenantSpec("bronze", weight=1.0, queue_limit=1000),
        )
        sched = FairScheduler(tenants, capacity=1)
        jid = 0
        for _ in range(200):
            for t in ("gold", "bronze"):
                assert sched.offer(job(jid, t), 0.0).admitted
                jid += 1
        served = {"gold": 0, "bronze": 0}
        for _ in range(200):
            j = sched.next_job(0.0)
            served[j.tenant] += 1
            sched.finish(j)
        assert served["gold"] == 150
        assert served["bronze"] == 50

    def test_fifo_within_tenant(self):
        sched = FairScheduler((TenantSpec("only"),), capacity=1)
        for i in range(5):
            assert sched.offer(job(i, "only"), 0.0).admitted
        order = []
        for _ in range(5):
            j = sched.next_job(0.0)
            order.append(j.job_id)
            sched.finish(j)
        assert order == [0, 1, 2, 3, 4]

    def test_idle_tenant_does_not_bank_credit(self):
        """A tenant that was idle re-enters at the current virtual clock
        instead of monopolizing the servers with accumulated priority."""
        tenants = (
            TenantSpec("busy", weight=1.0, queue_limit=1000),
            TenantSpec("idle", weight=1.0, queue_limit=1000),
        )
        sched = FairScheduler(tenants, capacity=1)
        jid = 0
        for _ in range(50):
            sched.offer(job(jid, "busy"), 0.0)
            jid += 1
        for _ in range(20):
            j = sched.next_job(0.0)
            sched.finish(j)
        # idle tenant wakes up with a large backlog
        for _ in range(10):
            sched.offer(job(jid, "idle"), 0.0)
            jid += 1
        picks = []
        for _ in range(10):
            j = sched.next_job(0.0)
            picks.append(j.tenant)
            sched.finish(j)
        # equal weights from here on: picks must alternate, not be a
        # ten-long run of the newly woken tenant
        assert picks.count("idle") <= 6

    def test_deterministic_tiebreak(self):
        tenants = (TenantSpec("b"), TenantSpec("a"))
        sched = FairScheduler(tenants, capacity=1)
        sched.offer(job(0, "b"), 0.0)
        sched.offer(job(1, "a"), 0.0)
        assert sched.next_job(0.0).tenant == "a"  # name order breaks ties


class TestAdmission:
    def test_queue_limit_sheds_with_retry_hint(self):
        sched = FairScheduler((TenantSpec("t", queue_limit=2),), capacity=1)
        assert sched.offer(job(0, "t"), 0.0).admitted
        assert sched.offer(job(1, "t"), 0.0).admitted
        adm = sched.offer(job(2, "t"), 0.0)
        assert not adm.admitted
        assert adm.reason == "queue-full"
        assert adm.retry_after > 0
        assert sched.backlog("t") == 2

    def test_retry_after_deterministic(self):
        def build():
            sched = FairScheduler(
                (TenantSpec("t", queue_limit=1),), capacity=2
            )
            sched.offer(job(0, "t", cost=3.0), 0.0)
            return sched.offer(job(1, "t", cost=3.0), 0.0)

        assert build() == build() == Admission(
            admitted=False, reason="queue-full", retry_after=3.0
        )

    def test_global_cost_budget(self):
        sched = FairScheduler(
            (TenantSpec("t", queue_limit=100),),
            capacity=1,
            max_inflight_cost=5.0,
        )
        assert sched.offer(job(0, "t", cost=4.0), 0.0).admitted
        adm = sched.offer(job(1, "t", cost=4.0), 0.0)
        assert not adm.admitted and adm.reason == "over-budget"

    def test_unknown_tenant_raises(self):
        sched = FairScheduler((TenantSpec("t"),), capacity=1)
        with pytest.raises(KeyError):
            sched.offer(job(0, "nope"), 0.0)

    def test_finish_releases_budget(self):
        sched = FairScheduler(
            (TenantSpec("t", queue_limit=100),),
            capacity=1,
            max_inflight_cost=2.0,
        )
        sched.offer(job(0, "t", cost=2.0), 0.0)
        j = sched.next_job(0.0)
        assert not sched.offer(job(1, "t", cost=2.0), 0.0).admitted
        sched.finish(j)
        assert sched.offer(job(2, "t", cost=2.0), 0.0).admitted
        assert sched.inflight == 0
        assert sched.snapshot()["inflight_cost"] == 0.0  # released

    def test_snapshot_counters(self):
        sched = FairScheduler((TenantSpec("t", queue_limit=1),), capacity=1)
        sched.offer(job(0, "t"), 0.0)
        sched.offer(job(1, "t"), 0.0)  # shed
        snap = sched.snapshot()
        assert snap["tenants"]["t"]["admitted"] == 1
        assert snap["tenants"]["t"]["shed"] == 1
        assert snap["tenants"]["t"]["queued"] == 1
