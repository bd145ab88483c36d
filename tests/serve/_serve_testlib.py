"""Shared serving-test helpers: a deliberately tiny cluster model so
planning is milliseconds, not paper scale."""

import threading
import time

from repro.bench.runner import BenchSetup
from repro.runtime.machine import Machine
from repro.serve.scheduler import TenantSpec
from repro.serve.service import PlannerService

#: small pinned request every suite can reuse (p*q=2 fits the 4-node
#: test machine)
TINY_REQUEST = {
    "m": 8,
    "n": 2,
    "config": {"p": 2, "q": 1, "a": 2, "low": "greedy",
               "high": "fibonacci", "domino": True},
}

TENANTS = (
    TenantSpec("gold", weight=3.0, queue_limit=4),
    TenantSpec("bronze", weight=1.0, queue_limit=4),
)


def tiny_setup() -> BenchSetup:
    return BenchSetup(
        b=40, grid_p=2, grid_q=1,
        machine=Machine(nodes=4, cores_per_node=2),
    )


class HeldPlannerService(PlannerService):
    """A planner whose answers wait for :attr:`release`.

    A warm-cache plan takes well under a millisecond, so a burst of
    client threads can arrive one at a time and never find the queue
    full; holding the worker makes the saturation deterministic.
    """

    def __init__(self, setup: BenchSetup):
        super().__init__(setup)
        self.release = threading.Event()

    def plan(self, req):
        self.release.wait(timeout=30.0)
        return super().plan(req)


def wait_for(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def saturating_burst(daemon, client, tenant, request, *, fires=12):
    """Fire ``fires`` concurrent plans at a daemon of one worker and a
    queue of one over a :class:`HeldPlannerService`; returns the
    responses.

    The held worker takes one job and the queue one more, so every other
    request is answered (shed) before the worker is released.
    """
    results = []
    lock = threading.Lock()

    def fire():
        r = client.plan(tenant, request)
        with lock:
            results.append(r)

    threads = [threading.Thread(target=fire) for _ in range(fires)]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 30.0
    while len(results) < fires - 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    daemon.service.release.set()
    for t in threads:
        t.join()
    return results
