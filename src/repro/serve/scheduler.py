"""Multi-tenant job-stream scheduling: bounded queues, weighted-fair
dequeue, admission control.

The scheduler is a pure data structure over *logical* time — callers
pass ``now`` explicitly; the live daemon drives it on its monotonic
clock, guarded by its condition variable.

Fair dequeue is start-time fair queuing (stride scheduling): every
tenant carries a virtual *pass*; dequeuing a job advances the tenant's
pass by ``cost / weight``, and the next job always comes from the
backlogged tenant with the smallest pass.  Under saturation each tenant
therefore receives service proportional to its weight; a tenant that
went idle re-enters at the current virtual clock instead of cashing in
unbounded credit.

Admission control sheds (never blocks, never wedges): a job is rejected
when its tenant's bounded queue is full or when the global
queued-plus-in-flight cost exceeds the configured budget.  Every
rejection carries a deterministic ``retry_after`` drain estimate that
the HTTP layer surfaces as a ``Retry-After`` header.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Admission",
    "FairScheduler",
    "Job",
    "TenantSpec",
    "parse_tenants",
]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's scheduling contract."""

    name: str
    weight: float = 1.0
    queue_limit: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit}"
            )


def parse_tenants(spec: str) -> tuple[TenantSpec, ...]:
    """Parse ``"name:weight:queue_limit,..."`` (weight/limit optional).

    ``"interactive:4:8,batch:1:16,explore"`` gives three tenants; omitted
    fields take the :class:`TenantSpec` defaults.
    """
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) > 3:
            raise ValueError(f"bad tenant spec {part!r}")
        name = bits[0]
        weight = float(bits[1]) if len(bits) > 1 and bits[1] else 1.0
        limit = int(bits[2]) if len(bits) > 2 and bits[2] else 8
        out.append(TenantSpec(name=name, weight=weight, queue_limit=limit))
    if not out:
        raise ValueError(f"no tenants in spec {spec!r}")
    if len({t.name for t in out}) != len(out):
        raise ValueError(f"duplicate tenant names in spec {spec!r}")
    return tuple(out)


@dataclass
class Job:
    """One queued planning request."""

    job_id: int
    tenant: str
    request: object  # payload: the daemon's pending slot
    cost: float  # admission/fairness cost estimate, virtual seconds
    arrival: float  # clock time the job was offered
    start: float = 0.0  # set when dequeued for service


@dataclass(frozen=True)
class Admission:
    """Verdict of :meth:`FairScheduler.offer`."""

    admitted: bool
    reason: str = ""
    retry_after: float = 0.0


@dataclass
class _TenantState:
    spec: TenantSpec
    queue: deque = field(default_factory=deque)
    vpass: float = 0.0
    admitted: int = 0
    shed: int = 0
    served: int = 0


class FairScheduler:
    """Bounded per-tenant queues with weighted-fair dequeue.

    Not internally synchronized: the daemon serializes access under its
    condition variable.
    """

    def __init__(
        self,
        tenants,
        *,
        capacity: int = 2,
        max_inflight_cost: float | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: global budget over queued + in-flight cost; None = queue
        #: limits only
        self.max_inflight_cost = max_inflight_cost
        self._tenants: dict[str, _TenantState] = {}
        for spec in tenants:
            if spec.name in self._tenants:
                raise ValueError(f"duplicate tenant {spec.name!r}")
            self._tenants[spec.name] = _TenantState(spec=spec)
        if not self._tenants:
            raise ValueError("scheduler needs at least one tenant")
        self._vclock = 0.0
        self._inflight = 0
        self._inflight_cost = 0.0

    # -- introspection ------------------------------------------------- #
    def backlog(self, tenant: str | None = None) -> int:
        if tenant is not None:
            return len(self._tenants[tenant].queue)
        return sum(len(t.queue) for t in self._tenants.values())

    def queued_cost(self) -> float:
        return sum(
            job.cost for t in self._tenants.values() for job in t.queue
        )

    @property
    def inflight(self) -> int:
        return self._inflight

    def snapshot(self) -> dict:
        """Counters for the metrics endpoint."""
        return {
            "inflight": self._inflight,
            "inflight_cost": self._inflight_cost,
            "tenants": {
                name: {
                    "queued": len(st.queue),
                    "queue_limit": st.spec.queue_limit,
                    "weight": st.spec.weight,
                    "admitted": st.admitted,
                    "shed": st.shed,
                    "served": st.served,
                }
                for name, st in sorted(self._tenants.items())
            },
        }

    # -- admission ----------------------------------------------------- #
    def _retry_after(self, extra_cost: float) -> float:
        """Deterministic drain estimate: outstanding cost over capacity."""
        outstanding = self._inflight_cost + self.queued_cost() + extra_cost
        return max(0.05, outstanding / self.capacity)

    def offer(self, job: Job, now: float) -> Admission:
        """Admit ``job`` or shed it; raises ``KeyError`` on unknown tenant."""
        st = self._tenants[job.tenant]
        if len(st.queue) >= st.spec.queue_limit:
            st.shed += 1
            return Admission(
                admitted=False,
                reason="queue-full",
                retry_after=self._retry_after(job.cost),
            )
        if (
            self.max_inflight_cost is not None
            and self._inflight_cost + self.queued_cost() + job.cost
            > self.max_inflight_cost
        ):
            st.shed += 1
            return Admission(
                admitted=False,
                reason="over-budget",
                retry_after=self._retry_after(job.cost),
            )
        if not st.queue:
            # re-entering tenant starts at the current virtual clock:
            # idle time is not banked as future priority
            st.vpass = max(st.vpass, self._vclock)
        st.queue.append(job)
        st.admitted += 1
        return Admission(admitted=True)

    # -- dequeue ------------------------------------------------------- #
    def next_job(self, now: float) -> Job | None:
        """Weighted-fair pick: smallest virtual pass among backlogged
        tenants (name-ordered tie break, so choices are deterministic)."""
        best: _TenantState | None = None
        for name in sorted(self._tenants):
            st = self._tenants[name]
            if st.queue and (best is None or st.vpass < best.vpass):
                best = st
        if best is None:
            return None
        job = best.queue.popleft()
        self._vclock = best.vpass
        best.vpass += job.cost / best.spec.weight
        best.served += 1
        self._inflight += 1
        self._inflight_cost += job.cost
        job.start = now
        return job

    def withdraw(self, job: Job) -> None:
        """Drop a queued job that was never dequeued (its caller gave up)."""
        self._tenants[job.tenant].queue.remove(job)

    def finish(self, job: Job) -> None:
        """Release the in-flight budget a dequeued job held."""
        self._inflight -= 1
        self._inflight_cost -= job.cost
        if self._inflight == 0:
            self._inflight_cost = 0.0  # clamp float drift at idle
