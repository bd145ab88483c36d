"""Seeded sampling of HQR verification cases.

A :class:`VerifyCase` is one fully specified point of the verification
space: matrix shape, tile size, HQR tree parameters, data layout, machine
shape (including hierarchical site networks), scheduling priority, and the
data-reuse flag.  :func:`generate_cases` draws a deterministic stream of
cases from ``(seed, index)`` — the same seed always yields the same cases,
on any platform, so every failure report is replayable.

Sizes are deliberately small (a few hundred to a few thousand kernel
tasks): the point is combinatorial coverage of the elimination-list
algebra and the event-loop semantics, not scale.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Iterator

from repro.hqr.config import HQRConfig
from repro.runtime.machine import Machine
from repro.tiles.layout import Block1D, BlockCyclic2D, Cyclic1D, Layout, SingleNode

#: reduction trees sampled for both hierarchy levels
TREES = ("flat", "binary", "greedy", "fibonacci")
#: named priorities sampled (None = program order); tuple-valued priorities
#: ("panel-first", "column-major") exercise the generic ranking path
PRIORITY_CHOICES = (None, "critical-path", "panel-first", "column-major")
#: layout families sampled
LAYOUT_KINDS = ("grid", "cyclic", "block", "single")

_LATENCIES = (0.0, 2.0e-6, 1.0e-4)
_BANDWIDTHS = (1.4e9, 1.0e8, float("inf"))


@dataclass(frozen=True)
class VerifyCase:
    """One sampled verification point (hashable, JSON-serializable)."""

    index: int
    seed: int
    m: int
    n: int
    b: int
    p: int
    q: int
    a: int
    low_tree: str
    high_tree: str
    domino: bool
    layout_kind: str
    nodes: int
    cores_per_node: int
    comm_serialized: bool
    site_size: int
    latency: float
    bandwidth: float
    priority: str | None
    data_reuse: bool
    # defaulted so replay files predating the field still load
    batched: bool = False

    # ------------------------------------------------------------------ #
    def config(self) -> HQRConfig:
        return HQRConfig(
            p=self.p, q=self.q, a=self.a,
            low_tree=self.low_tree, high_tree=self.high_tree,
            domino=self.domino,
        )

    def layout(self) -> Layout:
        if self.layout_kind == "grid":
            return BlockCyclic2D(self.p, self.q)
        if self.layout_kind == "cyclic":
            return Cyclic1D(self.nodes)
        if self.layout_kind == "block":
            return Block1D(self.nodes, self.m)
        if self.layout_kind == "single":
            return SingleNode()
        raise ValueError(f"unknown layout kind {self.layout_kind!r}")

    def machine(self) -> Machine:
        return Machine(
            nodes=self.nodes,
            cores_per_node=self.cores_per_node,
            latency=self.latency,
            bandwidth=self.bandwidth,
            comm_serialized=self.comm_serialized,
            site_size=self.site_size,
        )

    # ------------------------------------------------------------------ #
    def replaced(self, **changes) -> "VerifyCase":
        """Copy with fields replaced, keeping layout/machine consistent.

        Shrinking ``p``/``q`` under a grid layout shrinks the node count
        with them; shrinking below the current node count under 1-D
        layouts clamps the machine accordingly.
        """
        case = dataclasses.replace(self, **changes)
        if case.layout_kind == "grid" and case.nodes != case.p * case.q:
            case = dataclasses.replace(case, nodes=case.p * case.q)
        if case.layout_kind == "single" and case.nodes != 1:
            case = dataclasses.replace(case, nodes=1)
        if case.site_size and case.nodes < 2 * case.site_size:
            case = dataclasses.replace(case, site_size=0)
        return case

    def to_dict(self) -> dict:
        # every field is a scalar: asdict's recursive deep copy buys nothing
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        # JSON has no Infinity in strict mode; keep the payload portable
        if d["bandwidth"] == float("inf"):
            d["bandwidth"] = "inf"
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VerifyCase":
        d = dict(d)
        if d.get("bandwidth") == "inf":
            d["bandwidth"] = float("inf")
        return cls(**d)

    def describe(self) -> str:
        prio = self.priority or "program-order"
        return (
            f"case {self.index} (seed {self.seed}): {self.m}x{self.n} tiles "
            f"b={self.b}, {self.config()}, layout={self.layout()!r}, "
            f"machine={self.nodes}x{self.cores_per_node}"
            f"{f' sites of {self.site_size}' if self.site_size else ''}, "
            f"{'serialized' if self.comm_serialized else 'contention-free'} "
            f"comm, priority={prio}, data_reuse={self.data_reuse}"
            f"{', batched dispatch' if self.batched else ''}"
        )


def sample_case(seed: int, index: int) -> VerifyCase:
    """The deterministic ``index``-th case of the ``seed`` stream."""
    rng = random.Random(seed * 1_000_003 + index)
    m = rng.randint(2, 18)
    # mostly tall (the paper's regime), sometimes square/wide to cover the
    # final-diagonal GEQRT path
    n = rng.randint(1, 8) if rng.random() < 0.25 else rng.randint(1, min(m, 6))
    b = rng.choice((8, 16, 40))
    p = rng.randint(1, 4)
    q = rng.randint(1, 3)
    a = rng.randint(1, 5)
    layout_kind = rng.choice(LAYOUT_KINDS)
    if layout_kind == "grid":
        nodes = p * q
    elif layout_kind == "single":
        nodes = 1
    else:
        nodes = rng.randint(2, 6)
    cores_per_node = rng.randint(1, 4)
    site_size = 2 if (nodes >= 4 and rng.random() < 0.3) else 0
    case = VerifyCase(
        index=index,
        seed=seed,
        m=m,
        n=n,
        b=b,
        p=p,
        q=q,
        a=a,
        low_tree=rng.choice(TREES),
        high_tree=rng.choice(TREES),
        domino=rng.random() < 0.5,
        layout_kind=layout_kind,
        nodes=nodes,
        cores_per_node=cores_per_node,
        comm_serialized=rng.random() < 0.7,
        site_size=site_size,
        latency=rng.choice(_LATENCIES),
        bandwidth=rng.choice(_BANDWIDTHS),
        priority=rng.choice(PRIORITY_CHOICES),
        data_reuse=rng.random() < 0.5,
        # drawn LAST: every earlier field keeps its pre-batched value for
        # a given (seed, index), so old failure reports stay replayable
        batched=rng.random() < 0.4,
    )
    return case


def generate_cases(seed: int, budget: int) -> Iterator[VerifyCase]:
    """Yield ``budget`` deterministic cases for ``seed``."""
    for index in range(budget):
        yield sample_case(seed, index)


#: axes :func:`propose_neighbor` can perturb, one per move
NEIGHBOR_AXES = ("low_tree", "high_tree", "domino", "a", "grid", "layout")


def _reflect_step(value: int, step: int, lo: int, hi: int) -> int:
    """``value + step`` reflected into ``[lo, hi]`` (identity when lo==hi)."""
    nxt = value + step
    if nxt < lo:
        nxt = min(lo + 1, hi) if value == lo else lo
    elif nxt > hi:
        nxt = max(hi - 1, lo) if value == hi else hi
    return nxt


def propose_neighbor(
    case: VerifyCase,
    rng: random.Random,
    axis: str | None = None,
    *,
    fixed_machine: bool = False,
    max_a: int | None = None,
) -> VerifyCase:
    """Return a legal neighbor of ``case`` with exactly one axis perturbed.

    This is the proposal distribution of the :mod:`repro.tune` annealer —
    a single-axis random-walk move over the same legal configuration
    space :func:`sample_case` draws from.  A move is a pure function of
    ``(case, rng state)``, so a seeded chain of proposals is exactly
    reproducible.

    Move types (``axis=None`` picks one of :data:`NEIGHBOR_AXES`
    uniformly):

    ========== ==========================================================
    axis       move
    ========== ==========================================================
    `low_tree`  resample the level-1 tree among the three *other* kinds
    `high_tree` resample the level-3 tree among the three *other* kinds
    `domino`    flip the coupling level on/off
    `a`         ±1 random walk on the TS-domain size, reflected into
                ``[1, max_a or m]``
    `grid`      ±1 random walk on one of ``p``/``q`` (picked uniformly),
                reflected into ``[1, m]``; with ``fixed_machine`` the
                grid is additionally capped so ``p * q`` never exceeds
                the machine's node count
    `layout`    resample the layout family among the other kinds (with
                ``fixed_machine``, ``single`` is proposed only on
                one-node machines — it would waste the cluster)
    ========== ==========================================================

    With ``fixed_machine=False`` (verify semantics) the machine follows
    the case via :meth:`VerifyCase.replaced` — e.g. growing a grid under
    a grid layout grows ``nodes`` with it.  With ``fixed_machine=True``
    (tune semantics: the platform is an *input*, the configuration is
    searched) every machine axis — ``nodes``, ``cores_per_node``,
    latency/bandwidth, ``comm_serialized``, ``site_size`` — is left
    untouched and grid moves are constrained to fit the machine.
    """
    if axis is None:
        axis = rng.choice(NEIGHBOR_AXES)
    if axis not in NEIGHBOR_AXES:
        raise ValueError(
            f"unknown neighbor axis {axis!r}; pick one of {NEIGHBOR_AXES}"
        )
    changes: dict = {}
    if axis in ("low_tree", "high_tree"):
        current = getattr(case, axis)
        changes[axis] = rng.choice([t for t in TREES if t != current])
    elif axis == "domino":
        changes["domino"] = not case.domino
    elif axis == "a":
        hi = max(1, max_a if max_a is not None else case.m)
        changes["a"] = _reflect_step(case.a, rng.choice((-1, 1)), 1, hi)
    elif axis == "grid":
        dim = rng.choice(("p", "q"))
        step = rng.choice((-1, 1))
        hi = max(1, case.m)
        value = _reflect_step(getattr(case, dim), step, 1, hi)
        if fixed_machine:
            other = case.q if dim == "p" else case.p
            while value * other > case.nodes and value > 1:
                value -= 1
        changes[dim] = value
    elif axis == "layout":
        kinds = [k for k in LAYOUT_KINDS if k != case.layout_kind]
        if fixed_machine and case.nodes > 1:
            kinds = [k for k in kinds if k != "single"]
        if kinds:
            changes["layout_kind"] = rng.choice(kinds)
    if not changes:  # degenerate axis (e.g. nothing legal to move to)
        return case
    if fixed_machine:
        # dataclasses.replace without its __init__: no field is derived
        moved = object.__new__(type(case))
        moved.__dict__.update(case.__dict__, **changes)
        return moved
    return case.replaced(**changes)
