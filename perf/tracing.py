"""Spans around the public entry points of each layer, recorded from outside.

Only the traced child installs this.  ``Tracer.install()`` replaces each
entry point - in every ``repro`` module that imported it by name - with a
wrapper that, while ``enabled``, records name, start, end, parent and the
iteration it belongs to.  Spans stay in memory and are written at exit.

A span's self time is its duration minus the part of that interval its
children cover, so on one thread the self times of an iteration's spans
plus the iteration root's own self time (``unattributed``) equal the
iteration's wall time by construction.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field

#: breakdown stages of a 200 from the daemon, in request order
SERVE_STAGES = ("admission", "queue", "cache", "plan", "simulate")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    iteration: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs_elims(args, kwargs, result) -> dict:
    return {"eliminations": len(result)}


def _attrs_build(args, kwargs, result) -> dict:
    return {"tasks": result.ntasks, "edges": len(result.pred_idx)}


def _attrs_run_core(args, kwargs, result) -> dict:
    cg = args[0] if args else kwargs["cg"]
    return {"tasks": cg.ntasks}


def _attrs_run_batch(args, kwargs, result) -> dict:
    graphs = args[0] if args else kwargs["graphs"]
    return {"tasks": sum(cg.ntasks for cg in graphs), "points": len(graphs)}


def _attrs_plan(args, kwargs, result) -> dict:
    return {"status": result.status, "breakdown": result.breakdown}


def _targets() -> list[tuple]:
    """(span name, owner, attribute, attrs callback) per entry point."""
    from repro.bench import runner
    from repro.dag import cache, compiled
    from repro.hqr import hierarchy
    from repro.runtime import core
    from repro.serve.client import ServeClient
    from repro.tune.energy import EnergyEvaluator
    from repro.tune.sampler import Annealer
    from repro.verify import generator

    graph_cache = cache.CompiledGraphCache
    return [
        ("hqr.elim", hierarchy, "hqr_elimination_list", _attrs_elims),
        ("dag.compiled.build", compiled, "compiled_from_eliminations",
         _attrs_build),
        ("dag.cache.fingerprint", cache, "fingerprint", None),
        ("dag.cache.get_or_build", graph_cache, "get_or_build", None),
        ("dag.cache.get", graph_cache, "get", None),
        ("dag.cache.put", graph_cache, "put", None),
        ("dag.cache.contains", graph_cache, "contains", None),
        ("runtime.core.run_core", core, "run_core", _attrs_run_core),
        ("runtime.core.run_core_batch", core, "run_core_batch",
         _attrs_run_batch),
        ("bench.runner.compiled_graph_for", runner, "compiled_graph_for",
         None),
        ("bench.runner.run_config", runner, "run_config", None),
        ("bench.runner.run_config_sweep", runner, "run_config_sweep", None),
        ("tune.evaluate", EnergyEvaluator, "evaluate", None),
        ("tune.run", Annealer, "run", None),
        ("tune.propose_neighbor", generator, "propose_neighbor", None),
        ("serve.client.plan", ServeClient, "plan", _attrs_plan),
    ]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._tls = threading.local()
        #: the open iteration span; parent of spans begun on other threads
        self._root: Span | None = None

    # -- recording ------------------------------------------------------ #
    def _open(self, name: str, parent: int | None, iteration) -> Span:
        with self._id_lock:
            self._next_id += 1
            span_id = self._next_id
        return Span(span_id, parent, name, time.perf_counter(), 0.0, iteration)

    def wrap(self, name: str, fn, attrs=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(self._tls, "stack", None)
            if stack is None:
                stack = self._tls.stack = []
            root = self._root
            if stack:
                parent = stack[-1]
            else:
                parent = root.id if root is not None else None
            span = self._open(
                name, parent, root.iteration if root is not None else None
            )
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target, wherever a ``repro`` module holds it."""
        targets = _targets()  # imports the modules it names
        modules = [
            mod for modname, mod in list(sys.modules.items())
            if modname == "repro" or modname.startswith("repro.")
        ]
        for name, owner, attr, attrs in targets:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, attrs)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def iteration(self, iteration):
        """Context manager: the root span of one traced iteration."""
        return _Iteration(self, iteration)

    # -- analysis ------------------------------------------------------- #
    def expanded(self, iteration=None) -> list[Span]:
        """Spans (of one iteration, or all), with the daemon's breakdown of
        each 200 laid out as children of its client span (durations real,
        positions nominal: consecutive and centred, the remainder being
        HTTP on both sides)."""
        recorded = [
            s for s in self.spans
            if iteration is None or s.iteration == iteration
        ]
        out = list(recorded)
        for span in recorded:
            breakdown = span.attrs.get("breakdown")
            if not breakdown:
                continue
            stages = [(s, breakdown.get(s, 0.0)) for s in SERVE_STAGES]
            at = span.start + max(
                0.0, (span.duration - sum(d for _, d in stages)) / 2
            )
            for stage, dur in stages:
                with self._id_lock:
                    self._next_id += 1
                    span_id = self._next_id
                out.append(Span(
                    span_id, span.id, f"serve.{stage}", at,
                    min(at + dur, span.end), span.iteration,
                ))
                at += dur
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.expanded():
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "iteration": s.iteration, "attrs": s.attrs,
                }) + "\n")


class _Iteration:
    def __init__(self, tracer: Tracer, iteration):
        self.tracer = tracer
        self.span = tracer._open("iteration", None, iteration)

    def __enter__(self) -> Span:
        t = self.tracer
        t._tls.stack = [self.span.id]
        t._root = self.span
        t.enabled = True
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        t = self.tracer
        self.span.end = time.perf_counter()
        t.enabled = False
        t._root = None
        t._tls.stack = []
        t.spans.append(self.span)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans: list[Span], root: Span) -> dict:
    """Per-layer numbers of one traced iteration, from its spans."""
    self_of = self_times(spans)
    total, own = {}, {}
    attrs = {"eliminations": 0, "build_tasks": 0, "edges": 0, "sim_tasks": 0}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + self_of[s.id]
        if s.name == "hqr.elim":
            attrs["eliminations"] += s.attrs["eliminations"]
        elif s.name == "dag.compiled.build":
            attrs["build_tasks"] += s.attrs["tasks"]
            attrs["edges"] += s.attrs["edges"]
        elif s.name.startswith("runtime.core."):
            attrs["sim_tasks"] += s.attrs["tasks"]

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(prefix))

    wall = root.duration
    build_s = total.get("dag.compiled.build", 0.0)
    # run_core_batch falls back to run_core per point without the C core:
    # count self times, so nested spans are not added twice
    core_s = layer_self("runtime.core.")
    accounted = sum(own.values())  # includes the root's unattributed part
    return {
        "hqr.elim_s": total.get("hqr.elim", 0.0),
        "hqr.eliminations": attrs["eliminations"],
        "dag.compiled.build_s": build_s,
        "dag.compiled.tasks": attrs["build_tasks"],
        "dag.compiled.edges": attrs["edges"],
        "dag.compiled.ns_per_task":
            1e9 * build_s / attrs["build_tasks"] if attrs["build_tasks"] else 0.0,
        "dag.cache.fingerprint_s": total.get("dag.cache.fingerprint", 0.0),
        "dag.cache.store_s": total.get("dag.cache.put", 0.0),
        "dag.cache.self_s": layer_self("dag.cache."),
        "runtime.core.batch_s": core_s,
        "runtime.core.tasks_simulated": attrs["sim_tasks"],
        "runtime.core.ns_per_task":
            1e9 * core_s / attrs["sim_tasks"] if attrs["sim_tasks"] else 0.0,
        "bench.runner.sweep_s": total.get("bench.runner.run_config_sweep", 0.0),
        "bench.runner.dispatch_self_s": layer_self("bench.runner."),
        "bench.runner.unattributed_share": self_of[root.id] / wall,
        "tune.evaluate_s": total.get("tune.evaluate", 0.0),
        "tune.chain_self_s":
            own.get("tune.run", 0.0) + own.get("tune.propose_neighbor", 0.0),
        "trace.identity_error": abs(accounted - wall) / wall,
    }
