"""The ``repro verify`` driver: sample, cross-check, shrink, report.

One verification *case* runs through six checks:

1. the production planner builds what its Python references build: with
   the native core loaded, ``hqr_expand``'s list equals
   ``HQRTree._assemble``'s, ``hqr_build_dag``'s graph equals
   ``compile_graph`` of the object graph on every array the loops read,
   and ``hqr_answer_batch`` (expand, build and simulate in one call, the
   answers path) gives ``run_core``'s result on that graph — a refusal
   counts, since production would fall back silently;
2. the elimination list passes
   :func:`repro.hqr.validate.check_elimination_list` (§II legality);
3. every engine executes it (exceptions are failures, not crashes);
4. all engines agree bitwise on
   :func:`~repro.verify.engines.result_key`;
5. the baseline engine's trace passes every oracle invariant
   (:mod:`repro.verify.oracle`);
6. any failure is shrunk over ``(m, n, a, p, q)`` to a minimal repro.

:func:`verify` returns a JSON-serializable report;
:func:`replay_report` re-runs the minimized cases of a previous report,
closing the reproduce-a-failure loop documented in
``docs/verification.md``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro._ccore import get_lib, native_available
from repro.dag.compiled import _build_native, compiled_from_eliminations
from repro.hqr.hierarchy import HQRTree
from repro.hqr.validate import ValidationError, check_elimination_list
from repro.runtime.core import _c_answers, run_core
from repro.verify.engines import available_engines, result_key, run_engines
from repro.verify.generator import VerifyCase, generate_cases
from repro.verify.oracle import check_schedule
from repro.verify.reference import TaskGraph, compile_graph
from repro.verify.shrink import shrink_case

#: fields of result_key, for human-readable divergence reports
KEY_FIELDS = ("makespan", "messages", "bytes_sent", "busy_seconds", "flops", "cores")
#: the CompiledGraph arrays the event loops read
GRAPH_FIELDS = ("kind", "wait", "node", "succ_ptr", "succ_idx", "dur_table")


@dataclass
class CaseFailure:
    """One failed case: what broke, where, and the minimized repro."""

    case: VerifyCase
    # "build-divergence" | "legality" | "engine-error" | "engine-divergence"
    # | "oracle"
    kind: str
    detail: dict
    minimized: VerifyCase | None = None
    minimized_detail: dict | None = None

    def to_dict(self) -> dict:
        return {
            "case": self.case.to_dict(),
            "kind": self.kind,
            "detail": self.detail,
            "minimized": self.minimized.to_dict() if self.minimized else None,
            "minimized_detail": self.minimized_detail,
        }


def verify_case(
    case: VerifyCase,
    *,
    engines: dict[str, Callable] | None = None,
) -> CaseFailure | None:
    """Run one case through the planner checks, legality, all engines,
    and the oracle."""
    tree = HQRTree(case.m, case.n, case.config())
    native = native_available()
    reference = tree._assemble(range(tree.panels))
    elims = tree._expand() if native else reference
    if elims is None or elims != reference:
        state = "refused" if elims is None else "differs"
        return CaseFailure(case, "build-divergence", {"list": state})
    try:
        check_elimination_list(elims, case.m, case.n)
    except ValidationError as err:
        return CaseFailure(case, "legality", {"error": str(err)})
    graph = TaskGraph.from_eliminations(elims, case.m, case.n)
    machine, layout = case.machine(), case.layout()
    build = _build_native if native else compiled_from_eliminations
    built = build(elims, case.m, case.n, layout, machine, case.b)
    if built is None:
        return CaseFailure(case, "build-divergence", {"graph": "refused"})
    compiled = compile_graph(graph, layout, machine, case.b)
    differ = [
        f for f in GRAPH_FIELDS
        if not np.array_equal(getattr(built, f), getattr(compiled, f))
    ]
    if differ:
        return CaseFailure(case, "build-divergence", {"graph": differ})
    if native and tree.tables() is not None:  # the answers path's native call
        (got,) = _c_answers(get_lib(), [(case.m, case.n, case.config(), layout)],
                            machine, case.b)
        if got is None or got[0] != run_core(built, machine, case.b).result:
            state = "refused" if got is None else "differs"
            return CaseFailure(case, "build-divergence", {"answer": state})

    try:
        results = run_engines(case, graph, built, engines)
    except Exception as err:  # an engine crashing IS the finding
        return CaseFailure(
            case, "engine-error", {"error": f"{type(err).__name__}: {err}"}
        )

    names = list(results)
    ref_name = names[0]
    ref_key = result_key(results[ref_name])
    diverged = {}
    for name in names[1:]:
        key = result_key(results[name])
        if key != ref_key:
            diverged[name] = {
                f: (a, b)
                for f, a, b in zip(KEY_FIELDS, ref_key, key)
                if a != b
            }
    if diverged:
        return CaseFailure(
            case,
            "engine-divergence",
            {"baseline": ref_name, "diverged": diverged},
        )

    baseline = results[ref_name]
    if baseline.trace is not None:
        violations = check_schedule(case, graph, baseline)
        if violations:
            return CaseFailure(
                case,
                "oracle",
                {"violations": [dataclasses.asdict(v) for v in violations]},
            )
    return None


def verify(
    seed: int = 0,
    budget: int = 200,
    *,
    shrink: bool = True,
    engines: dict[str, Callable] | None = None,
    max_failures: int = 10,
    progress: Callable[[int, int], None] | None = None,
) -> dict:
    """Run the full differential sweep; returns the JSON-ready report.

    Stops sampling after ``max_failures`` distinct failures (each failure
    triggers a shrink, which re-runs many cases — unbounded failure
    collection on a badly broken engine would take forever).
    """
    engine_names = list((engines if engines is not None else available_engines()))
    t0 = time.perf_counter()
    failures: list[CaseFailure] = []
    cases_run = 0
    for case in generate_cases(seed, budget):
        failure = verify_case(case, engines=engines)
        cases_run += 1
        if progress is not None:
            progress(cases_run, budget)
        if failure is not None:
            if shrink:
                kind = failure.kind

                def still_fails(c: VerifyCase) -> CaseFailure | None:
                    f = verify_case(c, engines=engines)
                    return f if f is not None and f.kind == kind else None

                minimized, min_failure = shrink_case(failure.case, still_fails)
                if min_failure is not None:
                    failure.minimized = minimized
                    failure.minimized_detail = min_failure.detail
            failures.append(failure)
            if len(failures) >= max_failures:
                break
    return {
        "tool": "repro verify",
        "seed": seed,
        "budget": budget,
        "cases_run": cases_run,
        "engines": engine_names,
        "ok": not failures,
        "failures": [f.to_dict() for f in failures],
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }


def replay_report(report: dict) -> list[CaseFailure]:
    """Re-run the (minimized, else original) case of each reported failure.

    Returns the failures that still reproduce — an empty list means the
    bugs in the report are fixed.
    """
    still: list[CaseFailure] = []
    for entry in report.get("failures", []):
        payload = entry.get("minimized") or entry["case"]
        case = VerifyCase.from_dict(payload)
        failure = verify_case(case)
        if failure is not None:
            still.append(failure)
    return still


def write_report(report: dict, path: str) -> None:
    """Write the verification report as JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report(report: dict) -> str:
    """Human-readable summary of a verification report: a function of
    the seed and budget alone (the wall time is ``elapsed_seconds``)."""
    lines = [
        f"repro verify: seed={report['seed']} budget={report['budget']} "
        f"engines={', '.join(report['engines'])}",
        f"cases run: {report['cases_run']}",
    ]
    if report["ok"]:
        lines.append(
            "OK: all cases bitwise-identical across engines and "
            "clean against every oracle invariant"
        )
        return "\n".join(lines)
    lines.append(f"FAILURES: {len(report['failures'])}")
    for entry in report["failures"]:
        case = VerifyCase.from_dict(entry["case"])
        lines.append(f"- [{entry['kind']}] {case.describe()}")
        if entry.get("minimized"):
            mini = VerifyCase.from_dict(entry["minimized"])
            lines.append(f"  minimized: {mini.describe()}")
            lines.append(f"  detail: {json.dumps(entry['minimized_detail'])}")
        else:
            lines.append(f"  detail: {json.dumps(entry['detail'])}")
    return "\n".join(lines)
