"""``data_reuse`` changes nothing: with and without it every loop gives
the same run, bit for bit.

The choice runs when a task finishes, before that task's successors are
released, so no successor can be queued-ready then and the ready heap
decides as it would without the flag (ROADMAP item 25).  This pins that
over the verify generator's seeded cases, on the C loop and on the Python
loop (traces included), fault-free and under every fault scenario, ahead
of deleting the flag.
"""

import pytest

from repro import _ccore
from repro.dag.compiled import compiled_from_eliminations
from repro.hqr.hierarchy import hqr_elimination_list
from repro.resilience import FaultSchedule, run_with_faults
from repro.resilience.faults import scenario_names
from repro.runtime.core import run_core
from repro.verify.engines import _simulator
from repro.verify.generator import generate_cases
from repro.verify.reference import TaskGraph

CASES = list(generate_cases(seed=0, budget=48))


def _plan(case):
    elims = hqr_elimination_list(case.m, case.n, case.config())
    graph = TaskGraph.from_eliminations(elims, case.m, case.n)
    machine, layout = case.machine(), case.layout()
    cg = compiled_from_eliminations(elims, case.m, case.n, layout, machine, case.b)
    return elims, machine, layout, cg, _simulator(case, graph).priority_values(graph)


@pytest.mark.parametrize("loop", ["c", "python"])
def test_data_reuse_is_bitwise_neutral_fault_free(loop, request):
    if loop == "c" and not _ccore.native_available():
        pytest.skip("no C toolchain")
    for case in CASES:
        _, machine, _, cg, prio = _plan(case)
        runs = [
            run_core(cg, machine, case.b, prio=prio, data_reuse=reuse,
                     record_trace=loop == "python")
            for reuse in (False, True)
        ]
        assert {run.engine for run in runs} == {loop}
        assert runs[0].result == runs[1].result, case.describe()


@pytest.mark.parametrize("scenario", scenario_names())
def test_data_reuse_is_bitwise_neutral_under_faults(scenario):
    for case in CASES[::4]:
        elims, machine, layout, cg, prio = _plan(case)
        baseline = run_core(cg, machine, case.b, prio=prio).result.makespan
        schedule = FaultSchedule.scenario(
            scenario, seed=case.index, nodes=max(2, layout.nodes),
            horizon=baseline,
        )
        if len(schedule.crashes) >= machine.nodes:
            continue  # nothing would survive: refused either way
        runs = [
            run_with_faults(
                elims, case.m, case.n, layout, machine, case.b, schedule,
                prio=prio, data_reuse=reuse, record_trace=True,
            )
            for reuse in (False, True)
        ]
        assert runs[0] == runs[1], (scenario, case.describe())
