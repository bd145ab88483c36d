"""Integration tests across the whole stack.

Each test exercises several packages at once: tree construction ->
validation -> DAG -> execution -> numerics, or tree -> DAG -> simulation.
"""

import numpy as np
import pytest

from repro import HQRConfig, qr
from repro.baselines import bbd10_elimination_list, slhd10_elimination_list
from repro.bench.runner import BenchSetup, run_config
from repro.verify.reference import ClusterSimulator, TaskGraph
from repro.verify.reference.analysis import theoretical_total_weight, total_weight
from repro.hqr import hqr_elimination_list
from repro.runtime import Machine
from repro.tiles.layout import BlockCyclic2D
from repro.trees import greedy_elimination_list


class TestNumericsAcrossAlgorithms:
    """Every algorithm in the repo factors the same matrix to the same R
    magnitudes and machine-precision quality."""

    @pytest.fixture(scope="class")
    def problem(self):
        rng = np.random.default_rng(99)
        return rng.standard_normal((48, 24))

    def r_magnitudes(self, res):
        return np.abs(res.R[:24])

    def test_all_algorithms_agree(self, problem):
        b = 6  # 8 x 4 tiles
        results = {}
        results["hqr"] = qr(problem, b=b, config=HQRConfig(p=3, a=2))
        results["bbd10"] = qr(problem, b=b, eliminations=bbd10_elimination_list(8, 4))
        results["slhd10"] = qr(
            problem, b=b, eliminations=slhd10_elimination_list(8, 4, r=2)
        )
        results["greedy"] = qr(problem, b=b, eliminations=greedy_elimination_list(8, 4))
        mags = [self.r_magnitudes(res) for res in results.values()]
        for other in mags[1:]:
            np.testing.assert_allclose(mags[0], other, atol=1e-10)
        for name, res in results.items():
            assert res.orthogonality_error() < 1e-12, name
            assert res.reconstruction_error(problem) < 1e-12, name


class TestSimulationVsParallelismTheory:
    def test_speedup_grows_with_cores(self):
        """More cores per node -> shorter makespan, up to DAG limits."""
        m, n, b = 32, 8, 40
        g = TaskGraph.from_eliminations(
            hqr_elimination_list(m, n, HQRConfig(p=4, a=2)), m, n
        )
        spans = []
        for cores in (1, 2, 8):
            mach = Machine(nodes=4, cores_per_node=cores, latency=0, bandwidth=float("inf"), comm_serialized=False)
            spans.append(ClusterSimulator(mach, BlockCyclic2D(2, 2), b).run(g).makespan)
        assert spans[0] > spans[1] > spans[2]

    def test_single_core_makespan_equals_total_work(self):
        m, n, b = 12, 4, 40
        g = TaskGraph.from_eliminations(
            hqr_elimination_list(m, n, HQRConfig()), m, n
        )
        mach = Machine(nodes=1, cores_per_node=1, latency=0, bandwidth=float("inf"))
        from repro.tiles.layout import SingleNode

        res = ClusterSimulator(mach, SingleNode(), b).run(g)
        work = sum(mach.task_seconds(t.kind, b) for t in g.tasks)
        assert res.makespan == pytest.approx(work)

    def test_weight_invariant_under_simulated_algorithms(self):
        """The 6mn^2 - 2n^3 invariant holds for the benched algorithms too."""
        m, n = 20, 6
        for elims in (
            bbd10_elimination_list(m, n),
            slhd10_elimination_list(m, n, r=4),
            greedy_elimination_list(m, n),
        ):
            g = TaskGraph.from_eliminations(elims, m, n)
            assert total_weight(g) == theoretical_total_weight(m, n)


class TestShapeRegimes:
    """Coarse sanity of the paper's regime claims at tiny scale."""

    def test_hqr_beats_bbd10_on_tall_skinny_sim(self):
        setup = BenchSetup()
        from repro.bench.runner import run_eliminations

        m, n = 64, 4
        hqr = run_config(m, n, HQRConfig(p=15, q=4, a=2, low_tree="greedy",
                                         high_tree="fibonacci"), setup)
        bbd = run_eliminations(bbd10_elimination_list(m, n), m, n, setup)
        assert hqr.gflops > bbd.gflops

    def test_percent_of_peak_below_100(self):
        setup = BenchSetup()
        res = run_config(32, 8, HQRConfig(p=15, q=4, a=2), setup)
        assert 0 < res.percent_of_peak(setup.machine) < 100


class TestDeterminism:
    def test_same_config_same_simulation(self):
        setup = BenchSetup()
        r1 = run_config(24, 8, HQRConfig(p=3, a=2), setup)
        r2 = run_config(24, 8, HQRConfig(p=3, a=2), setup)
        assert r1.makespan == r2.makespan
        assert r1.messages == r2.messages

    def test_same_matrix_same_factorization(self, rng):
        A = rng.standard_normal((24, 12))
        r1 = qr(A, b=4, config=HQRConfig(p=2, a=2))
        r2 = qr(A, b=4, config=HQRConfig(p=2, a=2))
        np.testing.assert_array_equal(r1.R, r2.R)
