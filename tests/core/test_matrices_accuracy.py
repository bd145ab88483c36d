"""Workload generators and the cross-tree accuracy study."""

import numpy as np
import pytest

from _support import (
    GENERATORS,
    default_configs,
    gaussian,
    graded,
    ill_conditioned,
    kahan,
    near_rank_deficient,
    study,
    vandermonde,
)


class TestGenerators:
    def test_shapes(self):
        for name, gen in GENERATORS.items():
            A = gen(20, 10, seed=1)
            assert A.shape == (20, 10), name

    def test_determinism(self):
        np.testing.assert_array_equal(gaussian(8, 4, 3), gaussian(8, 4, 3))

    def test_graded_column_norms_span_decades(self):
        A = graded(100, 10, decades=9, seed=0)
        norms = np.linalg.norm(A, axis=0)
        assert norms[0] / norms[-1] > 1e8

    def test_ill_conditioned_has_requested_condition(self):
        A = ill_conditioned(60, 20, condition=1e8, seed=0)
        assert np.linalg.cond(A) == pytest.approx(1e8, rel=0.1)

    def test_near_rank_deficient_spectrum(self):
        A = near_rank_deficient(40, 20, rank=5, seed=0)
        s = np.linalg.svd(A, compute_uv=False)
        assert s[4] / s[5] > 1e8

    def test_near_rank_deficient_validates_rank(self):
        with pytest.raises(ValueError):
            near_rank_deficient(10, 5, rank=6)

    def test_vandermonde_structure(self):
        A = vandermonde(12, 4, seed=0)
        np.testing.assert_allclose(A[:, 0], 1.0)

    def test_kahan_upper_triangular(self):
        K = kahan(8)
        assert np.allclose(np.tril(K, -1), 0)
        assert np.all(np.diag(K) > 0)


class TestAccuracyStudy:
    @pytest.mark.parametrize(
        "matrix",
        [
            gaussian(48, 24, seed=5),
            graded(48, 24, seed=5),
            ill_conditioned(48, 24, condition=1e10, seed=5),
            vandermonde(48, 12, seed=5),
        ],
        ids=["gaussian", "graded", "illcond", "vandermonde"],
    )
    def test_every_tree_is_backward_stable(self, matrix):
        """All elimination orders give machine-precision orthogonality and
        reconstruction, even on nasty inputs — the §V-A checks, on steroids."""
        reports = study(matrix, b=8)
        for r in reports:
            assert r.orthogonality < 1e-12, r.label
            assert r.reconstruction < 1e-12, r.label

    def test_r_agrees_with_lapack_on_well_conditioned(self):
        reports = study(gaussian(40, 20, seed=9), b=8)
        for r in reports:
            assert r.r_relative_diff < 1e-12, r.label

    def test_default_configs_cover_both_kernel_families(self):
        cfgs = default_configs()
        assert any(c.a > 1 for c in cfgs.values())
        assert any(c.a == 1 for c in cfgs.values())

    @pytest.mark.slow
    def test_statistical_stability_over_seeds(self):
        """30 random matrices: no tree's error distribution drifts above
        ~100 eps."""
        worst = 0.0
        for seed in range(30):
            reports = study(gaussian(32, 16, seed=seed), b=8)
            worst = max(worst, *(r.orthogonality for r in reports))
        assert worst < 1e-13
