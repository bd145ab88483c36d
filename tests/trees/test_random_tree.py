"""Fuzzing the full pipeline with arbitrary valid elimination lists,
and mutation-testing the validator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import random_elimination_list
from repro.verify.reference import TaskGraph
from repro.verify.reference.analysis import theoretical_total_weight, total_weight
from repro.hqr import ValidationError, check_elimination_list
from repro.trees.base import Elimination

settings.register_profile("fuzz", max_examples=50, deadline=None)
settings.load_profile("fuzz")


class TestGenerator:
    @given(m=st.integers(2, 20), n=st.integers(1, 20), seed=st.integers(0, 10**6))
    def test_always_valid(self, m, n, seed):
        elims = random_elimination_list(m, n, seed)
        check_elimination_list(elims, m, n)

    @given(m=st.integers(2, 14), n=st.integers(1, 10), seed=st.integers(0, 10**6))
    def test_weight_invariant_holds_for_arbitrary_algorithms(self, m, n, seed):
        """6mn^2 - 2n^3 holds even for algorithms nobody designed."""
        elims = random_elimination_list(m, n, seed)
        g = TaskGraph.from_eliminations(elims, m, n)
        assert total_weight(g) == theoretical_total_weight(m, n)

    def test_deterministic_for_seed(self):
        assert random_elimination_list(10, 4, 7) == random_elimination_list(10, 4, 7)

    def test_different_seeds_differ(self):
        a = random_elimination_list(12, 4, 1)
        b = random_elimination_list(12, 4, 2)
        assert a != b

    @given(seed=st.integers(0, 10**6))
    def test_random_algorithm_factors_correctly(self, seed):
        """End to end: random tree -> DAG -> kernels -> correct R."""
        from repro import qr

        m, n, b = 5, 3, 4
        elims = random_elimination_list(m, n, seed)
        A = np.random.default_rng(seed).standard_normal((m * b, n * b))
        res = qr(A, b=b, eliminations=elims)
        assert res.orthogonality_error() < 1e-11
        assert res.reconstruction_error(A) < 1e-11

    def test_pure_tt_mode(self):
        elims = random_elimination_list(10, 3, 0, ts_probability=0.0)
        assert all(not e.ts for e in elims)


class TestValidatorMutationKilling:
    """Every single-entry mutation of a valid list must be caught (or be a
    genuinely valid algorithm — checked by replaying)."""

    @given(seed=st.integers(0, 500), mutation=st.integers(0, 3))
    def test_mutations_detected_or_still_valid(self, seed, mutation):
        m, n = 8, 3
        rng = np.random.default_rng(seed)
        elims = random_elimination_list(m, n, seed)
        idx = int(rng.integers(len(elims)))
        e = elims[idx]
        mutated = list(elims)
        try:
            if mutation == 0:
                mutated.pop(idx)  # drop an elimination
            elif mutation == 1:
                mutated.append(e)  # duplicate one
            elif mutation == 2:
                # retarget the killer to the panel survivor of a LATER panel
                new_killer = (e.killer + 1) if e.killer + 1 != e.victim else e.killer + 2
                if new_killer >= m:
                    return
                mutated[idx] = Elimination(
                    panel=e.panel, victim=e.victim, killer=new_killer, ts=False
                )
            else:
                # move the elimination to the end of the list
                mutated.pop(idx)
                mutated.append(e)
        except ValueError:
            return  # the mutation itself was illegal to construct
        try:
            check_elimination_list(mutated, m, n)
        except ValidationError:
            return  # caught — good
        # not caught: the mutation must have produced a genuinely valid
        # list; prove it by running the numerics
        from repro import qr

        b = 3
        A = np.random.default_rng(0).standard_normal((m * b, n * b))
        res = qr(A, b=b, eliminations=mutated, validate=False)
        assert res.orthogonality_error() < 1e-10
        assert res.reconstruction_error(A) < 1e-10

    def test_swapping_dependent_entries_detected(self):
        # killer killed before its kill: swap a row's kill before its use
        elims = [
            Elimination(panel=0, victim=2, killer=1),
            Elimination(panel=0, victim=1, killer=0),
        ]
        check_elimination_list(elims, 3, 1)  # valid in this order
        with pytest.raises(ValidationError):
            check_elimination_list(list(reversed(elims)), 3, 1)
