"""Seeded arrival generator: determinism and shape."""

import pytest

from repro.serve.arrivals import poisson_arrivals

RATES = {"a": 2.0, "b": 0.5}


class TestPoisson:
    def test_same_seed_same_trace(self):
        one = poisson_arrivals(RATES, 50.0, seed=7)
        two = poisson_arrivals(RATES, 50.0, seed=7)
        assert one == two

    def test_different_seeds_differ(self):
        assert poisson_arrivals(RATES, 50.0, seed=1) != poisson_arrivals(
            RATES, 50.0, seed=2
        )

    def test_sorted_and_bounded(self):
        events = poisson_arrivals(RATES, 50.0, seed=0)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0 <= t < 50.0 for t in times)

    def test_rate_scales_counts(self):
        events = poisson_arrivals(RATES, 200.0, seed=0)
        n_a = sum(1 for e in events if e.tenant == "a")
        n_b = sum(1 for e in events if e.tenant == "b")
        assert n_a > 2 * n_b  # 2.0 vs 0.5 jobs/s

    def test_zero_rate_silent(self):
        events = poisson_arrivals({"a": 0.0, "b": 1.0}, 20.0, seed=0)
        assert all(e.tenant == "b" for e in events)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(RATES, 0.0)
        with pytest.raises(ValueError):
            poisson_arrivals({"a": -1.0}, 10.0)

    def test_custom_request_factory(self):
        events = poisson_arrivals(
            {"a": 1.0}, 20.0, seed=0,
            request_factory=lambda rng, t: {"m": 4, "n": 1, "who": t},
        )
        assert events and all(e.request["who"] == "a" for e in events)
