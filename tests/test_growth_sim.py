"""Tests for the exponential-growth coalescent simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import maximize_demography
from repro.demography import ExponentialDemography
from repro.likelihood.demography_prior import DemographyPooledLikelihood
from repro.simulate.coalescent_sim import expected_tmrca
from repro.simulate.growth_sim import (
    expected_growth_tmrca,
    growth_waiting_time,
    simulate_growth_genealogy,
    simulate_growth_intervals,
)


class TestWaitingTime:
    def test_zero_growth_matches_exponential_inverse(self):
        # With g = 0 the transform reduces to E / rate.
        assert growth_waiting_time(4, 0.7, 2.0, 0.0, 1.5) == pytest.approx(1.5 * 2.0 / 12.0)

    def test_continuity_at_zero_growth(self):
        at_zero = growth_waiting_time(3, 0.2, 1.0, 0.0, 0.8)
        near_zero = growth_waiting_time(3, 0.2, 1.0, 1e-10, 0.8)
        assert near_zero == pytest.approx(at_zero, rel=1e-6)

    def test_positive_growth_shortens_waits(self):
        slow = growth_waiting_time(2, 0.5, 1.0, 0.0, 1.0)
        fast = growth_waiting_time(2, 0.5, 1.0, 3.0, 1.0)
        assert fast < slow

    def test_negative_growth_lengthens_waits(self):
        base = growth_waiting_time(2, 0.0, 1.0, 0.0, 0.5)
        declining = growth_waiting_time(2, 0.0, 1.0, -0.5, 0.5)
        assert declining > base

    def test_impossible_draw_under_decline_raises(self):
        # Total remaining hazard for k=2, theta=1, g=-5 at t=0 is 2/5 = 0.4.
        with pytest.raises(ValueError, match="hazard"):
            growth_waiting_time(2, 0.0, 1.0, -5.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            growth_waiting_time(1, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            growth_waiting_time(2, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            growth_waiting_time(2, 0.0, 1.0, 0.0, -1.0)


class TestIntervals:
    def test_shape_and_positivity(self, rng):
        intervals = simulate_growth_intervals(9, 1.0, 1.5, rng)
        assert intervals.shape == (8,)
        assert np.all(intervals > 0)

    def test_zero_growth_matches_constant_size_expectation(self, rng):
        heights = [simulate_growth_intervals(6, 1.0, 0.0, rng).sum() for _ in range(3000)]
        assert np.mean(heights) == pytest.approx(expected_tmrca(6, 1.0), rel=0.1)

    def test_growth_compresses_deep_history(self, rng):
        flat = np.mean([simulate_growth_intervals(6, 1.0, 0.0, rng).sum() for _ in range(1500)])
        grown = np.mean([simulate_growth_intervals(6, 1.0, 3.0, rng).sum() for _ in range(1500)])
        assert grown < flat

    def test_time_horizon_guard(self, rng):
        with pytest.raises(ValueError, match="horizon"):
            simulate_growth_intervals(4, 1.0, -0.5, rng, max_time=1e-6)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            simulate_growth_intervals(1, 1.0, 0.0, rng)


class TestGenealogy:
    def test_tree_is_valid_and_named(self, rng):
        tree = simulate_growth_genealogy(7, 1.0, 2.0, rng, tip_names=tuple("abcdefg"))
        tree.validate()
        assert tree.n_tips == 7
        assert tree.tip_names == tuple("abcdefg")

    def test_name_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            simulate_growth_genealogy(5, 1.0, 0.0, rng, tip_names=("a", "b"))

    @given(seed=st.integers(0, 5000), n=st.integers(3, 12), growth=st.floats(0.0, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_simulated_trees_always_validate(self, seed, n, growth):
        rng = np.random.default_rng(seed)
        tree = simulate_growth_genealogy(n, 1.0, growth, rng)
        tree.validate()
        assert tree.interval_representation().shape == (n - 1,)
        assert tree.tree_height() == pytest.approx(tree.interval_representation().sum())


class TestRoundTripWithPrior:
    def test_pooled_mle_recovers_simulation_parameters(self, rng):
        """Simulate at a known (θ, g) and check the growth-prior machinery
        recovers it — the simulator and the density must agree."""
        true_theta, true_growth = 1.0, 2.0
        mat = np.vstack(
            [simulate_growth_intervals(10, true_theta, true_growth, rng) for _ in range(1200)]
        )
        estimate = maximize_demography(
            DemographyPooledLikelihood(mat, ExponentialDemography()),
            0.5,
            ExponentialDemography(growth=0.0),
        )
        assert estimate.theta == pytest.approx(true_theta, rel=0.3)
        assert estimate.growth == pytest.approx(true_growth, abs=1.0)

    def test_expected_growth_tmrca_limits(self):
        flat = expected_growth_tmrca(6, 1.0, 0.0, n_replicates=3000)
        assert flat == pytest.approx(expected_tmrca(6, 1.0), rel=0.1)
        grown = expected_growth_tmrca(6, 1.0, 2.0, n_replicates=1500)
        assert grown < flat
