"""Tests for the exponential-growth coalescent prior and two-parameter estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import maximize_demography
from repro.demography import ExponentialDemography
from repro.likelihood.coalescent_prior import log_prior_from_intervals
from repro.likelihood.demography_prior import (
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)
from repro.likelihood.growth_prior import batched_log_growth_prior, log_growth_prior
from repro.simulate.coalescent_sim import simulate_genealogy


def simulate_growth_genealogy_intervals(
    n_tips: int, theta: float, growth: float, rng: np.random.Generator
) -> np.ndarray:
    """Simulate coalescent interval lengths under exponential growth.

    Uses the time-rescaling of the inhomogeneous coalescent: with hazard
    k(k−1) e^{g t} / θ, the next event time solves an exponential draw
    against the integrated hazard.
    """
    intervals = []
    t = 0.0
    for k in range(n_tips, 1, -1):
        rate = k * (k - 1) / theta
        target = float(rng.exponential(1.0))
        if abs(growth) < 1e-12:
            dt = target / rate
        else:
            # integral of rate*e^{g s} ds from t to t+dt equals target
            inner = 1.0 + growth * target * np.exp(-growth * t) / rate
            dt = np.log(inner) / growth
        intervals.append(dt)
        t += dt
    return np.asarray(intervals)


class TestDensity:
    def test_zero_growth_matches_constant_size_prior(self, rng):
        tree = simulate_genealogy(9, 1.3, rng)
        intervals = tree.interval_representation()
        for theta in (0.4, 1.0, 3.0):
            assert log_growth_prior(intervals, theta, 0.0) == pytest.approx(
                log_prior_from_intervals(intervals, theta)
            )

    def test_tiny_growth_is_continuous_limit(self, rng):
        intervals = simulate_genealogy(7, 1.0, rng).interval_representation()
        at_zero = log_growth_prior(intervals, 1.0, 0.0)
        near_zero = log_growth_prior(intervals, 1.0, 1e-9)
        assert near_zero == pytest.approx(at_zero, abs=1e-6)

    def test_hand_computed_two_lineage_case(self):
        # One interval [0, t] with 2 lineages:
        # log p = log(2/theta) + g t - 2 (e^{g t} - 1) / (g theta).
        t, theta, g = 0.5, 1.2, 0.8
        expected = np.log(2.0 / theta) + g * t - 2.0 * (np.exp(g * t) - 1.0) / (g * theta)
        assert log_growth_prior(np.array([t]), theta, g) == pytest.approx(expected)

    def test_growth_penalizes_deep_trees(self, rng):
        """Positive growth (small ancestral population) makes old coalescences
        cheap and recent deep waiting times expensive: a tall genealogy is
        less probable under g > 0 than under g = 0 for the same theta."""
        intervals = np.array([0.05, 0.1, 0.2, 1.5])  # long final interval = tall tree
        assert log_growth_prior(intervals, 1.0, 3.0) < log_growth_prior(intervals, 1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_growth_prior(np.array([-0.1]), 1.0, 0.0)
        with pytest.raises(ValueError):
            log_growth_prior(np.array([0.1]), 0.0, 0.0)
        with pytest.raises(ValueError):
            log_growth_prior(np.zeros((2, 2)), 1.0, 0.0)

    def test_batched_matches_single(self, rng):
        mat = np.vstack(
            [simulate_genealogy(6, 1.0, rng).interval_representation() for _ in range(4)]
        )
        thetas = np.array([0.5, 1.0, 2.0])
        growths = np.array([-0.5, 0.0, 1.0])
        batch = batched_log_growth_prior(mat, thetas, growths)
        assert batch.shape == (4, 3, 3)
        for s in range(4):
            for ti, theta in enumerate(thetas):
                for gi, g in enumerate(growths):
                    assert batch[s, ti, gi] == pytest.approx(
                        log_growth_prior(mat[s], float(theta), float(g))
                    )

    def test_batched_validation(self):
        with pytest.raises(ValueError):
            batched_log_growth_prior(np.zeros(3), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            batched_log_growth_prior(np.zeros((2, 3)), np.array([-1.0]), np.array([0.0]))


class TestEstimation:
    @pytest.fixture
    def growth_samples(self, rng):
        true_theta, true_growth = 1.0, 2.0
        mat = np.vstack(
            [
                simulate_growth_genealogy_intervals(10, true_theta, true_growth, rng)
                for _ in range(1500)
            ]
        )
        return mat, true_theta, true_growth

    def test_surface_is_zero_at_driving_point(self, rng):
        mat = np.vstack(
            [simulate_genealogy(6, 1.0, rng).interval_representation() for _ in range(50)]
        )
        rl = DemographyRelativeLikelihood(mat, ExponentialDemography(growth=0.0), driving_theta=1.0)
        assert rl.log_likelihood(1.0, [0.0]) == pytest.approx(0.0, abs=1e-12)
        assert rl.n_samples == 50

    def test_recovers_growth_parameters_from_simulated_genealogies(self, growth_samples):
        """The pooled MLE over genealogies simulated at a known (θ, g) is
        consistent: the profile-likelihood maximizer, started away from the
        truth, lands near it."""
        mat, true_theta, true_growth = growth_samples
        pooled = DemographyPooledLikelihood(mat, ExponentialDemography())
        estimate = maximize_demography(pooled, 0.5, ExponentialDemography(growth=0.0))
        assert estimate.theta == pytest.approx(true_theta, rel=0.35)
        assert estimate.growth == pytest.approx(true_growth, abs=1.2)

    def test_constant_size_samples_prefer_zero_growth(self, rng):
        mat = np.vstack(
            [simulate_genealogy(8, 1.0, rng).interval_representation() for _ in range(1200)]
        )
        pooled = DemographyPooledLikelihood(mat, ExponentialDemography())
        estimate = maximize_demography(pooled, 0.5, ExponentialDemography(growth=1.0))
        assert abs(estimate.growth) < 1.0
        assert estimate.theta == pytest.approx(1.0, rel=0.3)

    def test_relative_surface_is_near_one_close_to_the_driving_point(self, rng):
        """For genealogies drawn from the prior at (θ₀, g₀) the importance
        ratio averages to one, so the relative surface should sit near
        log L = 0 in a neighbourhood of the driving point."""
        mat = np.vstack(
            [simulate_genealogy(8, 1.0, rng).interval_representation() for _ in range(1200)]
        )
        rl = DemographyRelativeLikelihood(mat, ExponentialDemography(growth=0.0), driving_theta=1.0)
        thetas = np.array([0.9, 1.0, 1.1])
        surface = np.column_stack([rl.log_curve(thetas, [g]) for g in (-0.2, 0.0, 0.2)])
        assert np.all(np.abs(surface) < 0.3)

    def test_pooled_validation(self):
        with pytest.raises(ValueError):
            DemographyPooledLikelihood(np.zeros(4), ExponentialDemography())
        with pytest.raises(ValueError):
            DemographyPooledLikelihood(np.full((2, 3), -1.0), ExponentialDemography())

    def test_input_validation(self, rng):
        mat = np.vstack(
            [simulate_genealogy(5, 1.0, rng).interval_representation() for _ in range(5)]
        )
        with pytest.raises(ValueError):
            DemographyRelativeLikelihood(mat, ExponentialDemography(), driving_theta=0.0)
