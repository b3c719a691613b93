"""Tests for the pluggable demography layer (ISSUE 4).

Covers the protocol and registry (serialization round-trips, Λ/Λ⁻¹
consistency, the bit-for-bit g → 0 limit), the demography-conditional
proposal kernel and the corrected baselines (flat-likelihood recovery
mirroring ``test_gmh.py``), the N-dimensional joint estimator, the
Λ-inverse time-rescaled simulator, and the config/API/CLI surface
(structured specs, the shared capability guard, multi-locus runs,
``mpcgs info --json``).
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment, RunSpec
from repro.cli import main
from repro.core.config import DEMOGRAPHIES as CONFIG_DEMOGRAPHIES
from repro.core.config import EstimatorConfig, MPCGSConfig, SamplerConfig
from repro.core.estimator import maximize_demography
from repro.core.mpcgs import MPCGS, run_multilocus
from repro.core.registry import require_demography_support
from repro.core.sampler import MultiProposalSampler
from repro.baselines.heated import HeatedChainSampler
from repro.baselines.lamarc import LamarcSampler
from repro.demography import (
    BottleneckDemography,
    ConstantDemography,
    Demography,
    ExponentialDemography,
    LogisticDemography,
    available_demographies,
    make_demography,
    register_demography,
)
from repro.demography.base import ParamSpec, prior_ratio_adjustment
from repro.demography.registry import DEMOGRAPHIES as DEMOGRAPHY_REGISTRY
from repro.likelihood.coalescent_prior import batched_log_prior
from repro.likelihood.demography_prior import (
    CombinedDemographyLikelihood,
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)
from repro.likelihood.growth_prior import batched_log_growth_prior
from repro.likelihood.mutation_models import F84
from repro.sequences.evolve import evolve_sequences
from repro.sequences.phylip import write_phylip
from repro.simulate.coalescent_sim import simulate_genealogy
from repro.simulate.demography_sim import (
    demography_waiting_time,
    simulate_demography_genealogy,
    simulate_demography_intervals,
)
from repro.simulate.growth_sim import growth_waiting_time

ALL_MODELS = [
    ConstantDemography(),
    ExponentialDemography(growth=1.5),
    ExponentialDemography(growth=-0.6),
    BottleneckDemography(start=0.15, duration=0.2, strength=0.1),
    LogisticDemography(rate=5.0, midpoint=0.4, floor=0.2),
]


class _FlatEngine:
    """Uniform data likelihood: the chain then samples the genealogy prior."""

    n_evaluations = 0

    def evaluate(self, tree):
        self.n_evaluations += 1
        return 0.0

    def evaluate_batch(self, trees):
        self.n_evaluations += len(trees)
        return np.zeros(len(trees))


# --------------------------------------------------------------------------- #
# Registry and serialization
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_stock_models_registered(self):
        names = set(available_demographies())
        assert {"constant", "exponential", "bottleneck", "logistic"} <= names

    def test_growth_alias_builds_exponential(self):
        dem = make_demography("growth", growth=2.0)
        assert isinstance(dem, ExponentialDemography)
        assert dem.growth == 2.0

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="demography"):
            make_demography("piecewise-mystery")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            make_demography("bottleneck", bogus=1.0)

    def test_to_dict_round_trip(self):
        for dem in ALL_MODELS:
            doc = dem.to_dict()
            rebuilt = make_demography(doc["name"], doc["params"])
            assert rebuilt == dem
            # The structured doc is JSON-safe.
            assert json.loads(json.dumps(doc)) == doc

    def test_param_vector_round_trip(self):
        dem = BottleneckDemography(start=0.3, duration=0.25, strength=0.4)
        vec = dem.param_values()
        assert dem.with_param_values(vec) == dem
        moved = dem.with_param_values(vec * 2.0)
        assert moved.start == pytest.approx(0.6)
        with pytest.raises(ValueError, match="parameter"):
            dem.with_param_values([1.0, 2.0])

    def test_custom_demography_registers_and_configures(self):
        class StepDemography(ConstantDemography):
            name = "teststep"

        register_demography("teststep", StepDemography)
        try:
            assert "teststep" in available_demographies()
            cfg = MPCGSConfig(demography="teststep")
            assert isinstance(cfg.demography_model(), StepDemography)
        finally:
            DEMOGRAPHY_REGISTRY._builders.pop("teststep", None)
            DEMOGRAPHY_REGISTRY._descriptions.pop("teststep", None)
            DEMOGRAPHY_REGISTRY._metadata.pop("teststep", None)

    def test_config_demographies_cover_registry_and_aliases(self):
        assert set(CONFIG_DEMOGRAPHIES) >= {
            "constant",
            "growth",
            "exponential",
            "bottleneck",
            "logistic",
        }


# --------------------------------------------------------------------------- #
# Λ / Λ⁻¹ consistency
# --------------------------------------------------------------------------- #


class TestIntensityConsistency:
    @pytest.mark.parametrize("dem", ALL_MODELS, ids=str)
    def test_cumulative_is_monotone_from_zero(self, dem):
        ts = np.linspace(0.0, 4.0, 200)
        lam = np.asarray(dem.cumulative_intensity(ts), dtype=float)
        assert lam[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(lam) > 0)

    @pytest.mark.parametrize("dem", ALL_MODELS, ids=str)
    def test_inverse_round_trip(self, dem):
        ts = np.linspace(1e-6, 4.0, 50)
        lam = np.asarray(dem.cumulative_intensity(ts), dtype=float)
        back = np.asarray(dem.inverse_cumulative_intensity(lam), dtype=float)
        assert back == pytest.approx(ts, abs=1e-7)

    @pytest.mark.parametrize("dem", ALL_MODELS, ids=str)
    def test_integrated_matches_cumulative_difference(self, dem):
        ts = np.linspace(0.0, 3.0, 40)
        diff = np.diff(np.asarray(dem.cumulative_intensity(ts), dtype=float))
        integ = np.asarray(dem.integrated_intensity(ts[:-1], ts[1:]), dtype=float)
        assert integ == pytest.approx(diff, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("dem", ALL_MODELS, ids=str)
    def test_cumulative_derivative_is_intensity(self, dem):
        ts = np.linspace(0.05, 3.0, 30)
        h = 1e-6
        numeric = (
            np.asarray(dem.cumulative_intensity(ts + h), dtype=float)
            - np.asarray(dem.cumulative_intensity(ts - h), dtype=float)
        ) / (2 * h)
        # Skip points within h of an intensity discontinuity (bottleneck edges).
        nu = np.asarray(dem.intensity(ts), dtype=float)
        near = np.asarray(dem.intensity(ts + 2 * h), dtype=float)
        smooth = np.isclose(nu, near, rtol=1e-6)
        assert numeric[smooth] == pytest.approx(nu[smooth], rel=1e-4)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_exponential_inverse_property(self, growth, t):
        dem = ExponentialDemography(growth=growth)
        lam = float(dem.cumulative_intensity(t))
        assert float(dem.inverse_cumulative_intensity(lam)) == pytest.approx(
            t, rel=1e-9, abs=1e-9
        )

    @given(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.0, max_value=6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bottleneck_inverse_property(self, start, duration, strength, t):
        dem = BottleneckDemography(start=start, duration=duration, strength=strength)
        lam = float(dem.cumulative_intensity(t))
        assert float(dem.inverse_cumulative_intensity(lam)) == pytest.approx(
            t, rel=1e-8, abs=1e-8
        )

    def test_generic_inverse_keeps_its_one_element_bits(self):
        """A one-element call to the generic Λ⁻¹ (the logistic model's
        bisection) returns the bits it returned before elements stopped
        one by one."""
        dem = LogisticDemography(rate=2.0, midpoint=0.5, floor=0.2)
        pinned = {
            0.05: "0x1.3eedac9030000p-5",
            0.3: "0x1.cabec70134000p-3",
            0.7: "0x1.f204ca89ee000p-2",
            1.9: "0x1.11f96fa72becep+0",
            3.3: "0x1.89854c030e6cdp+0",
        }
        for y, bits in pinned.items():
            assert float(dem.inverse_cumulative_intensity(np.array([y]))[0]).hex() == bits

    def test_generic_inverse_does_not_depend_on_its_batch(self):
        """Each element of the generic Λ⁻¹ gets the bits it gets alone,
        whatever else shares the call."""
        dem = LogisticDemography(rate=2.0, midpoint=0.5, floor=0.2)
        y = np.random.default_rng(5).exponential(1.0, size=64)
        batch = dem.inverse_cumulative_intensity(y)
        alone = np.array([dem.inverse_cumulative_intensity(y[i : i + 1])[0] for i in range(y.size)])
        assert batch.tobytes() == alone.tobytes()

    def test_declining_exponential_total_intensity(self):
        dem = ExponentialDemography(growth=-0.5)
        assert dem.total_intensity() == pytest.approx(2.0)
        with pytest.raises(ValueError, match="total"):
            dem.inverse_cumulative_intensity(2.5)


# --------------------------------------------------------------------------- #
# Priors: limits and equivalences
# --------------------------------------------------------------------------- #


class TestPriors:
    def _random_intervals(self, seed=0, n_samples=20, n_intervals=9):
        rng = np.random.default_rng(seed)
        return rng.exponential(0.3, size=(n_samples, n_intervals))

    def test_exponential_g0_matches_constant_bit_for_bit(self):
        mat = self._random_intervals()
        constant = ConstantDemography().batched_log_prior(mat, 0.7)
        limit = ExponentialDemography(growth=0.0).batched_log_prior(mat, 0.7)
        assert np.array_equal(constant, limit)
        assert ExponentialDemography(growth=0.0).is_constant

    def test_exponential_tiny_g_converges_to_constant(self):
        mat = self._random_intervals()
        constant = ConstantDemography().batched_log_prior(mat, 0.7)
        near = ExponentialDemography(growth=1e-9).batched_log_prior(mat, 0.7)
        assert near == pytest.approx(constant, rel=1e-6)

    def test_constant_prior_delegates_to_eq18(self):
        mat = self._random_intervals(seed=3)
        assert np.array_equal(
            ConstantDemography().batched_log_prior(mat, 1.3),
            batched_log_prior(mat, np.asarray([1.3]))[:, 0],
        )

    def test_exponential_prior_delegates_to_growth_prior(self):
        mat = self._random_intervals(seed=4)
        assert np.array_equal(
            ExponentialDemography(growth=1.7).batched_log_prior(mat, 0.9),
            batched_log_growth_prior(mat, np.asarray([0.9]), np.asarray([1.7]))[:, 0, 0],
        )

    def test_neutral_bottleneck_and_logistic_reduce_to_constant(self):
        mat = self._random_intervals(seed=5)
        constant = ConstantDemography().batched_log_prior(mat, 0.8)
        neutral_b = BottleneckDemography(strength=1.0).batched_log_prior(mat, 0.8)
        neutral_l = LogisticDemography(floor=1.0).batched_log_prior(mat, 0.8)
        assert neutral_b == pytest.approx(constant, rel=1e-10)
        assert neutral_l == pytest.approx(constant, rel=1e-10)
        assert BottleneckDemography(strength=1.0).is_constant
        assert LogisticDemography(floor=1.0).is_constant

    def test_generic_prior_integrates_density_to_one_for_two_tips(self):
        """For n=2 the prior is a 1-D density in the waiting time; the
        demography-generic formula must integrate to 1."""
        for dem in ALL_MODELS:
            if isinstance(dem, ExponentialDemography) and dem.growth < 0:
                continue  # improper: positive mass on never coalescing
            ts = np.linspace(1e-5, 60.0, 240_000)
            log_density = dem.batched_log_prior(ts[:, None], 1.0)
            mass = float(np.trapezoid(np.exp(log_density), ts))
            assert mass == pytest.approx(1.0, abs=2e-3), dem

    def test_prior_ratio_adjustment_matches_difference(self):
        rng = np.random.default_rng(1)
        trees = [simulate_genealogy(6, 1.0, rng) for _ in range(4)]
        mat = np.vstack([t.interval_representation() for t in trees])
        dem = BottleneckDemography(start=0.1, duration=0.3, strength=0.2)
        adj = prior_ratio_adjustment(dem, 0.9)(trees)
        expected = dem.batched_log_prior(mat, 0.9) - ConstantDemography().batched_log_prior(
            mat, 0.9
        )
        assert adj == pytest.approx(expected)


# --------------------------------------------------------------------------- #
# Estimator: N-dimensional ascent
# --------------------------------------------------------------------------- #


class TestMaximizeDemography:
    def test_parameter_free_demography_reduces_to_theta_ascent(self):
        rng = np.random.default_rng(5)
        mat = np.vstack(
            [simulate_demography_intervals(10, 1.5, ConstantDemography(), rng)
             for _ in range(300)]
        )
        est = maximize_demography(
            DemographyPooledLikelihood(mat, ConstantDemography()), 0.5, ConstantDemography()
        )
        assert est.params == ()
        assert est.theta == pytest.approx(1.5, rel=0.25)

    def test_recovers_bottleneck_parameters_from_pooled_genealogies(self):
        truth = BottleneckDemography(start=0.1, duration=0.2, strength=0.08)
        rng = np.random.default_rng(11)
        mat = np.vstack(
            [simulate_demography_intervals(12, 1.0, truth, rng) for _ in range(600)]
        )
        start_point = BottleneckDemography(start=0.12, duration=0.15, strength=0.2)
        est = maximize_demography(
            DemographyPooledLikelihood(mat, start_point), 0.8, start_point
        )
        better = est.log_relative_likelihood
        at_start = DemographyPooledLikelihood(mat, start_point).log_likelihood(
            0.8, start_point.param_values()
        )
        assert better >= at_start
        assert est.theta == pytest.approx(1.0, rel=0.35)
        assert est.params_dict["strength"] < 0.2  # moved toward the deep truth

    def test_trust_region_bounds_each_parameter(self):
        truth = ExponentialDemography(growth=0.0)
        rng = np.random.default_rng(3)
        mat = np.vstack(
            [simulate_demography_intervals(10, 4.0, truth, rng) for _ in range(150)]
        )
        cfg = EstimatorConfig(max_theta_step_factor=2.0, max_growth_step=0.5)
        est = maximize_demography(
            DemographyPooledLikelihood(mat, truth), 1.0, truth, cfg
        )
        assert est.theta <= 2.0 + 1e-9
        assert abs(est.params[0]) <= 0.5 + 1e-9

    def test_infeasible_probe_values_do_not_crash(self):
        """Gradient probes just outside a parameter's feasible range (e.g.
        strength below zero when the driving value sits on the bound) must
        be treated as -inf, not raise from the model constructor."""
        dem = BottleneckDemography(start=0.1, duration=0.1, strength=1e-6)
        rng = np.random.default_rng(2)
        mat = np.vstack(
            [simulate_demography_intervals(8, 1.0, BottleneckDemography(), rng)
             for _ in range(30)]
        )
        est = maximize_demography(DemographyPooledLikelihood(mat, dem), 1.0, dem)
        assert np.isfinite(est.theta)

    def test_combined_likelihood_scales_pooled_components(self):
        dem = ExponentialDemography(growth=1.0)
        rng = np.random.default_rng(7)
        mat = np.vstack(
            [simulate_demography_intervals(8, 1.0, dem, rng) for _ in range(30)]
        )
        whole = CombinedDemographyLikelihood([DemographyPooledLikelihood(mat, dem)])
        split = CombinedDemographyLikelihood(
            [
                DemographyPooledLikelihood(mat[:10], dem),
                DemographyPooledLikelihood(mat[10:], dem),
            ]
        )
        point = np.asarray([1.2])
        assert split.log_likelihood(0.9, point) == pytest.approx(
            whole.log_likelihood(0.9, point)
        )
        with pytest.raises(ValueError):
            CombinedDemographyLikelihood([])

    def test_relative_likelihood_all_underflow_is_minus_inf(self):
        lik = DemographyRelativeLikelihood(
            np.array([[280.0, 10.0]]), ExponentialDemography(growth=2.4), 1.0
        )
        assert lik.log_likelihood(1.0, np.asarray([5.0])) == -np.inf


# --------------------------------------------------------------------------- #
# Samplers: conditional kernel and corrected baselines
# --------------------------------------------------------------------------- #


class TestConditionalKernel:
    def test_gmh_conditional_chain_samples_the_demography_prior(self):
        """Mirror of test_gmh's flat-likelihood recovery, with the
        demography-conditional kernel instead of the importance correction."""
        seed_tree = simulate_genealogy(10, 1.0, np.random.default_rng(0))
        cfg = SamplerConfig(n_proposals=8, n_samples=2000, burn_in=300, thin=2)
        sampler = MultiProposalSampler(
            _FlatEngine(), 1.0, cfg, demography=ExponentialDemography(growth=2.0)
        )
        chain = sampler.run(seed_tree, np.random.default_rng(42))
        assert chain.extras["proposal_kernel"] == "conditional"
        assert chain.extras["demography"]["name"] == "exponential"
        est = maximize_demography(
            DemographyPooledLikelihood(chain.interval_matrix, ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=2.0),
        )
        assert est.theta == pytest.approx(1.0, rel=0.3)
        assert est.growth == pytest.approx(2.0, abs=0.8)

    def test_gmh_conditional_chain_survives_large_growth(self):
        """At |g| = 50 the rescaled spans overflow linear-space weights; the
        log-space passes must keep the chain exact (recovering the driving
        pair) instead of dead-ending."""
        seed_tree = simulate_genealogy(10, 1.0, np.random.default_rng(0))
        cfg = SamplerConfig(n_proposals=8, n_samples=1200, burn_in=200, thin=2)
        sampler = MultiProposalSampler(
            _FlatEngine(), 1.0, cfg, demography=ExponentialDemography(growth=50.0)
        )
        chain = sampler.run(seed_tree, np.random.default_rng(43))
        est = maximize_demography(
            DemographyPooledLikelihood(chain.interval_matrix, ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=50.0),
        )
        assert est.theta == pytest.approx(1.0, rel=0.4)
        assert est.growth == pytest.approx(50.0, rel=0.25)

    def test_gmh_corrected_growth_uses_constant_kernel(self):
        sampler = MultiProposalSampler(
            _FlatEngine(),
            1.0,
            SamplerConfig(n_proposals=2),
            demography=ExponentialDemography(growth=1.5),
            importance_correction=True,
        )
        assert sampler.importance_correction
        assert sampler.resimulator.demography is None
        assert sampler.gmh.log_prior_adjustment is not None

    def test_bottleneck_conditional_chain_samples_the_prior(self):
        dem = BottleneckDemography(start=0.1, duration=0.2, strength=0.1)
        seed_tree = simulate_genealogy(10, 1.0, np.random.default_rng(0))
        cfg = SamplerConfig(n_proposals=8, n_samples=1500, burn_in=300, thin=2)
        chain = MultiProposalSampler(_FlatEngine(), 1.0, cfg, demography=dem).run(
            seed_tree, np.random.default_rng(7)
        )
        est = maximize_demography(
            DemographyPooledLikelihood(chain.interval_matrix, dem), 1.0, dem
        )
        assert est.theta == pytest.approx(1.0, rel=0.35)


class TestCorrectedBaselines:
    """lamarc/heated carry the growth correction the GMH chain got in PR 3."""

    @pytest.mark.parametrize("importance_correction", [True, False])
    def test_lamarc_flat_likelihood_recovers_growth_pair(self, importance_correction):
        seed_tree = simulate_genealogy(10, 1.0, np.random.default_rng(0))
        cfg = SamplerConfig(n_samples=2500, burn_in=400, thin=2)
        sampler = LamarcSampler(
            _FlatEngine(),
            1.0,
            cfg,
            demography=ExponentialDemography(growth=2.0),
            importance_correction=importance_correction,
        )
        chain = sampler.run(seed_tree, np.random.default_rng(21))
        expected_kernel = (
            "constant+correction" if importance_correction else "conditional"
        )
        assert chain.extras["proposal_kernel"] == expected_kernel
        est = maximize_demography(
            DemographyPooledLikelihood(chain.interval_matrix, ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=2.0),
        )
        assert est.theta == pytest.approx(1.0, rel=0.3)
        assert est.growth == pytest.approx(2.0, abs=0.8)

    @pytest.mark.parametrize("importance_correction", [True, False])
    def test_heated_flat_likelihood_recovers_growth_pair(self, importance_correction):
        seed_tree = simulate_genealogy(10, 1.0, np.random.default_rng(0))
        cfg = SamplerConfig(n_samples=1800, burn_in=300, thin=2)
        sampler = HeatedChainSampler(
            _FlatEngine(),
            1.0,
            temperatures=(1.0, 1.0 / 1.3),
            config=cfg,
            demography=ExponentialDemography(growth=2.0),
            importance_correction=importance_correction,
        )
        chain = sampler.run(seed_tree, np.random.default_rng(22))
        est = maximize_demography(
            DemographyPooledLikelihood(chain.interval_matrix, ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=2.0),
        )
        assert est.theta == pytest.approx(1.0, rel=0.35)
        assert est.growth == pytest.approx(2.0, abs=0.9)

    def test_constant_demography_keeps_plain_chains(self):
        lam = LamarcSampler(_FlatEngine(), 1.0, demography=ConstantDemography())
        assert lam._adjust is None and lam.resimulator.demography is None
        hot = HeatedChainSampler(
            _FlatEngine(), 1.0, demography=ExponentialDemography(growth=0.0)
        )
        assert hot._adjust is None and hot.resimulator.demography is None


# --------------------------------------------------------------------------- #
# Simulator: Λ-inverse time rescaling
# --------------------------------------------------------------------------- #


class TestDemographySimulator:
    def test_waiting_time_matches_growth_closed_form(self):
        dem = ExponentialDemography(growth=1.3)
        for k, t, e in [(5, 0.0, 0.7), (3, 0.4, 1.9), (2, 1.1, 0.2)]:
            generic = demography_waiting_time(k, t, 1.0, dem, e)
            closed = growth_waiting_time(k, t, 1.0, 1.3, e)
            assert generic == pytest.approx(closed, rel=1e-9)

    def test_constant_demography_reproduces_exponential_waits(self):
        dem = ConstantDemography()
        assert demography_waiting_time(4, 0.3, 2.0, dem, 1.0) == pytest.approx(
            2.0 / 12.0
        )

    def test_declining_population_may_never_coalesce(self):
        dem = ExponentialDemography(growth=-2.0)
        with pytest.raises(ValueError, match="hazard"):
            demography_waiting_time(2, 0.0, 1.0, dem, 50.0)

    @pytest.mark.parametrize(
        "dem",
        [
            ExponentialDemography(growth=2.0),
            BottleneckDemography(start=0.1, duration=0.3, strength=0.1),
            LogisticDemography(rate=5.0, midpoint=0.3, floor=0.2),
        ],
        ids=str,
    )
    def test_two_tip_tmrca_is_probability_integral_uniform(self, dem):
        """Time rescaling is exact: with 2 tips and θ, the TMRCA T satisfies
        U = 1 − exp(−2 Λ(T)/θ) ~ Uniform(0, 1)."""
        rng = np.random.default_rng(9)
        theta = 1.0
        draws = np.array(
            [
                float(simulate_demography_intervals(2, theta, dem, rng)[0])
                for _ in range(4000)
            ]
        )
        u = 1.0 - np.exp(
            -2.0 * np.asarray(dem.cumulative_intensity(draws), dtype=float) / theta
        )
        assert u.mean() == pytest.approx(0.5, abs=0.03)
        assert np.quantile(u, 0.25) == pytest.approx(0.25, abs=0.03)
        assert np.quantile(u, 0.75) == pytest.approx(0.75, abs=0.03)

    def test_growth_accelerates_coalescence(self):
        rng = np.random.default_rng(3)
        fast = ExponentialDemography(growth=3.0)
        tall = [
            simulate_demography_intervals(8, 1.0, ConstantDemography(), rng).sum()
            for _ in range(300)
        ]
        short = [
            simulate_demography_intervals(8, 1.0, fast, rng).sum() for _ in range(300)
        ]
        assert np.mean(short) < np.mean(tall)

    def test_full_genealogy_is_valid(self):
        dem = BottleneckDemography(start=0.05, duration=0.2, strength=0.1)
        tree = simulate_demography_genealogy(9, 1.0, dem, np.random.default_rng(4))
        assert tree.n_tips == 9
        tree.validate()


# --------------------------------------------------------------------------- #
# Config / API / CLI surface
# --------------------------------------------------------------------------- #


def _write_growth_locus(path, seed, n_tips=8, n_sites=120):
    rng = np.random.default_rng(seed)
    from repro.simulate.growth_sim import simulate_growth_genealogy

    tree = simulate_growth_genealogy(n_tips, 1.0, 2.0, rng)
    alignment = evolve_sequences(tree, n_sites, F84(), rng, scale=1.0)
    write_phylip(alignment, path)
    return alignment


class TestConfigSurface:
    def test_structured_demography_round_trip(self):
        cfg = MPCGSConfig(
            demography={"name": "bottleneck", "params": {"start": 0.2, "strength": 0.1}}
        )
        assert cfg.demography == "bottleneck"
        assert cfg.demography_params == {"start": 0.2, "strength": 0.1}
        assert MPCGSConfig.from_json(cfg.to_json()) == cfg
        model = cfg.demography_model()
        assert model.start == 0.2 and model.strength == 0.1 and model.duration == 0.1

    def test_growth0_and_params_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            MPCGSConfig(
                demography="growth", growth0=1.0, demography_params={"growth": 2.0}
            )

    def test_legacy_growth_string_builds_exponential_model(self):
        cfg = MPCGSConfig(demography="growth", growth0=1.5)
        model = cfg.demography_model()
        assert isinstance(model, ExponentialDemography)
        assert model.growth == 1.5

    def test_capability_check_is_shared_and_single_message(self):
        for sampler in ("multichain", "bayesian"):
            cfg = MPCGSConfig(sampler_name=sampler, demography="bottleneck")
            with pytest.raises(ValueError, match="growth-aware"):
                require_demography_support(cfg)
        # Capable samplers (including the corrected baselines) pass.
        for sampler in ("gmh", "lamarc", "heated"):
            require_demography_support(
                MPCGSConfig(sampler_name=sampler, demography="logistic")
            )
        # Constant demography never needs the capability.
        require_demography_support(MPCGSConfig(sampler_name="bayesian"))

    def test_experiment_rejects_incapable_sampler_for_any_demography(self, small_dataset):
        cfg = MPCGSConfig(sampler_name="multichain", demography="bottleneck")
        with pytest.raises(ValueError, match="growth-aware"):
            Experiment(small_dataset.alignment, cfg, theta0=0.5, seed=2)


class TestEndToEnd:
    def test_bottleneck_em_run_reports_params(self, small_dataset):
        cfg = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=10),
            n_em_iterations=2,
            demography="bottleneck",
        )
        report = Experiment(small_dataset.alignment, cfg, theta0=0.5, seed=3).run()
        assert report.growth is None
        assert set(report.demography_params) == {"start", "duration", "strength"}
        doc = json.loads(report.to_json())
        assert doc["demography_params"] == report.demography_params
        assert doc["diagnostics"]["demography"] == "bottleneck"
        for it in doc["diagnostics"]["iterations"]:
            assert "driving_params" in it and "params_estimate" in it

    def test_multilocus_experiment_via_spec(self, tmp_path):
        paths = [tmp_path / "locus1.phy", tmp_path / "locus2.phy"]
        for i, path in enumerate(paths):
            _write_growth_locus(path, seed=i + 1)
        spec = RunSpec(
            config=MPCGSConfig(
                sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=10),
                n_em_iterations=2,
                demography="growth",
            ),
            sequence_files=tuple(str(p) for p in paths),
            theta0=0.5,
            seed=5,
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        experiment = Experiment.from_spec(spec)
        # A path-built multi-locus experiment remembers its loci, so its
        # spec round-trips back into an equivalent experiment.
        round_tripped = experiment.spec()
        assert round_tripped.sequence_files == spec.sequence_files
        assert Experiment.from_spec(round_tripped).loci is not None
        report = experiment.run()
        assert report.diagnostics["mode"] == "multilocus"
        assert report.diagnostics["n_loci"] == 2
        assert np.isfinite(report.growth)

    def test_run_multilocus_accepts_constant_demography(self, tmp_path):
        paths = [tmp_path / "locus1.phy", tmp_path / "locus2.phy"]
        for i, path in enumerate(paths):
            _write_growth_locus(path, seed=i + 3)
        cfg = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=4, n_samples=25, burn_in=5),
            n_em_iterations=2,
        )
        from repro.sequences.phylip import read_phylip

        result = run_multilocus(
            [read_phylip(str(p)) for p in paths],
            cfg,
            theta0=0.5,
            rng=np.random.default_rng(2),
        )
        assert result.growth is None
        assert result.params == {}
        assert all(len(point) == 1 for point in result.trajectory)

    def test_cli_bottleneck_run_prints_demography_estimate(self, tmp_path, capsys):
        path = tmp_path / "data.phy"
        _write_growth_locus(path, seed=9, n_tips=6, n_sites=80)
        code = main(
            [
                "run",
                str(path),
                "0.5",
                "--demography",
                "bottleneck",
                "--demography-params",
                '{"strength": 0.2}',
                "--samples",
                "25",
                "--burn-in",
                "5",
                "--proposals",
                "4",
                "--em-iterations",
                "1",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "demography=bottleneck" in out
        assert "demography estimate (bottleneck):" in out

    def test_cli_loci_run(self, tmp_path, capsys):
        paths = [tmp_path / "l1.phy", tmp_path / "l2.phy"]
        for i, path in enumerate(paths):
            _write_growth_locus(path, seed=i + 5, n_tips=6, n_sites=80)
        code = main(
            [
                "run",
                "--loci",
                *[str(p) for p in paths],
                "0.5",
                "--demography",
                "growth",
                "--samples",
                "25",
                "--burn-in",
                "5",
                "--proposals",
                "4",
                "--em-iterations",
                "1",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2 loci" in out
        assert "growth estimate:" in out

    def test_cli_info_json_lists_four_registries(self, capsys):
        assert main(["info", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for section in ("samplers", "engines", "models", "demographies"):
            assert doc[section], f"empty registry section {section}"
        assert "bottleneck" in doc["demographies"]

    def test_cli_demography_params_bad_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "data.phy"
        _write_growth_locus(path, seed=13, n_tips=6, n_sites=80)
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    str(path),
                    "0.5",
                    "--demography",
                    "bottleneck",
                    "--demography-params",
                    "{not json",
                ]
            )
        assert "JSON" in capsys.readouterr().err
