"""The EM M-step: prior terms, memoized surfaces, and the demography EM goldens.

Every demography's batched prior is ``n·log(2/θ) + event_sum − exposure/θ``
with θ-free ``(event_sum, exposure)`` from :meth:`Demography.prior_terms`;
the likelihood surfaces memoize those terms per parameter vector.  The
contract is bit-identity: every value equals the direct per-point formula
each model used before the terms existed (written out below as references),
so the M-step ascent and the EM trajectories do not move.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MPCGSConfig, SamplerConfig
from repro.core.estimator import RelativeLikelihood
from repro.core.mpcgs import MPCGS
from repro.demography import (
    BottleneckDemography,
    ConstantDemography,
    ExponentialDemography,
    LogisticDemography,
)
from repro.demography.base import Demography, IntervalTimes, prior_ratio_adjustment
from repro.likelihood.demography_prior import (
    _TERMS_MEMO_SIZE,
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)
from repro.likelihood.growth_prior import (
    GrowthPooledLikelihood,
    GrowthRelativeLikelihood,
    _growth_integral,
    batched_log_growth_prior,
)
from repro.likelihood.logspace import LOG_ZERO, log_mean
from repro.service.events import EM_ITERATION_COMPLETED
from repro.simulate.datasets import synthesize_dataset

# --------------------------------------------------------------------------- #
# Reference formulas: each model's direct per-point prior
# --------------------------------------------------------------------------- #


def _coeff(n_intervals: int) -> np.ndarray:
    lineages = (n_intervals + 1) - np.arange(n_intervals)
    return lineages * (lineages - 1)


def ref_constant(mat: np.ndarray, theta: float) -> np.ndarray:
    thetas = np.asarray([theta])
    weighted = mat @ _coeff(mat.shape[1])
    return (mat.shape[1] * np.log(2.0 / thetas)[None, :] - weighted[:, None] / thetas[None, :])[:, 0]


def ref_growth(mat: np.ndarray, theta: float, growth: float) -> np.ndarray:
    """The exponential prior through the growth integral (g = 0 included)."""
    n_intervals = mat.shape[1]
    coeff = _coeff(n_intervals).astype(float)
    ends = np.cumsum(mat, axis=-1)
    starts = ends - mat
    exposure = (_growth_integral(starts, ends, float(growth)) * coeff[None, :]).sum(axis=1)
    event_time_term = float(growth) * ends.sum(axis=1)
    theta = np.asarray([theta])[0]
    return n_intervals * np.log(2.0 / theta) + event_time_term - exposure / theta


def ref_generic(dem: Demography, mat: np.ndarray, theta: float) -> np.ndarray:
    n_intervals = mat.shape[1]
    coeff = _coeff(n_intervals).astype(float)
    ends = np.cumsum(mat, axis=1)
    starts = ends - mat
    event_term = n_intervals * np.log(2.0 / theta) + dem.log_intensity(ends).sum(axis=1)
    exposure = (dem.integrated_intensity(starts, ends) * coeff[None, :]).sum(axis=1)
    return event_term - exposure / theta


def ref_prior(dem: Demography, mat: np.ndarray, theta: float) -> np.ndarray:
    if isinstance(dem, ConstantDemography):
        return ref_constant(mat, theta)
    if isinstance(dem, ExponentialDemography):
        if dem.growth == 0.0:
            return ref_constant(mat, theta)
        return ref_growth(mat, theta, dem.growth)
    return ref_generic(dem, mat, theta)


def ref_relative(dem, dem0, mat, theta, theta0) -> float:
    # log_mean is pinned bitwise to its general path in test_logspace.py.
    out = log_mean(ref_prior(dem, mat, theta) - ref_prior(dem0, mat, theta0))
    return -np.inf if out <= LOG_ZERO / 2 else out


def same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

growths = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=-1e-12, max_value=1e-12, allow_nan=False),
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.floats(min_value=500.0, max_value=5000.0),  # past the _EXP_CAP cliff
)
thetas = st.floats(min_value=1e-3, max_value=50.0)


def _matrix(seed: int, n_samples: int, n_intervals: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scale = rng.choice([1e-3, 0.1, 1.0, 3.0])
    return rng.exponential(scale, size=(n_samples, n_intervals))


matrices = st.builds(
    _matrix,
    st.integers(0, 2**32 - 1),
    st.integers(1, 24),
    st.integers(1, 14),
)


@st.composite
def demographies(draw, name: str):
    if name == "constant":
        return ConstantDemography()
    if name == "exponential":
        return ExponentialDemography(growth=draw(growths))
    if name == "bottleneck":
        return BottleneckDemography(
            start=draw(st.floats(1e-3, 2.0)),
            duration=draw(st.floats(0.0, 2.0)),
            strength=draw(st.floats(1e-3, 5.0)),
        )
    return LogisticDemography(
        rate=draw(st.floats(1e-3, 20.0)),
        midpoint=draw(st.floats(0.0, 2.0)),
        floor=draw(st.floats(1e-3, 5.0)),
    )


MODELS = ("constant", "exponential", "bottleneck", "logistic")


# --------------------------------------------------------------------------- #
# prior_terms / batched_log_prior
# --------------------------------------------------------------------------- #


class TestPriorTerms:
    @pytest.mark.parametrize("name", MODELS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), mat=matrices, theta=thetas)
    def test_batched_log_prior_is_bit_identical(self, name, data, mat, theta):
        dem = data.draw(demographies(name))
        got = dem.batched_log_prior(mat, theta)
        want = ref_prior(dem, mat, theta)
        assert np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(mat=matrices, growth=growths, theta_list=st.lists(thetas, min_size=1, max_size=3))
    def test_growth_grid_is_bit_identical(self, mat, growth, theta_list):
        got = batched_log_growth_prior(mat, theta_list, [growth, 0.0])
        for ti, theta in enumerate(theta_list):
            assert np.array_equal(got[:, ti, 0], ref_growth(mat, theta, growth), equal_nan=True)
            assert np.array_equal(got[:, ti, 1], ref_growth(mat, theta, 0.0))

    def test_constant_terms_have_no_event_sum(self):
        times = IntervalTimes(np.array([[0.1, 0.2, 0.3]]))
        for dem in (ConstantDemography(), ExponentialDemography(growth=0.0)):
            event_sum, exposure = dem.prior_terms(times)
            assert event_sum is None
            assert exposure.tolist() == [12 * 0.1 + 6 * 0.2 + 2 * 0.3]

    def test_exp_cap_cliff_is_minus_inf(self):
        mat = np.array([[0.5, 0.5], [1.0, 1.0]])
        # g * t_end >= 700 for every row's last interval.
        for growth in (700.0, 1e4):
            prior = ExponentialDemography(growth=growth).batched_log_prior(mat, 1.0)
            assert np.all(prior == -np.inf)
        surface = DemographyRelativeLikelihood(mat, ExponentialDemography(growth=1.0), 1.0)
        assert surface.log_likelihood(1.0, np.array([1e4])) == -np.inf
        assert np.isfinite(surface.log_likelihood(1.0, np.array([1.0])))

    def test_prior_ratio_adjustment_matches_prior_difference(self, tiny_tree):
        dem = BottleneckDemography(start=0.05, duration=0.3, strength=0.2)
        mat = np.vstack([tiny_tree.interval_representation()] * 2)
        got = prior_ratio_adjustment(dem, 0.7)([tiny_tree, tiny_tree])
        assert np.array_equal(got, ref_generic(dem, mat, 0.7) - ref_constant(mat, 0.7))


# --------------------------------------------------------------------------- #
# Memoized surfaces
# --------------------------------------------------------------------------- #


def _param_vectors(draw, name: str, n: int):
    return [draw(demographies(name)).param_values() for _ in range(n)]


class TestMemoizedSurfaces:
    # A driving point past the growth cliff has log prior -inf, and the
    # ratio -inf - -inf is NaN in the reference as in the surface.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    @pytest.mark.parametrize("name", MODELS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), mat=matrices, theta0=thetas)
    def test_relative_likelihood_is_bit_identical(self, name, data, mat, theta0):
        dem0 = data.draw(demographies(name))
        surface = DemographyRelativeLikelihood(mat, dem0, theta0)
        # Each vector is visited twice, so memo misses and hits are both
        # compared against the reference.
        vectors = _param_vectors(data.draw, name, 3) + [None]
        for params in vectors + vectors[::-1]:
            dem = dem0 if params is None else dem0.with_param_values(params)
            for theta in (theta0, data.draw(thetas)):
                got = surface.log_likelihood(theta, params)
                assert same(got, ref_relative(dem, dem0, mat, theta, theta0))

    @pytest.mark.parametrize("name", MODELS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), mat=matrices)
    def test_pooled_likelihood_is_bit_identical(self, name, data, mat):
        dem0 = data.draw(demographies(name))
        surface = DemographyPooledLikelihood(mat, dem0)
        for params in _param_vectors(data.draw, name, 2) + [None]:
            dem = dem0 if params is None else dem0.with_param_values(params)
            theta = data.draw(thetas)
            want = float(np.mean(ref_prior(dem, mat, theta)))
            assert same(surface.log_likelihood(theta, params), want)

    def test_growth_grid_surfaces_use_growth_terms(self):
        mat = _matrix(5, 12, 6)
        relative = GrowthRelativeLikelihood(mat, driving_theta=0.8, driving_growth=0.5)
        pooled = GrowthPooledLikelihood(mat)
        thetas_, growths_ = np.array([0.5, 1.0]), np.array([-1.0, 0.0, 2.0])
        grid = batched_log_growth_prior(mat, thetas_, growths_)
        assert np.array_equal(pooled.log_surface(thetas_, growths_), grid.mean(axis=0))
        log_ratios = grid - ref_growth(mat, 0.8, 0.5)[:, None, None]
        peak = log_ratios.max(axis=0)
        want = peak + np.log(np.mean(np.exp(log_ratios - peak[None, :, :]), axis=0))
        assert np.array_equal(relative.log_surface(thetas_, growths_), want)

    def test_memo_is_bounded_and_builds_demographies_only_on_misses(self, monkeypatch):
        built = []
        original = Demography.with_param_values

        def counting(self, values):
            built.append(np.asarray(values, dtype=float).copy())
            return original(self, values)

        monkeypatch.setattr(Demography, "with_param_values", counting)
        surface = DemographyRelativeLikelihood(
            _matrix(3, 10, 5), ExponentialDemography(growth=0.3), 1.0
        )
        for theta in np.linspace(0.5, 2.0, 20):
            surface.log_likelihood(theta, np.array([0.7]))
            surface.log_likelihood(theta)
        assert len(built) == 1  # one miss for g = 0.7; the driving g never builds
        for g in np.linspace(-1.0, 1.0, 3 * _TERMS_MEMO_SIZE):
            surface.log_likelihood(1.0, np.array([g]))
        assert len(surface._memo._entries) == _TERMS_MEMO_SIZE
        assert surface.n_evaluations == 40 + 3 * _TERMS_MEMO_SIZE


class TestConstantRelativeLikelihood:
    @settings(max_examples=60, deadline=None)
    @given(mat=matrices, theta0=thetas, theta_list=st.lists(thetas, min_size=1, max_size=4))
    def test_curve_is_bit_identical(self, mat, theta0, theta_list):
        surface = RelativeLikelihood(mat, theta0)

        def want(thetas_):
            n, coeff = mat.shape[1], _coeff(mat.shape[1])
            prior = n * np.log(2.0 / thetas_)[None, :] - (mat @ coeff)[:, None] / thetas_[None, :]
            log_ratios = prior - ref_constant(mat, theta0)[:, None]
            peak = log_ratios.max(axis=0)
            return peak + np.log(np.mean(np.exp(log_ratios - peak[None, :]), axis=0))

        assert np.array_equal(surface.log_curve(theta_list), want(np.asarray(theta_list)))
        assert surface.log_likelihood(theta_list[0]) == want(np.asarray(theta_list[:1]))[0]


# --------------------------------------------------------------------------- #
# The demography EM loop: goldens and M-step telemetry
# --------------------------------------------------------------------------- #

# θ/params trajectories recorded before the surfaces switched to prior
# terms: SHA-256 of the float64 rows (driving θ, *driving params) per EM
# iteration plus the final (θ, *params).
_EM_GOLDEN = {
    "exponential": "1e078a2135eb5b92bd4ca71eb51b0ed7182adcddeee4306f8f201c3de7d66ca7",
    "bottleneck": "f828d4f220568f1ebf51228f383e57d6d0ee5bc805b1403d7a510965166eca9d",
}


def _em_run(demography: str, events=None):
    dataset = synthesize_dataset(8, 100, true_theta=1.0, rng=np.random.default_rng(41))
    cfg = MPCGSConfig(
        sampler=SamplerConfig(n_proposals=4, n_samples=60, burn_in=10),
        n_em_iterations=3,
        demography=demography,
    )
    on_event = events.append if events is not None else None
    return MPCGS(dataset.alignment, cfg).run(0.5, np.random.default_rng(43), on_event=on_event)


class TestDemographyEMGolden:
    @pytest.mark.parametrize("demography", sorted(_EM_GOLDEN))
    def test_fixed_seed_trajectory_is_bit_identical(self, demography):
        result = _em_run(demography)
        rows = [[it.driving_theta, *it.driving_params.values()] for it in result.iterations]
        rows.append([result.theta, *result.demography_params.values()])
        digest = hashlib.sha256(np.asarray(rows, dtype=float).tobytes()).hexdigest()
        assert digest == _EM_GOLDEN[demography]


class TestMStepTelemetry:
    @pytest.mark.parametrize("demography", ["constant", "exponential"])
    def test_iteration_events_carry_deterministic_m_step_counts(self, demography):
        runs = []
        for _ in range(2):
            events = []
            _em_run(demography, events)
            done = [e.payload for e in events if e.kind == EM_ITERATION_COMPLETED]
            assert done
            for payload in done:
                assert payload["m_step_seconds"] >= 0.0
                assert payload["m_step_surface_evals"] > 0
            runs.append([payload["m_step_surface_evals"] for payload in done])
        assert runs[0] == runs[1]
