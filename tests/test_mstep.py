"""The EM M-step: prior terms, memoized surfaces, the profile maximizer, and
the demography EM goldens.

Every demography's batched prior is ``n·log(2/θ) + event_sum − exposure/θ``
with θ-free ``(event_sum, exposure)`` from :meth:`Demography.prior_terms`;
the likelihood surfaces memoize those terms per parameter vector.  The
contract is bit-identity: every value equals the direct per-point formula
each model used before the terms existed (written out below as references),
and the surfaces' vectorized θ axis (``log_curve``, ``theta_derivatives``)
equals their scalar ``log_likelihood``.  The M-step solves θ̂(params) from
that axis and ascends the parameters' profile; it is checked against log L
values the coordinate ascent it replaced reached on ridge and bimodal
surfaces.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EstimatorConfig, MPCGSConfig, SamplerConfig
from repro.core.estimator import (
    RelativeLikelihood,
    _solve_theta,
    _theta_grid,
    maximize_demography,
)
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
    CombinedDemographyLikelihood,
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)
from repro.likelihood.growth_prior import _growth_integral, batched_log_growth_prior
from repro.likelihood.logspace import LOG_ZERO, log_mean
from repro.service.events import EM_ITERATION_COMPLETED
from repro.simulate.datasets import synthesize_dataset
from repro.simulate.demography_sim import simulate_demography_intervals

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
# The surfaces' θ axis: log_curve and theta_derivatives
# --------------------------------------------------------------------------- #

AXIS_DEMOGRAPHIES = {
    "constant": ConstantDemography(),
    "exponential": ExponentialDemography(growth=1.5),
    "bottleneck": BottleneckDemography(start=0.1, duration=0.2, strength=0.1),
}
AXIS_SURFACES = ("relative", "pooled", "combined")


def _axis_surface(kind: str, name: str):
    dem = AXIS_DEMOGRAPHIES[name]
    rng = np.random.default_rng(17)
    mat = np.vstack([simulate_demography_intervals(10, 1.0, dem, rng) for _ in range(150)])
    if kind == "relative":
        return DemographyRelativeLikelihood(mat, dem, 1.0), dem
    if kind == "pooled":
        return DemographyPooledLikelihood(mat, dem), dem
    return (
        CombinedDemographyLikelihood(
            [DemographyRelativeLikelihood(mat[:75], dem, 1.0), DemographyPooledLikelihood(mat[75:], dem)]
        ),
        dem,
    )


def _param_points(dem):
    """The driving vector (as ``None``) and a moved one."""
    return [None, dem.param_values() * 1.1 + 0.01]


@pytest.mark.parametrize("name", sorted(AXIS_DEMOGRAPHIES))
@pytest.mark.parametrize("kind", AXIS_SURFACES)
class TestThetaAxis:
    def test_log_curve_is_bit_identical_to_log_likelihood(self, kind, name):
        surface, dem = _axis_surface(kind, name)
        thetas = np.geomspace(0.05, 20.0, 41)
        for params in _param_points(dem):
            curve = surface.log_curve(thetas, params)
            assert curve.shape == thetas.shape
            for theta, value in zip(thetas, curve):
                assert value == surface.log_likelihood(float(theta), params)

    def test_derivatives_match_central_differences(self, kind, name):
        surface, dem = _axis_surface(kind, name)
        for params in _param_points(dem):
            for theta in (0.3, 0.7, 1.6, 4.0):
                value, d1, d2 = surface.theta_derivatives(theta, params)
                assert value == surface.log_likelihood(theta, params)
                h = 1e-5 * theta
                f_hi = surface.log_likelihood(theta + h, params)
                f_lo = surface.log_likelihood(theta - h, params)
                g_hi = surface.theta_derivatives(theta + h, params)[1]
                g_lo = surface.theta_derivatives(theta - h, params)[1]
                # Relative to the size of one interval's term (n/θ, n/θ²),
                # so a derivative passing through zero is still compared.
                n = 9
                assert abs(d1 - (f_hi - f_lo) / (2 * h)) <= 1e-6 * max(abs(d1), n / theta)
                assert abs(d2 - (g_hi - g_lo) / (2 * h)) <= 1e-6 * max(abs(d2), n / theta**2)

    def test_theta_hat_clamps_to_each_trust_region_end(self, kind, name):
        surface, dem = _axis_surface(kind, name)
        for params in _param_points(dem):
            # The maximizer (near θ = 1) lies above the first interval and
            # below the second: θ̂ is exactly the nearer end, and log L there.
            for lo, hi, end in ((0.01, 0.02, 0.02), (30.0, 60.0, 30.0)):
                theta, value = _solve_theta(surface, params, _theta_grid((lo, hi)), 1.0)
                assert theta == end
                assert value == surface.log_likelihood(end, params)

    def test_theta_hat_is_a_stationary_point_inside_the_region(self, kind, name):
        surface, dem = _axis_surface(kind, name)
        for params in _param_points(dem):
            theta, value = _solve_theta(surface, params, _theta_grid((1 / 3, 3.0)), 1.0)
            assert 1 / 3 < theta < 3.0
            assert value == surface.log_likelihood(theta, params)
            _, d1, d2 = surface.theta_derivatives(theta, params)
            assert d2 < 0
            assert abs(d1) <= 1e-6 * abs(d2) * theta
            grid = np.geomspace(1 / 3, 3.0, 401)
            assert value >= surface.log_curve(grid, params).max()


def _all_minus_inf_surfaces():
    """Exponential surfaces whose every θ is -inf at g = 5 (exposure past the cap)."""
    mat = np.array([[280.0, 10.0], [300.0, 12.0]])
    dem = ExponentialDemography(growth=2.0)
    relative = DemographyRelativeLikelihood(mat[:1], dem, 1.0)
    pooled = DemographyPooledLikelihood(mat, dem)
    return {
        "relative": relative,
        "pooled": pooled,
        "combined": CombinedDemographyLikelihood([relative, pooled]),
    }


@pytest.mark.parametrize("kind", AXIS_SURFACES)
def test_all_minus_inf_surface_is_minus_inf_without_warnings(kind):
    surface = _all_minus_inf_surfaces()[kind]
    params = np.array([5.0])
    grid = _theta_grid((1 / 3, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(surface.log_curve(grid, params) == -np.inf)
        value, d1, d2 = surface.theta_derivatives(1.0, params)
        assert value == -np.inf and np.isnan(d1) and np.isnan(d2)
        assert _solve_theta(surface, params, grid, 1.0) == (1.0, -np.inf)


# --------------------------------------------------------------------------- #
# The profile M-step on ridge and bimodal surfaces
# --------------------------------------------------------------------------- #

# log L the coordinate ascent that preceded the profile M-step reached on
# the synthetic sweep's surfaces below.  It stopped unconverged at the
# iteration budget on every seed but 36, creeping along the θ–g ridge; seed
# 36 is bimodal in θ, and its maximum (θ ≈ 0.294, g ≈ 4.13) is on the mode
# away from the driving θ.
_COORDINATE_ASCENT_LOG_L = {
    2: 0.22134990388392772,
    5: 0.0272140567560335,
    10: 0.04027796950382179,
    13: 0.06554030066194727,
    14: 0.07346955282087997,
    22: 0.10264078820760769,
    26: 0.8961951597349902,
    31: 0.020182484860795213,
    33: 0.04941907078360508,
    36: 1.9001837739891085,
}


def _sweep_surface(seed: int):
    """The synthetic sweep's surface for ``seed`` and its driving point."""
    rng = np.random.default_rng(seed)
    growth0 = rng.uniform(0.5, 4)
    theta0 = rng.uniform(0.3, 1.5)
    dem = ExponentialDemography(growth0)
    mat = np.vstack([simulate_demography_intervals(16, theta0, dem, rng) for _ in range(100)])
    return DemographyRelativeLikelihood(mat, dem, theta0), theta0, dem


class TestProfileMStep:
    @pytest.mark.parametrize("seed", sorted(_COORDINATE_ASCENT_LOG_L))
    def test_converges_at_or_above_the_coordinate_ascent(self, seed):
        surface, theta0, dem = _sweep_surface(seed)
        est = maximize_demography(surface, theta0, dem, EstimatorConfig())
        assert est.converged
        assert est.log_relative_likelihood >= _COORDINATE_ASCENT_LOG_L[seed] - 1e-9
        assert est.log_relative_likelihood == surface.log_likelihood(est.theta, est.params)
        if seed == 36:
            assert est.theta == pytest.approx(0.294, abs=1e-3)
            assert est.growth == pytest.approx(4.13, abs=1e-2)

    def test_parameter_free_demography_is_theta_hat_alone(self):
        surface, _ = _axis_surface("relative", "constant")
        est = maximize_demography(surface, 1.0, ConstantDemography())
        assert est.converged and est.n_iterations == 1 and est.params == ()
        assert (est.theta, est.log_relative_likelihood) == _solve_theta(
            surface, None, _theta_grid((1 / 3, 3.0)), 1.0
        )

    def test_boundary_maximum_is_projected_onto_the_trust_region(self):
        # Genealogies simulated at g = 3 driven from g = 0 with a 0.5 step:
        # the profile rises across the whole trust interval.
        rng = np.random.default_rng(8)
        mat = np.vstack(
            [simulate_demography_intervals(12, 1.0, ExponentialDemography(3.0), rng) for _ in range(300)]
        )
        dem = ExponentialDemography(growth=0.0)
        cfg = EstimatorConfig(max_growth_step=0.5)
        est = maximize_demography(DemographyPooledLikelihood(mat, dem), 1.0, dem, cfg)
        assert est.converged
        assert est.growth == 0.5


# --------------------------------------------------------------------------- #
# The demography EM loop: goldens and M-step telemetry
# --------------------------------------------------------------------------- #

# θ/params trajectories of the profile-likelihood M-step (θ̂(params) solved
# exactly, Newton steps in the parameters): SHA-256 of the float64 rows
# (driving θ, *driving params) per EM iteration plus the final (θ, *params).
_EM_GOLDEN = {
    "exponential": "eb9cdd5894fa515dfeb96379d7522a1c55215d17a887fb46d198eab905e7b7ba",
    "bottleneck": "d84304cf10b2ce37757a8aaf029b348b6298ec03536fc946ef14c156de3835a2",
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
                assert payload["m_step_converged"] is True
                assert payload["m_step_iterations"] >= 1
            runs.append(
                [
                    (p["m_step_surface_evals"], p["m_step_converged"], p["m_step_iterations"])
                    for p in done
                ]
            )
        assert runs[0] == runs[1]
