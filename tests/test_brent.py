"""The in-repo Brent root-finder against ``scipy.optimize.brentq`` as oracle.

:func:`repro.brent.brentq` is a line-for-line port of scipy's C ``brentq``;
every root it returns must be bit-identical to scipy's, and every error path
must raise the same exception type.  scipy is only a test dependency here.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.brent import brentq
from repro.proposals.kinetics import IntervalKinetics, _nearly_equal

scipy_optimize = pytest.importorskip("scipy.optimize")


def _outcome(solver, f, a, b, **kwargs):
    try:
        return solver(f, a, b, **kwargs)
    except (ValueError, RuntimeError, TypeError) as err:
        return type(err)


def assert_same(f, a, b, **kwargs):
    """Both solvers return the same float, bit for bit, or raise the same type."""
    ours = _outcome(brentq, f, a, b, **kwargs)
    theirs = _outcome(scipy_optimize.brentq, f, a, b, **kwargs)
    if isinstance(theirs, type):
        assert ours is theirs
    else:
        assert type(ours) is float
        assert ours.hex() == theirs.hex()
    return ours


def assert_same_cdf_inversion(kinetics: IntervalKinetics, span: float, u: float):
    """The inversion ``cdf(τ) = u·total`` exactly as the kinetics samplers call it."""
    cdf, total = kinetics._double_merge_cdf(span)
    assume(total > 0.0)
    target = u * total
    assume(cdf(span) > target)  # at or above the ceiling the samplers skip the root-find
    root = assert_same(lambda t: cdf(t) - target, 0.0, span, xtol=1e-14 * max(span, 1.0))
    assert 0.0 <= root <= span


unit_open = st.floats(min_value=1e-12, max_value=1.0, exclude_max=True)


class TestDoubleMergeCdf:
    @given(
        n_inactive=st.integers(min_value=0, max_value=8),
        log_theta=st.floats(min_value=-3.0, max_value=3.0),
        log_span=st.floats(min_value=-6.0, max_value=3.0),
        u=unit_open,
    )
    @settings(max_examples=300, deadline=None)
    def test_general_branch(self, n_inactive, log_theta, log_span, u):
        kinetics = IntervalKinetics(n_inactive=n_inactive, theta=10.0**log_theta)
        assume(not _nearly_equal(kinetics.exit_rate(2), kinetics.exit_rate(1)))
        assert_same_cdf_inversion(kinetics, 10.0**log_span, u)

    @given(
        n_inactive=st.integers(min_value=0, max_value=3),
        log_theta=st.floats(min_value=13.0, max_value=16.0),
        log_span=st.floats(min_value=-3.0, max_value=6.0),
        u=unit_open,
    )
    @settings(max_examples=200, deadline=None)
    def test_nearly_equal_rates_branch(self, n_inactive, log_theta, log_span, u):
        # ρ₂ − ρ₁ = 2(1 + k)/θ, so only a huge θ takes the ρ₂ ≈ ρ₁ branch.
        kinetics = IntervalKinetics(n_inactive=n_inactive, theta=10.0**log_theta)
        assert _nearly_equal(kinetics.exit_rate(2), kinetics.exit_rate(1))
        assert_same_cdf_inversion(kinetics, 10.0**log_span, u)

    @pytest.mark.parametrize(
        "n_inactive, theta, span, u",
        [
            (3, 0.14582612633403053, 7.253051181989155, 0.0021060533511106927),
            (2, 0.5091998416492236, 45.881118531452536, 0.45330967762221785),
        ],
    )
    def test_flat_cdf_extrapolation_step(self, n_inactive, theta, span, u):
        # Near the root cdf(t) − target repeats exactly, so an extrapolation
        # step divides 0.0 by -0.0: C bisects where Python would raise.
        cdf, total = IntervalKinetics(n_inactive=n_inactive, theta=theta)._double_merge_cdf(span)
        target = u * total
        assert_same(lambda t: cdf(t) - target, 0.0, span, xtol=1e-14 * max(span, 1.0))

    @given(
        n_inactive=st.integers(min_value=0, max_value=8),
        log_theta=st.floats(min_value=-2.0, max_value=2.0),
        log_span=st.floats(min_value=-4.0, max_value=3.0),
        log_gap=st.floats(min_value=-16.0, max_value=-1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_targets_near_the_ceiling(self, n_inactive, log_theta, log_span, log_gap):
        kinetics = IntervalKinetics(n_inactive=n_inactive, theta=10.0**log_theta)
        assert_same_cdf_inversion(kinetics, 10.0**log_span, 1.0 - 10.0**log_gap)


class TestGenericFunctions:
    @given(
        root=st.floats(min_value=-50.0, max_value=50.0),
        left=st.floats(min_value=1e-9, max_value=100.0),
        right=st.floats(min_value=1e-9, max_value=100.0),
        power=st.sampled_from([1, 3, 5, 7]),
        scale=st.floats(min_value=1e-6, max_value=1e6),
        slope=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_monotone_functions(self, root, left, right, power, scale, slope):
        def f(x):
            d = x - root
            return scale * d**power + slope * math.tanh(d)

        assert_same(f, root - left, root + right)
        assert_same(lambda x: -f(x), root - left, root + right)

    @given(
        rate=st.floats(min_value=1e-3, max_value=50.0),
        level=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
        hi=st.floats(min_value=1.0, max_value=1e4),
        xtol=st.sampled_from([2e-12, 1e-14, 1e-6, 1e-3]),
    )
    @settings(max_examples=300, deadline=None)
    def test_exponential_cdfs_and_tolerances(self, rate, level, hi, xtol):
        f = lambda t: -math.expm1(-rate * t) - level  # noqa: E731
        assume(f(hi) > 0.0)
        assert_same(f, 0.0, hi, xtol=xtol)

    def test_exact_zero_at_an_endpoint(self):
        assert assert_same(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert assert_same(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_reversed_bracket_and_integer_endpoints(self):
        assert assert_same(lambda x: x * x - 2.0, 2, 0) == pytest.approx(math.sqrt(2.0))

    def test_infinite_endpoint_value(self):
        assert_same(lambda x: -math.inf if x == 0.0 else x - 1.0, 0.0, 2.0)

    def test_flat_step_function(self):
        assert_same(lambda x: float(math.floor(3.0 * x) - 4), 0.0, 5.0)


class TestErrorPaths:
    def test_same_sign(self):
        assert assert_same(lambda x: x * x + 1.0, -1.0, 1.0) is ValueError
        assert assert_same(lambda x: x - 5.0, -1.0, 1.0) is ValueError

    def test_negative_zero_counts_by_sign_bit(self):
        # -0.0 == 0 returns the endpoint; only non-zero values compare sign bits.
        assert_same(lambda x: -0.0 if x == 0.0 else x - 1.0, 0.0, 2.0)

    def test_nan_at_an_endpoint(self):
        assert assert_same(lambda x: math.nan, 0.0, 1.0) is ValueError
        assert assert_same(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0) is ValueError

    def test_nan_inside_the_bracket(self):
        f = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5  # noqa: E731
        assert assert_same(f, 0.0, 1.0) is ValueError

    @pytest.mark.parametrize("maxiter", [0, 1, 2, 3])
    def test_small_maxiter(self, maxiter):
        assert assert_same(lambda x: math.expm1(x) - 0.3, 0.0, 2.0, maxiter=maxiter) is RuntimeError

    def test_negative_maxiter(self):
        assert assert_same(lambda x: x, -1.0, 1.0, maxiter=-1) is ValueError

    def test_non_integer_maxiter(self):
        assert assert_same(lambda x: x, -1.0, 1.0, maxiter=2.0) is TypeError

    @pytest.mark.parametrize("xtol", [0.0, -1e-12])
    def test_bad_xtol(self, xtol):
        assert assert_same(lambda x: x, -1.0, 1.0, xtol=xtol) is ValueError

    def test_bad_rtol(self):
        assert assert_same(lambda x: x, -1.0, 1.0, rtol=1e-17) is ValueError
        assert_same(lambda x: x - 0.25, -1.0, 1.0, rtol=4 * 2.220446049250313e-16)
