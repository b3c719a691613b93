"""Tests for log-space arithmetic (underflow avoidance, Section 5.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.likelihood.logspace import (
    LOG_ZERO,
    LogAccumulator,
    log_add,
    log_cumsum,
    log_mean,
    log_normalize,
    log_sub,
    log_sum,
    log_weighted_mean,
    safe_exp,
    safe_log,
)

finite_logs = st.floats(min_value=-600.0, max_value=600.0, allow_nan=False)


class TestScalarOps:
    def test_log_add_matches_direct(self):
        assert log_add(np.log(2.0), np.log(3.0)) == pytest.approx(np.log(5.0))

    def test_log_add_with_log_zero_identity(self):
        assert log_add(LOG_ZERO, np.log(4.0)) == pytest.approx(np.log(4.0))
        assert log_add(np.log(4.0), LOG_ZERO) == pytest.approx(np.log(4.0))

    def test_log_add_extreme_magnitudes_no_overflow(self):
        # exp(800) overflows a double; the log-space sum must not.
        result = log_add(800.0, 800.0)
        assert result == pytest.approx(800.0 + np.log(2.0))

    def test_log_add_vastly_different_magnitudes(self):
        assert log_add(0.0, -800.0) == pytest.approx(0.0)

    def test_log_sub_matches_direct(self):
        assert log_sub(np.log(5.0), np.log(3.0)) == pytest.approx(np.log(2.0))

    def test_log_sub_equal_returns_log_zero(self):
        assert log_sub(1.5, 1.5) == LOG_ZERO

    def test_log_sub_rejects_negative_result(self):
        with pytest.raises(ValueError):
            log_sub(np.log(2.0), np.log(3.0))

    @given(a=finite_logs, b=finite_logs)
    @settings(max_examples=100)
    def test_log_add_commutative(self, a, b):
        assert log_add(a, b) == pytest.approx(log_add(b, a))

    @given(a=finite_logs, b=finite_logs)
    @settings(max_examples=100)
    def test_log_add_greater_than_either_operand(self, a, b):
        # log(x + y) >= max(log x, log y) for positive x, y.
        assert log_add(a, b) >= max(a, b) - 1e-12

    @given(a=finite_logs, b=finite_logs)
    @settings(max_examples=100)
    def test_add_then_sub_roundtrip(self, a, b):
        # The roundtrip loses precision when the operands differ by many
        # orders of magnitude (x + y == x in double precision), so only
        # comparable magnitudes are checked.
        if abs(a - b) > 20:
            return
        total = log_add(a, b)
        # Recovering the smaller operand cancels e^{|a-b|} of the total's
        # magnitude, so the representation error of `total` (an ulp of its
        # own size) is amplified by the same factor; a flat tolerance is an
        # ulp too tight right at the |a-b| = 20 guard (hypothesis found
        # a=-221, b=-201 off by 5.5e-6 against a flat 1e-6).
        tol = max(
            1e-9, 8 * np.finfo(float).eps * max(1.0, abs(total)) * np.exp(abs(a - b))
        )
        assert log_sub(total, b) == pytest.approx(a, abs=tol)


class TestReductions:
    def test_log_sum_matches_numpy(self):
        values = np.array([0.1, 0.5, 2.0, 7.0])
        assert log_sum(np.log(values)) == pytest.approx(np.log(values.sum()))

    def test_log_sum_empty_is_log_zero(self):
        assert log_sum(np.array([])) == LOG_ZERO

    def test_log_sum_all_log_zero(self):
        assert log_sum(np.full(5, LOG_ZERO)) == LOG_ZERO

    def test_log_sum_axis(self):
        arr = np.log(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = log_sum(arr, axis=1)
        assert out == pytest.approx(np.log([3.0, 7.0]))

    def test_log_mean(self):
        values = np.array([1.0, 3.0])
        assert log_mean(np.log(values)) == pytest.approx(np.log(2.0))

    def test_log_mean_empty_raises(self):
        with pytest.raises(ValueError):
            log_mean(np.array([]))

    def test_log_weighted_mean(self):
        values = np.array([2.0, 4.0])
        weights = np.array([1.0, 3.0])
        expected = np.log((2.0 * 1.0 + 4.0 * 3.0) / 4.0)
        assert log_weighted_mean(np.log(values), np.log(weights)) == pytest.approx(expected)

    def test_log_weighted_mean_shape_mismatch(self):
        with pytest.raises(ValueError):
            log_weighted_mean(np.zeros(3), np.zeros(2))

    def test_log_normalize_sums_to_one(self):
        logs = np.log(np.array([0.2, 0.5, 0.3])) + 123.0  # arbitrary offset
        normalized = log_normalize(logs)
        assert np.exp(normalized).sum() == pytest.approx(1.0)

    def test_log_normalize_all_zero_raises(self):
        with pytest.raises(ValueError):
            log_normalize(np.full(3, LOG_ZERO))

    def test_log_cumsum_monotone_and_final_total(self):
        values = np.array([0.5, 1.0, 0.25, 2.0])
        cum = log_cumsum(np.log(values))
        assert np.all(np.diff(cum) >= 0)
        assert cum[-1] == pytest.approx(np.log(values.sum()))

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_log_sum_property(self, values):
        arr = np.array(values)
        assert log_sum(np.log(arr)) == pytest.approx(np.log(arr.sum()), rel=1e-9)


class TestSafeFunctions:
    def test_safe_log_zero(self):
        assert safe_log(0.0) == LOG_ZERO

    def test_safe_log_negative_raises(self):
        with pytest.raises(ValueError):
            safe_log(-1.0)

    def test_safe_log_array(self):
        out = safe_log(np.array([0.0, 1.0, np.e]))
        assert out[0] == LOG_ZERO
        assert out[1] == pytest.approx(0.0)
        assert out[2] == pytest.approx(1.0)

    def test_safe_exp_underflow_clamps_to_zero(self):
        assert safe_exp(-1e6) == 0.0

    def test_safe_exp_overflow_is_inf(self):
        assert safe_exp(1e6) == np.inf

    def test_safe_exp_roundtrip(self):
        assert safe_exp(safe_log(3.5)) == pytest.approx(3.5)


class TestLogAccumulator:
    def test_streaming_matches_batch(self):
        rng = np.random.default_rng(0)
        logs = rng.normal(size=50)
        acc = LogAccumulator()
        for v in logs:
            acc.add(float(v))
        assert acc.count == 50
        assert acc.log_sum == pytest.approx(log_sum(logs))
        assert acc.log_mean == pytest.approx(log_mean(logs))

    def test_add_many_matches_add(self):
        logs = np.linspace(-5, 5, 20)
        a, b = LogAccumulator(), LogAccumulator()
        for v in logs:
            a.add(float(v))
        b.add_many(logs)
        assert a.log_sum == pytest.approx(b.log_sum)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            _ = LogAccumulator().log_mean

    def test_add_many_empty_is_noop(self):
        acc = LogAccumulator()
        acc.add_many(np.array([]))
        assert acc.count == 0


class TestLogSumExpProperties:
    """Property-style guarantees the samplers rely on (satellite of ISSUE 2)."""

    @given(
        st.lists(finite_logs, min_size=1, max_size=16),
        st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, logs, shift):
        """log_sum(x + c) == log_sum(x) + c — the identity behind max-shifting."""
        arr = np.asarray(logs)
        base = log_sum(arr)
        shifted = log_sum(arr + shift)
        assert shifted == pytest.approx(base + shift, rel=1e-12, abs=1e-9)

    @given(st.lists(finite_logs, min_size=1, max_size=16), finite_logs)
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_elements(self, logs, extra):
        """Appending any element increases the log-sum (mass only adds).

        Up to summation rounding: appending an element changes numpy's
        pairwise-summation grouping, which can legitimately move the sum by
        an ulp even though the true sum only grew — so the monotonicity
        assertion carries an ulp-scale tolerance.
        """
        arr = np.asarray(logs)
        base = log_sum(arr)
        grown = log_sum(np.append(arr, extra))
        tol = 8 * np.finfo(float).eps * max(1.0, abs(base))
        assert grown >= base - tol
        assert grown >= max(arr.max(), extra) - tol

    @given(st.lists(finite_logs, min_size=1, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_max_plus_log_n(self, logs):
        """max(x) <= log_sum(x) <= max(x) + log(n) — tightness of the reduction."""
        arr = np.asarray(logs)
        total = log_sum(arr)
        assert total >= arr.max() - 1e-9
        assert total <= arr.max() + np.log(arr.size) + 1e-9

    @given(st.lists(finite_logs, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_neg_inf_entries_are_log_domain_zeros(self, logs):
        """True -inf entries contribute nothing, exactly like LOG_ZERO."""
        arr = np.asarray(logs)
        with_inf = np.append(arr, -np.inf)
        with_zero = np.append(arr, LOG_ZERO)
        base = log_sum(arr)
        assert log_sum(with_inf) == pytest.approx(base, rel=1e-12, abs=1e-12)
        assert log_sum(with_zero) == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_all_neg_inf_collapses_to_log_zero(self):
        assert log_sum(np.array([-np.inf, -np.inf])) == LOG_ZERO
        assert log_sum(np.array([LOG_ZERO, -np.inf])) == LOG_ZERO
        assert log_add(LOG_ZERO, 3.0) == 3.0
        assert log_add(float("-inf"), 3.0) == 3.0

    @given(st.lists(finite_logs, min_size=2, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_normalize_is_shift_invariant_distribution(self, logs):
        """log_normalize sums to one and ignores any common offset."""
        arr = np.asarray(logs)
        probs = np.exp(log_normalize(arr))
        probs_shifted = np.exp(log_normalize(arr + 123.0))
        assert probs.sum() == pytest.approx(1.0, rel=1e-9)
        assert np.allclose(probs, probs_shifted, rtol=1e-9, atol=1e-12)

    @given(finite_logs, finite_logs)
    @settings(max_examples=200, deadline=None)
    def test_log_add_commutes_and_dominates(self, a, b):
        ab, ba = log_add(a, b), log_add(b, a)
        assert ab == pytest.approx(ba, rel=1e-12)
        assert ab >= max(a, b)
        assert ab <= max(a, b) + np.log(2.0) + 1e-12


def _general_log_sum(arr: np.ndarray) -> float:
    """Reference: the keepdims/where/squeeze log-sum-exp path, for any shape."""
    k = np.max(arr, keepdims=True)
    k_safe = np.where(k <= LOG_ZERO / 2, 0.0, k)
    with np.errstate(under="ignore"):
        s = np.sum(np.exp(arr - k_safe), keepdims=True)
    out = np.where(k <= LOG_ZERO / 2, LOG_ZERO, np.log(np.where(s > 0, s, 1.0)) + k_safe)
    return float(out.reshape(()))


def _same(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


class TestOneDimensionalFastPath:
    """1-D ``axis=None`` reductions skip the keepdims path, bit for bit."""

    entries = st.one_of(
        finite_logs,
        st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
        st.just(LOG_ZERO),
        st.just(-np.inf),
    )

    @given(st.lists(entries, min_size=1, max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_matches_general_path(self, logs):
        arr = np.asarray(logs)
        want = _general_log_sum(arr)
        assert _same(log_sum(arr), want)
        assert _same(log_sum(logs), want)
        assert _same(log_mean(arr), want - float(np.log(arr.size)))

    @pytest.mark.parametrize(
        "logs",
        [
            [LOG_ZERO, LOG_ZERO, LOG_ZERO],
            [-np.inf, -np.inf],
            [LOG_ZERO, -np.inf],
            [np.inf, 1.0],
            [np.nan, 1.0],
            [5.0],
        ],
    )
    def test_degenerate_batches(self, logs):
        arr = np.asarray(logs)
        with np.errstate(invalid="ignore"):
            want = _general_log_sum(arr)
            assert _same(log_sum(arr), want)
            assert _same(log_mean(arr), want - float(np.log(arr.size)))
