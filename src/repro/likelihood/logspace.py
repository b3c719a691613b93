"""Log-space arithmetic utilities (underflow avoidance).

The paper (Section 5.3) stores every quantity at risk of underflow or
overflow as its natural logarithm and performs arithmetic in log space.
Multiplication becomes addition, and addition is performed with the
"log-sum-exp" identity of Eq. (32):

    ln(x + y) = ln(exp(a - k) + exp(b - k)) + k,   k = max(a, b)

where ``a = ln(x)`` and ``b = ln(y)``.  These helpers implement that scheme
for scalars and arrays, including the weighted variant needed when
averaging posterior ratios (Eq. 26) and a running ("streaming") accumulator
used by the posterior-likelihood kernel.

All functions accept and return *natural* logarithms.  ``LOG_ZERO`` is used
as the representation of ``log(0)``; it is large and negative but finite so
that arithmetic never produces NaNs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LOG_ZERO",
    "log_add",
    "log_sub",
    "log_sum",
    "log_mean",
    "log_weighted_mean",
    "log_normalize",
    "log_cumsum",
    "LogAccumulator",
    "safe_log",
    "safe_exp",
]

#: Finite stand-in for ``log(0)``.  exp(LOG_ZERO) underflows to exactly 0.0
#: in IEEE double precision, and adding it to any reasonable log value is a
#: no-op, which is exactly the behaviour we want from a log-domain zero.
LOG_ZERO: float = -1.0e300

Array = np.ndarray


def safe_log(x):
    """Return ``log(x)`` with ``log(0)`` mapped to :data:`LOG_ZERO`.

    Negative inputs raise ``ValueError`` — they indicate a logic error in the
    caller rather than an underflow condition.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("safe_log received a negative value")
    with np.errstate(divide="ignore"):
        out = np.where(arr > 0.0, np.log(np.where(arr > 0.0, arr, 1.0)), LOG_ZERO)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def safe_exp(logx):
    """Return ``exp(logx)`` with values below the representable range clamped to 0."""
    arr = np.asarray(logx, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        out = np.exp(np.clip(arr, -745.0, 709.0))
        out = np.where(arr <= -745.0, 0.0, out)
        out = np.where(arr >= 709.0, np.inf, out)
    if np.isscalar(logx) or arr.ndim == 0:
        return float(out)
    return out


def log_add(a: float, b: float) -> float:
    """Return ``log(exp(a) + exp(b))`` without leaving log space (Eq. 32)."""
    if a <= LOG_ZERO / 2:
        return b
    if b <= LOG_ZERO / 2:
        return a
    k = a if a > b else b
    return float(np.log(np.exp(a - k) + np.exp(b - k)) + k)


def log_sub(a: float, b: float) -> float:
    """Return ``log(exp(a) - exp(b))``.

    Requires ``a >= b``; returns :data:`LOG_ZERO` when the difference
    underflows (i.e. ``a == b`` to machine precision).
    """
    if b <= LOG_ZERO / 2:
        return a
    if b > a:
        raise ValueError("log_sub requires a >= b (cannot represent negative values)")
    diff = -np.expm1(b - a)  # 1 - exp(b-a), accurate for small differences
    if diff <= 0.0:
        return LOG_ZERO
    return float(a + np.log(diff))


def log_sum(logs: Iterable[float] | Array, axis: int | None = None):
    """Return ``log(sum(exp(logs)))`` along ``axis`` (log-sum-exp reduction)."""
    arr = np.asarray(logs if isinstance(logs, Array) else list(logs), dtype=float)
    if arr.size == 0:
        return LOG_ZERO
    if axis is None and arr.ndim == 1:
        return _log_sum_1d(arr)
    k = np.max(arr, axis=axis, keepdims=True)
    # All-zero slices (every entry LOG_ZERO) must stay LOG_ZERO.
    k_safe = np.where(k <= LOG_ZERO / 2, 0.0, k)
    with np.errstate(under="ignore"):
        s = np.sum(np.exp(arr - k_safe), axis=axis, keepdims=True)
    out = np.where(k <= LOG_ZERO / 2, LOG_ZERO, np.log(np.where(s > 0, s, 1.0)) + k_safe)
    out = np.squeeze(out, axis=axis) if axis is not None else out.reshape(())
    if out.ndim == 0:
        return float(out)
    return out


def _log_sum_1d(arr) -> float:
    """:func:`log_sum` of a non-empty 1-D array as host scalars, bit-identical
    to the general path (the EM M-step's log-mean runs this per surface point)."""
    k = float(np.max(arr))
    if k <= LOG_ZERO / 2:
        return LOG_ZERO
    with np.errstate(under="ignore"):
        s = float(np.sum(np.exp(arr - k)))
    # NaN and +inf maxima leave s NaN; the general path logs 1.0 there.
    return float(np.log(s if s > 0 else 1.0)) + k


def log_mean(logs: Iterable[float] | Array, axis: int | None = None):
    """Return ``log(mean(exp(logs)))`` along ``axis``.

    This is the quantity the relative-likelihood estimator needs: Eq. (26)
    averages posterior ratios whose logs are what the sampler stores.
    """
    arr = np.asarray(logs if isinstance(logs, Array) else list(logs), dtype=float)
    n = arr.shape[axis] if axis is not None else arr.size
    if n == 0:
        raise ValueError("log_mean of an empty collection")
    total = log_sum(arr, axis=axis)
    return total - float(np.log(n))


def log_weighted_mean(logs, log_weights) -> float:
    """Return ``log( sum(w_i * x_i) / sum(w_i) )`` for log-domain x and w."""
    logs = np.asarray(logs, dtype=float)
    log_weights = np.asarray(log_weights, dtype=float)
    if logs.shape != log_weights.shape:
        raise ValueError("logs and log_weights must have the same shape")
    num = log_sum(logs + log_weights)
    den = log_sum(log_weights)
    if den <= LOG_ZERO / 2:
        raise ValueError("all weights are zero")
    return float(num - den)


def log_normalize(logs):
    """Return log-probabilities that exponentiate to a distribution summing to 1."""
    logs = np.asarray(logs, dtype=float)
    total = log_sum(logs)
    if total <= LOG_ZERO / 2:
        raise ValueError("cannot normalize: all mass is zero")
    return logs - total


def log_cumsum(logs: Array) -> Array:
    """Cumulative log-sum-exp along a 1-D array.

    Used to sample the auxiliary index variable I from the discrete
    stationary distribution over a proposal set (Section 4.3): the sampler
    draws a uniform in (0, total) and finds the first index whose cumulative
    weight reaches it.  Inherently sequential.
    """
    logs = np.asarray(logs, dtype=float)
    if logs.ndim != 1:
        raise ValueError("log_cumsum expects a 1-D array")
    out = np.empty_like(logs)
    running = LOG_ZERO
    for i, v in enumerate(logs):
        running = log_add(running, float(v))
        out[i] = running
    return out


class LogAccumulator:
    """Streaming log-sum-exp accumulator.

    Mirrors the reduction performed by the posterior-likelihood kernel
    (Section 5.2.3): values arrive one warp at a time and are folded into a
    single running log-sum without ever leaving log space.
    """

    def __init__(self) -> None:
        self._log_total = LOG_ZERO
        self._count = 0

    def add(self, log_value: float) -> None:
        """Fold one log-domain value into the running total."""
        self._log_total = log_add(self._log_total, float(log_value))
        self._count += 1

    def add_many(self, log_values: Sequence[float] | Array) -> None:
        """Fold a batch of log-domain values into the running total."""
        arr = np.asarray(log_values, dtype=float)
        if arr.size == 0:
            return
        self._log_total = log_add(self._log_total, float(log_sum(arr)))
        self._count += int(arr.size)

    @property
    def count(self) -> int:
        """Number of values folded in so far."""
        return self._count

    @property
    def log_sum(self) -> float:
        """Log of the sum of all values folded in so far."""
        return self._log_total

    @property
    def log_mean(self) -> float:
        """Log of the mean of all values folded in so far."""
        if self._count == 0:
            raise ValueError("log_mean of an empty accumulator")
        return self._log_total - float(np.log(self._count))
