"""Demography-parameterized likelihood surfaces over sampled genealogies.

The demography-generic counterparts of the θ-only curve of
:mod:`repro.core.estimator` and the exponential-growth surface of
:mod:`repro.likelihood.growth_prior` (whose classes are now thin
specializations of these).  Each surface is a function of ``(θ, params)``
where ``params`` is the free-parameter vector of a
:class:`~repro.demography.base.Demography`:

* :class:`DemographyRelativeLikelihood` — the Monte-Carlo average of prior
  ratios for genealogies sampled under the *driving* (θ₀, params₀): the
  importance-sampling estimator of Eq. 26 generalized to any demography.
  This is what the EM M-step maximizes.
* :class:`DemographyPooledLikelihood` — the direct pooled log-likelihood of
  independently observed genealogies (e.g. simulator output); consistent,
  and the validation target for the estimation machinery.
* :class:`CombinedDemographyLikelihood` — the per-locus sum for unlinked
  loci sharing one demography (a single locus constrains demography
  parameters only weakly; curvature accumulates locus by locus).

All three expose ``log_likelihood(theta, params)``, ``log_curve(thetas,
params)`` and ``theta_derivatives(theta, params)`` — ``params`` optional,
defaulting to the driving parameter vector — which is the interface
:func:`repro.core.estimator.maximize_demography` maximizes.

θ enters the prior only through ``log(2/θ)`` and ``1/θ``:

    log P(G | θ, params) = n·log(2/θ) + E(params) − X(params)/θ

with θ-free terms ``(E, X)`` from :meth:`Demography.prior_terms`.  So the
surfaces keep those terms in a small memo keyed on the parameter vector's
bytes (a demography instance is built only on a memo miss), and for a fixed
parameter vector they offer the θ axis in closed form: ``log_curve``
evaluates many θ values in one ``(K, n_samples)`` pass, each entry
bit-identical to the scalar ``log_likelihood``, and ``theta_derivatives``
returns the value with its first and second θ-derivatives at one point.
Those two are what the M-step's θ̂(params) solve uses.  The values are
bit-identical to calling ``batched_log_prior`` at every point.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..demography.base import Demography, IntervalTimes, log_prior_from_terms

__all__ = [
    "DemographyRelativeLikelihood",
    "DemographyPooledLikelihood",
    "CombinedDemographyLikelihood",
]


def _check_interval_matrix(interval_matrix: np.ndarray) -> np.ndarray:
    mat = np.asarray(interval_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("interval_matrix must be (n_samples, n_intervals) with n_samples >= 1")
    if np.any(mat < 0):
        raise ValueError("interval lengths must be non-negative")
    return mat


def _log_mean_exp(log_values: np.ndarray) -> float:
    """logmeanexp via :func:`repro.likelihood.logspace.log_mean`, with the
    all-underflowed batch reported as exactly -inf.

    ``log_mean`` returns the finite ``LOG_ZERO`` sentinel for a zero-mass
    batch; the estimator's degenerate-surface handling (honest
    ``converged=False`` at a saturated driving point) keys on ``-inf``, so
    the sentinel regime is mapped back to it here.
    """
    from .logspace import LOG_ZERO, log_mean

    out = float(log_mean(log_values))
    return -np.inf if out <= LOG_ZERO / 2 else out


def _log_mean_exp_weights(log_values: np.ndarray) -> tuple[float, np.ndarray | None]:
    """:func:`_log_mean_exp` plus the softmax weights of ``log_values``.

    One ``exp`` pass serves both: the value repeats ``log_sum``'s 1-D
    branch and ``log_mean``'s ``− log n`` operation for operation, so it is
    bit-identical to :func:`_log_mean_exp`.  The weights are ``None`` where
    the value is not finite.
    """
    from .logspace import LOG_ZERO

    peak = float(log_values.max())
    if not LOG_ZERO / 2 < peak < np.inf:
        return _log_mean_exp(log_values), None
    with np.errstate(under="ignore"):
        weights = np.exp(log_values - peak)
    total = float(weights.sum())  # >= 1: the peak contributes exp(0)
    value = float(np.log(total)) + peak - float(np.log(log_values.size))
    return value, weights / total


def _log_mean_exp_rows(log_values: np.ndarray) -> np.ndarray:
    """:func:`_log_mean_exp` of each row of a ``(K, n)`` array, bit for bit.

    The same operations as the scalar path (``log_sum``'s 1-D branch, then
    ``log_mean``'s ``− log n``) applied row-wise; every row is a contiguous
    reduction, so its sum takes the same pairwise order as a 1-D sum.
    All-``-inf`` rows are ``-inf`` without an invalid-value warning.
    """
    from .logspace import LOG_ZERO

    peak = log_values.max(axis=1)
    dead = peak <= LOG_ZERO / 2
    with np.errstate(under="ignore", invalid="ignore"):
        total = np.exp(log_values - np.where(dead, 0.0, peak)[:, None]).sum(axis=1)
        out = np.log(np.where(total > 0, total, 1.0)) + peak - float(np.log(log_values.shape[1]))
    return np.where(dead | (out <= LOG_ZERO / 2), -np.inf, out)


def _check_thetas(thetas) -> np.ndarray:
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 1 or np.any(thetas <= 0):
        raise ValueError("thetas must be a 1-D array of positive values")
    return thetas


def _weighted_derivatives(n_intervals: int, exposure, weights, theta: float, spread: bool):
    """d/dθ and d²/dθ² of Σ_s w_s log P(G_s | θ), for weights summing to one.

    Per sample, d/dθ log P = −n/θ + X_s/θ² and d²/dθ² = n/θ² − 2X_s/θ³.
    With ``spread`` the weights are the samples' softmax, whose own
    θ-dependence adds the weighted variance of the per-sample slopes,
    Var_w(X)/θ⁴, to the second derivative.  Zero-weight samples (possibly
    with infinite exposure) are left out.
    """
    mean = float(weights @ exposure)
    if np.isnan(mean):  # 0 · inf: a zero-weight sample with infinite exposure
        live = weights > 0
        weights, exposure = weights[live], exposure[live]
        mean = float(weights @ exposure)
    d1 = (mean / theta - n_intervals) / theta
    d2 = (n_intervals - 2.0 * mean / theta) / (theta * theta)
    if spread:
        d2 += float(weights @ (exposure - mean) ** 2) / theta**4
    return d1, d2


#: Parameter vectors whose prior terms a surface keeps.  The M-step revisits
#: only the current point and its latest probes, so a few dozen entries hit
#: as often as an unbounded memo would.
_TERMS_MEMO_SIZE = 32


class _PriorTermsMemo:
    """A demography's prior terms over fixed samples, memoized per parameter vector."""

    def __init__(self, demography: Demography, times: IntervalTimes) -> None:
        self.demography = demography
        self.times = times
        self._driving_key = demography.param_values().tobytes()
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()

    def terms(self, params=None) -> tuple:
        """The ``(event_sum, exposure)`` pair at ``params`` (default: the demography's own)."""
        if params is None:
            key = self._driving_key
        else:
            params = np.asarray(params, dtype=float).reshape(-1)
            key = params.tobytes()
        terms = self._entries.get(key)
        if terms is None:
            dem = self.demography if params is None else self.demography.with_param_values(params)
            terms = dem.prior_terms(self.times)
            self._entries[key] = terms
            if len(self._entries) > _TERMS_MEMO_SIZE:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return terms

    def log_prior(self, theta: float, params=None) -> np.ndarray:
        """log P(G | θ, params) per sample (params default: the demography's own)."""
        return log_prior_from_terms(self.times.n_intervals, self.terms(params), theta)

    def log_prior_rows(self, thetas: np.ndarray, params=None) -> np.ndarray:
        """:meth:`log_prior` at each θ of ``thetas``, as the rows of ``(K, n_samples)``."""
        event_sum, exposure = self.terms(params)
        event_term = (self.times.n_intervals * np.log(2.0 / thetas))[:, None]
        if event_sum is not None:
            event_term = event_term + event_sum[None, :]
        return event_term - exposure[None, :] / thetas[:, None]


class DemographyRelativeLikelihood:
    """Relative likelihood L(θ, params) / L(θ₀, params₀) from driven samples.

    The genealogies were sampled under the driving pair (``driving_theta``,
    ``demography``'s current parameters); the surface is the Monte-Carlo
    average of prior ratios — the demography-generic analogue of Eq. 26.
    """

    def __init__(
        self,
        interval_matrix: np.ndarray,
        demography: Demography,
        driving_theta: float,
    ) -> None:
        if driving_theta <= 0:
            raise ValueError("driving_theta must be positive")
        self.interval_matrix = _check_interval_matrix(interval_matrix)
        self.demography = demography
        self.driving_theta = float(driving_theta)
        self._times = IntervalTimes(self.interval_matrix)
        self._memo = _PriorTermsMemo(demography, self._times)
        self._log_at_driving = self._memo.log_prior(self.driving_theta)
        #: Surface points evaluated so far (one per ``log_likelihood`` or
        #: ``theta_derivatives`` call, one per θ of a ``log_curve`` call).
        self.n_evaluations = 0

    @property
    def n_samples(self) -> int:
        """Number of genealogy samples backing the surface."""
        return self.interval_matrix.shape[0]

    def log_likelihood(self, theta: float, params=None) -> float:
        """log L(θ, params) at one point (params default: the driving values)."""
        self.n_evaluations += 1
        return _log_mean_exp(self._memo.log_prior(theta, params) - self._log_at_driving)

    def log_curve(self, thetas, params=None) -> np.ndarray:
        """log L(θ, params) at each θ of ``thetas``, each bit-identical to
        :meth:`log_likelihood` (params default: the driving values)."""
        thetas = _check_thetas(thetas)
        self.n_evaluations += thetas.size
        log_ratios = self._memo.log_prior_rows(thetas, params) - self._log_at_driving[None, :]
        return _log_mean_exp_rows(log_ratios)

    def theta_derivatives(self, theta: float, params=None) -> tuple[float, float, float]:
        """``(log L, d log L/dθ, d² log L/dθ²)`` at one point.

        With u = 1/θ and softmax weights w_s over the samples' log ratios,
        d log L/du = n/u − Σ w_s X_s and d² log L/du² = −n/u² + Var_w(X),
        written here in θ.  The value is bit-identical to
        :meth:`log_likelihood`; the derivatives are NaN where it is −∞.
        """
        self.n_evaluations += 1
        terms = self._memo.terms(params)
        log_ratios = log_prior_from_terms(self._times.n_intervals, terms, theta) - self._log_at_driving
        value, weights = _log_mean_exp_weights(log_ratios)
        if weights is None:
            return value, np.nan, np.nan
        return (value, *_weighted_derivatives(self._times.n_intervals, terms[1], weights, theta, True))


class DemographyPooledLikelihood:
    """Direct pooled log-likelihood Σᵢ log P(Gᵢ | θ, params) of observed genealogies.

    Treats the genealogies themselves as independent observations of the
    coalescent process under ``demography`` (no driving point, no
    reweighting); the mean per-genealogy value is reported so numbers stay
    comparable across sample counts — the maximizer is unchanged.
    """

    def __init__(self, interval_matrix: np.ndarray, demography: Demography) -> None:
        self.interval_matrix = _check_interval_matrix(interval_matrix)
        self.demography = demography
        self._times = IntervalTimes(self.interval_matrix)
        self._memo = _PriorTermsMemo(demography, self._times)

    @property
    def n_samples(self) -> int:
        """Number of genealogies pooled into the likelihood."""
        return self.interval_matrix.shape[0]

    def log_likelihood(self, theta: float, params=None) -> float:
        """Mean log P(G | θ, params) at one point (params default: current)."""
        return float(np.mean(self._memo.log_prior(theta, params)))

    def log_curve(self, thetas, params=None) -> np.ndarray:
        """Mean log P(G | θ, params) at each θ of ``thetas``, each
        bit-identical to :meth:`log_likelihood`."""
        return self._memo.log_prior_rows(_check_thetas(thetas), params).mean(axis=1)

    def theta_derivatives(self, theta: float, params=None) -> tuple[float, float, float]:
        """``(mean log P, its d/dθ, its d²/dθ²)`` at one point; the value is
        bit-identical to :meth:`log_likelihood`, the derivatives NaN where
        it is −∞."""
        terms = self._memo.terms(params)
        value = float(np.mean(log_prior_from_terms(self._times.n_intervals, terms, theta)))
        if not np.isfinite(value):
            return value, np.nan, np.nan
        weights = np.full(self.n_samples, 1.0 / self.n_samples)
        return (value, *_weighted_derivatives(self._times.n_intervals, terms[1], weights, theta, False))


class CombinedDemographyLikelihood:
    """Sum of independent per-locus surfaces sharing one demography.

    Components may mix :class:`DemographyRelativeLikelihood` (enters the
    sum as-is) and :class:`DemographyPooledLikelihood` (its *mean* surface
    is rescaled by its genealogy count so every observed genealogy carries
    equal weight regardless of how genealogies are split across
    components).
    """

    def __init__(self, components) -> None:
        components = list(components)
        if not components:
            raise ValueError("need at least one component likelihood")
        self.components = components
        self._scales = [
            float(part.n_samples) if isinstance(part, DemographyPooledLikelihood) else 1.0
            for part in components
        ]

    @property
    def n_loci(self) -> int:
        """Number of component loci."""
        return len(self.components)

    def log_likelihood(self, theta: float, params=None) -> float:
        """Summed log-likelihood at a single (θ, params) point."""
        return float(
            sum(
                scale * part.log_likelihood(theta, params)
                for scale, part in zip(self._scales, self.components)
            )
        )

    def log_curve(self, thetas, params=None) -> np.ndarray:
        """Summed log-likelihood at each θ of ``thetas``, each bit-identical
        to :meth:`log_likelihood`."""
        thetas = _check_thetas(thetas)
        total = 0
        for scale, part in zip(self._scales, self.components):
            total = total + scale * part.log_curve(thetas, params)
        return total

    def theta_derivatives(self, theta: float, params=None) -> tuple[float, float, float]:
        """Summed ``(log L, d/dθ, d²/dθ²)`` at one point."""
        value, d1, d2 = 0, 0.0, 0.0
        for scale, part in zip(self._scales, self.components):
            v, g, h = part.theta_derivatives(theta, params)
            value, d1, d2 = value + scale * v, d1 + scale * g, d2 + scale * h
        return float(value), d1, d2
