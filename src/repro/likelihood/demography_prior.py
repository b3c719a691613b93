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

All three expose ``log_likelihood(theta, params)`` — ``params`` optional,
defaulting to the driving parameter vector — which is the interface
:func:`repro.core.estimator.maximize_demography` ascends.

The ascent probes θ far more often than it moves the parameters (each
coordinate step holds all but one coordinate fixed), and θ enters the prior
only through ``log(2/θ)`` and ``1/θ``.  So the surfaces keep the
demography's θ-free prior terms (:meth:`Demography.prior_terms`) in a
small memo keyed on the parameter vector's bytes: a θ probe costs one
O(n_samples) expression plus the log-mean, and a demography instance is
built only on a memo miss.  The values are bit-identical to calling
``batched_log_prior`` at every point.
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


#: Parameter vectors whose prior terms a surface keeps.  The coordinate
#: ascent revisits only the current point and its latest candidates, so a
#: few dozen entries hit as often as an unbounded memo would.
_TERMS_MEMO_SIZE = 32


class _PriorTermsMemo:
    """A demography's prior terms over fixed samples, memoized per parameter vector."""

    def __init__(self, demography: Demography, times: IntervalTimes) -> None:
        self.demography = demography
        self.times = times
        self._driving_key = demography.param_values().tobytes()
        self._entries: OrderedDict[bytes, tuple] = OrderedDict()

    def log_prior(self, theta: float, params=None) -> np.ndarray:
        """log P(G | θ, params) per sample (params default: the demography's own)."""
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
        return log_prior_from_terms(self.times.n_intervals, terms, theta)


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
        #: Surface points evaluated so far (``log_likelihood`` calls).
        self.n_evaluations = 0

    @property
    def n_samples(self) -> int:
        """Number of genealogy samples backing the surface."""
        return self.interval_matrix.shape[0]

    def log_likelihood(self, theta: float, params=None) -> float:
        """log L(θ, params) at one point (params default: the driving values)."""
        self.n_evaluations += 1
        return _log_mean_exp(self._memo.log_prior(theta, params) - self._log_at_driving)


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
