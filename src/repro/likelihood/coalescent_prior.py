"""Kingman coalescent prior P(G | θ).

Under the Wright-Fisher model the waiting time until the most recent
coalescence of ``k`` lineages is exponential (Eq. 17), and the probability
density of a whole genealogy, viewed as a sequence of independent coalescent
intervals backwards in time, factorizes over intervals (Eq. 18):

    P(G | θ) = (2/θ)^(n-1) · exp( − Σ_{i=2}^{n} i (i−1) t_{n−i} / θ )

where ``t_j`` is the length of the interval during which ``n − j`` lineages
are present.  Everything here is computed and returned in log space (the
density underflows rapidly for large trees or small θ, Section 5.3).

Because the MLE stage evaluates P(G|θ) for *many* genealogies at *many*
candidate θ values, the module exposes both a single-tree form and a batched
form operating on interval arrays, plus the sufficient statistics
(``n − 1``, ``Σ i(i−1) t``) that make the θ sweep a two-term expression.

This density is the constant-size member of the demography-parameterized
prior family (:meth:`repro.demography.base.Demography.batched_log_prior`);
``ConstantDemography`` delegates here, so this module stays the single
source of truth for the paper's Eq. 18.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genealogy.tree import Genealogy

__all__ = [
    "log_coalescent_prior",
    "log_prior_from_intervals",
    "CoalescentSufficientStats",
    "sufficient_stats",
    "batched_log_prior",
    "waiting_time_density",
    "PooledThetaLikelihood",
]


def waiting_time_density(t: float, k: int, theta: float) -> float:
    """Density of the waiting time to the next coalescence among ``k`` lineages.

    ``k`` lineages coalesce at total rate ``k(k-1)/θ``; the waiting time is
    exponential with that rate.  (The paper's Eq. 17 quotes the joint density
    of the waiting time *and* the identity of the coalescing pair, which is
    this density divided by the ``k(k-1)/2`` equally likely pairs.)
    """
    if k < 2:
        raise ValueError("need at least two lineages for a coalescence")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if t < 0:
        raise ValueError("waiting time must be non-negative")
    rate = k * (k - 1) / theta
    return float(rate * np.exp(-rate * t))


@dataclass(frozen=True)
class CoalescentSufficientStats:
    """Sufficient statistics of a genealogy for the coalescent prior.

    ``log P(G|θ) = n_events · log(2/θ) − weighted_time / θ`` where
    ``weighted_time = Σ_i k_i (k_i − 1) t_i``.
    """

    n_events: int
    weighted_time: float

    def log_prior(self, theta: float) -> float:
        """Evaluate log P(G|θ) from the stored statistics."""
        if theta <= 0:
            raise ValueError("theta must be positive")
        return self.n_events * float(np.log(2.0 / theta)) - self.weighted_time / theta

    def log_prior_many(self, thetas: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over an array of θ values."""
        thetas = np.asarray(thetas, dtype=float)
        if np.any(thetas <= 0):
            raise ValueError("all theta values must be positive")
        return self.n_events * np.log(2.0 / thetas) - self.weighted_time / thetas


def sufficient_stats(tree: Genealogy) -> CoalescentSufficientStats:
    """Compute the prior's sufficient statistics for one genealogy."""
    lengths, lineages = tree.coalescent_intervals()
    weighted = float(np.sum(lineages * (lineages - 1) * lengths))
    return CoalescentSufficientStats(n_events=int(len(lengths)), weighted_time=weighted)


def stats_from_intervals(interval_lengths: np.ndarray) -> CoalescentSufficientStats:
    """Sufficient statistics from an interval-length array.

    ``interval_lengths[i]`` is the waiting time during which ``n − i``
    lineages are present (``n = len(interval_lengths) + 1``), exactly the
    reduced representation the sampler stores per sampled genealogy.
    """
    lengths = np.asarray(interval_lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size < 1:
        raise ValueError("interval_lengths must be a non-empty 1-D array")
    if np.any(lengths < 0):
        raise ValueError("interval lengths must be non-negative")
    n = lengths.size + 1
    lineages = n - np.arange(lengths.size)
    weighted = float(np.sum(lineages * (lineages - 1) * lengths))
    return CoalescentSufficientStats(n_events=int(lengths.size), weighted_time=weighted)


def log_coalescent_prior(tree: Genealogy, theta: float) -> float:
    """log P(G | θ) for a single genealogy (Eq. 18)."""
    return sufficient_stats(tree).log_prior(theta)


def log_prior_from_intervals(interval_lengths: np.ndarray, theta: float) -> float:
    """log P(G | θ) from an interval-length array."""
    return stats_from_intervals(interval_lengths).log_prior(theta)


def batched_log_prior(interval_matrix: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Evaluate log P(G|θ) for many genealogies × many θ values at once.

    Parameters
    ----------
    interval_matrix:
        ``(n_samples, n_intervals)`` matrix of interval lengths — row ``m``
        is the reduced representation of sampled genealogy ``m``.
    thetas:
        ``(n_thetas,)`` array of candidate θ values.

    Returns
    -------
    ``(n_samples, n_thetas)`` array of log-prior values.  This is the batched
    quantity the posterior-likelihood kernel reduces when tracing the
    relative likelihood curve (Section 5.2.3).
    """
    mat = np.asarray(interval_matrix, dtype=float)
    if mat.ndim != 2:
        raise ValueError("interval_matrix must be 2-D (n_samples, n_intervals)")
    thetas = np.asarray(thetas, dtype=float)
    if np.any(thetas <= 0):
        raise ValueError("all theta values must be positive")
    return log_prior_from_weighted(weighted_times(mat), mat.shape[1], thetas)


def weighted_times(interval_matrix: np.ndarray) -> np.ndarray:
    """Σ_k k(k−1) t_k for each row: the only data the θ sweep of Eq. 18 needs."""
    n = interval_matrix.shape[1] + 1
    lineages = n - np.arange(interval_matrix.shape[1])
    return interval_matrix @ (lineages * (lineages - 1))


def log_prior_from_weighted(weighted: np.ndarray, n_events: int, thetas: np.ndarray) -> np.ndarray:
    """``(n_samples, n_thetas)`` log P(G|θ) from :func:`weighted_times` output."""
    return n_events * np.log(2.0 / thetas)[None, :] - weighted[:, None] / thetas[None, :]


class PooledThetaLikelihood:
    """Direct pooled log-likelihood  Σᵢ log P(Gᵢ | θ)  of observed genealogies.

    Where :class:`~repro.core.estimator.RelativeLikelihood` re-weights
    genealogies sampled under a driving θ₀ (the importance-sampling curve of
    Eq. 26), this class treats the genealogies themselves as independent
    observations of the coalescent process.  Its maximizer is the ordinary
    maximum-likelihood estimate of θ, available in closed form:

        θ̂ = Σᵢ wᵢ / (M (n − 1)),   wᵢ = Σ_k k(k−1) t_{k,i}

    It is the right tool for estimating θ from independently simulated
    genealogies (e.g. ``ms``-style output) and the statistically sound target
    for validating the maximization machinery.  The interface matches
    :class:`RelativeLikelihood` (``log_curve`` / ``log_likelihood``) so
    :func:`~repro.core.estimator.maximize_theta` accepts either.
    """

    def __init__(self, interval_matrix: np.ndarray) -> None:
        mat = np.asarray(interval_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise ValueError("interval_matrix must be (n_samples, n_intervals) with n_samples >= 1")
        if np.any(mat < 0):
            raise ValueError("interval lengths must be non-negative")
        self.interval_matrix = mat

    @property
    def n_samples(self) -> int:
        """Number of genealogies pooled into the likelihood."""
        return self.interval_matrix.shape[0]

    def log_curve(self, thetas: np.ndarray) -> np.ndarray:
        """Mean per-genealogy log P(G | θ) at each candidate θ.

        The mean (rather than the sum) keeps values comparable across sample
        counts; the maximizer is unchanged.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        return batched_log_prior(self.interval_matrix, thetas).mean(axis=0)

    def log_likelihood(self, theta: float) -> float:
        """Mean log P(G | θ) at a single θ."""
        return float(self.log_curve(np.asarray([theta]))[0])

    def analytic_mle(self) -> float:
        """The closed-form maximizer θ̂ = Σᵢ wᵢ / (M (n − 1))."""
        n_intervals = self.interval_matrix.shape[1]
        lineages = (n_intervals + 1) - np.arange(n_intervals)
        weighted = self.interval_matrix @ (lineages * (lineages - 1)).astype(float)
        return float(weighted.sum() / (self.n_samples * n_intervals))


__all__ += ["stats_from_intervals", "weighted_times", "log_prior_from_weighted"]
