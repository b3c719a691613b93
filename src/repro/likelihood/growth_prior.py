"""Coalescent prior under exponential population growth.

The paper's future-work section (Section 7) notes that extending mpcgs
beyond θ "would require ... the ability to calculate that posterior
probability for a given genealogy in order to compute the posterior
likelihood curve".  The classic second LAMARC parameter is the exponential
growth rate ``g``: backwards in time the scaled population parameter decays
as ``θ(t) = θ · exp(−g t)``, so the coalescent hazard of ``k`` lineages at
time ``t`` is ``k (k−1) e^{g t} / θ``.  The log density of a genealogy is

    log P(G | θ, g) = Σ_events [ log(2/θ) + g·t_event ]
                      − Σ_intervals k(k−1) · (e^{g·t_end} − e^{g·t_start}) / (g·θ)

with the ``g → 0`` limit recovering the constant-size prior of Eq. 18.
This module provides that density (single and batched over samples × a
parameter grid) plus a two-parameter relative-likelihood surface and a
grid + ascent maximizer, reusing the genealogy samples the existing sampler
already produces — exactly the extension path the paper sketches.

Growth is now one member of the demography-parameterized prior family
(:mod:`repro.demography`): ``ExponentialDemography`` takes its prior
terms from :func:`growth_prior_terms`, and the surface classes below
are (θ, g)-signature specializations of the generic ones in
:mod:`repro.likelihood.demography_prior` — this module remains the single
source of truth for the exponential density and its overflow handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..demography.base import IntervalTimes, log_prior_from_terms
from .demography_prior import (
    CombinedDemographyLikelihood,
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)

__all__ = [
    "log_growth_prior",
    "growth_prior_terms",
    "batched_log_growth_prior",
    "GrowthRelativeLikelihood",
    "GrowthPooledLikelihood",
    "CombinedGrowthLikelihood",
    "GrowthEstimate",
    "maximize_theta_growth",
]


def _interval_times(interval_lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end times of each coalescent interval from its lengths."""
    ends = np.cumsum(interval_lengths, axis=-1)
    starts = ends - interval_lengths
    return starts, ends


#: Exponent cap below the float64 overflow threshold (log of float64 max is
#: ≈ 709.8).  A positive exponent at or beyond it is treated as infinite
#: exposure — log-prior exactly −inf — rather than clamped to a finite
#: plateau: a plateau would make the event term (+g·Σt) dominate and tilt
#: the surface *uphill* in g precisely where the density must vanish,
#: inviting runaway ascent.  Computing through the cap instead avoids both
#: that artifact and inf−inf → NaN in the difference below.
_EXP_CAP = 700.0


def _growth_integral(starts: np.ndarray, ends: np.ndarray, growth: float) -> np.ndarray:
    """∫ e^{g t} dt over each interval, with the g → 0 limit handled.

    Entries whose (positive) exponent would overflow return ``inf``: the
    exposure really is astronomically large there, and propagating the
    infinity keeps the log-prior at −inf instead of a spurious finite value.
    """
    if abs(growth) < 1e-12:
        return ends - starts
    upper = growth * ends
    out = (
        np.exp(np.minimum(upper, _EXP_CAP)) - np.exp(np.minimum(growth * starts, _EXP_CAP))
    ) / growth
    if growth > 0:
        out = np.where(upper >= _EXP_CAP, np.inf, out)
    return out


def log_growth_prior(interval_lengths: np.ndarray, theta: float, growth: float) -> float:
    """log P(G | θ, g) for one genealogy given its coalescent interval lengths.

    ``interval_lengths[i]`` is the waiting time during which ``n − i``
    lineages are present (the sampler's reduced representation).
    """
    lengths = np.asarray(interval_lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size < 1:
        raise ValueError("interval_lengths must be a non-empty 1-D array")
    if np.any(lengths < 0):
        raise ValueError("interval lengths must be non-negative")
    if theta <= 0:
        raise ValueError("theta must be positive")
    n = lengths.size + 1
    lineages = n - np.arange(lengths.size)
    starts, ends = _interval_times(lengths)
    event_term = float(np.sum(np.log(2.0 / theta) + growth * ends))
    exposure = float(np.sum(lineages * (lineages - 1) * _growth_integral(starts, ends, growth)))
    return event_term - exposure / theta


def growth_prior_terms(times: IntervalTimes, growth: float) -> tuple[np.ndarray, np.ndarray]:
    """``(event_sum, exposure)`` of log P(G | θ, g) — its θ-free terms.

    ``event_sum`` is g · Σ t_event and ``exposure`` is
    Σ k (k − 1) ∫ e^{g t} dt per genealogy; combine them with
    :func:`repro.demography.base.log_prior_from_terms`.  ``growth == 0``
    is evaluated through the growth integral like any other rate (the
    exponential demography routes g = 0 to the constant prior instead).
    """
    exposure = (
        _growth_integral(times.starts, times.ends, growth) * times.coeff[None, :]
    ).sum(axis=1)
    return growth * times.ends.sum(axis=1), exposure


def _growth_grid(times: IntervalTimes, thetas, growths) -> np.ndarray:
    """log P(G | θ, g) on a (θ, g) grid; shape ``(n_samples, n_thetas, n_growths)``."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    growths = np.atleast_1d(np.asarray(growths, dtype=float))
    if np.any(thetas <= 0):
        raise ValueError("all theta values must be positive")
    out = np.empty((times.lengths.shape[0], thetas.size, growths.size))
    for gi, growth in enumerate(growths):
        terms = growth_prior_terms(times, float(growth))
        for ti, theta in enumerate(thetas):
            out[:, ti, gi] = log_prior_from_terms(times.n_intervals, terms, theta)
    return out


def batched_log_growth_prior(
    interval_matrix: np.ndarray, thetas: np.ndarray, growths: np.ndarray
) -> np.ndarray:
    """log P(G | θ, g) for every sample × every (θ, g) grid point.

    Returns an array of shape ``(n_samples, n_thetas, n_growths)`` — the
    batched quantity a two-parameter posterior-likelihood kernel reduces.
    """
    return _growth_grid(IntervalTimes(interval_matrix), thetas, growths)


class GrowthRelativeLikelihood(DemographyRelativeLikelihood):
    """Two-parameter relative likelihood L(θ, g) / L(θ₀, g₀) from sampled genealogies.

    The genealogies were sampled under the driving values (θ₀, g₀); the
    surface is the Monte-Carlo average of prior ratios, the direct
    two-parameter analogue of Eq. 26.  A thin (θ, g)-signature
    specialization of
    :class:`~repro.likelihood.demography_prior.DemographyRelativeLikelihood`
    with the exponential demography, plus the dense (θ, g)-grid surface the
    offline maximizer scans.
    """

    def __init__(
        self,
        interval_matrix: np.ndarray,
        driving_theta: float,
        driving_growth: float = 0.0,
    ) -> None:
        from ..demography.models import ExponentialDemography

        super().__init__(
            interval_matrix,
            ExponentialDemography(growth=float(driving_growth)),
            driving_theta,
        )
        self.driving_growth = float(driving_growth)

    def log_surface(self, thetas: np.ndarray, growths: np.ndarray) -> np.ndarray:
        """log L(θ, g) on a grid; shape ``(n_thetas, n_growths)``."""
        log_ratios = (
            _growth_grid(self._times, thetas, growths) - self._log_at_driving[:, None, None]
        )
        peak = log_ratios.max(axis=0)
        return peak + np.log(np.mean(np.exp(log_ratios - peak[None, :, :]), axis=0))

    def log_likelihood(self, theta: float, growth: float) -> float:
        """log L(θ, g) at a single parameter point."""
        return float(self.log_surface(np.asarray([theta]), np.asarray([growth]))[0, 0])


class GrowthPooledLikelihood(DemographyPooledLikelihood):
    """Direct pooled log-likelihood  Σᵢ log P(Gᵢ | θ, g)  of observed genealogies.

    Where :class:`GrowthRelativeLikelihood` re-weights genealogies sampled
    under a *driving* parameter pair (the importance-sampling estimator the
    sampler's EM loop uses), this class treats the genealogies themselves as
    the observations.  Its maximizer is the ordinary maximum-likelihood
    estimate of (θ, g), which is consistent — simulate genealogies at a known
    (θ, g) and the pooled MLE converges to it.  It is the natural target for
    validating the growth-model machinery and for estimating (θ, g) from
    independently simulated genealogies (e.g. output of the ``ms``-style
    simulator) rather than from a driven chain.
    """

    def __init__(self, interval_matrix: np.ndarray) -> None:
        from ..demography.models import ExponentialDemography

        super().__init__(interval_matrix, ExponentialDemography())

    def log_surface(self, thetas: np.ndarray, growths: np.ndarray) -> np.ndarray:
        """Mean per-genealogy log-likelihood on the (θ, g) grid; shape ``(n_thetas, n_growths)``.

        The mean (rather than the sum) is returned so values are comparable
        across sample counts; the maximizer is unchanged.
        """
        return _growth_grid(self._times, thetas, growths).mean(axis=0)

    def log_likelihood(self, theta: float, growth: float) -> float:
        """Mean log P(G | θ, g) at a single parameter point."""
        return float(self.log_surface(np.asarray([theta]), np.asarray([growth]))[0, 0])


class CombinedGrowthLikelihood(CombinedDemographyLikelihood):
    """Sum of independent per-locus log-likelihood surfaces in (θ, g).

    Unlinked loci share one demography, so their log-likelihoods add.  A
    single locus constrains the growth rate only weakly — the (θ, g)
    surface is a long, nearly flat ridge, and its maximizer is well known to
    overshoot g — while the summed surface accumulates curvature locus by
    locus and pins both parameters down.  Components may be any mix of
    :class:`GrowthRelativeLikelihood` (one locus's relative data
    likelihood; enters the sum as-is) and :class:`GrowthPooledLikelihood`
    (directly observed genealogies; its *mean* surface is rescaled by its
    genealogy count so every observed genealogy carries equal weight in
    the joint maximization, regardless of how the genealogies are split
    across components).  The (θ, g)-signature specialization of
    :class:`~repro.likelihood.demography_prior.CombinedDemographyLikelihood`.
    """

    def log_surface(self, thetas: np.ndarray, growths: np.ndarray) -> np.ndarray:
        """Summed log surface on the (θ, g) grid; shape ``(n_thetas, n_growths)``."""
        total = self._scales[0] * self.components[0].log_surface(thetas, growths)
        for scale, part in zip(self._scales[1:], self.components[1:]):
            total = total + scale * part.log_surface(thetas, growths)
        return total

    def log_likelihood(self, theta: float, growth: float) -> float:
        """Summed log-likelihood at a single parameter point."""
        return float(
            sum(
                scale * part.log_likelihood(theta, growth)
                for scale, part in zip(self._scales, self.components)
            )
        )


@dataclass(frozen=True)
class GrowthEstimate:
    """Result of the two-parameter maximization."""

    theta: float
    growth: float
    log_relative_likelihood: float


def maximize_theta_growth(
    likelihood: GrowthRelativeLikelihood | GrowthPooledLikelihood,
    theta_grid: np.ndarray,
    growth_grid: np.ndarray,
    *,
    refine_iterations: int = 3,
) -> GrowthEstimate:
    """Maximize L(θ, g) by coarse grid search with iterative local refinement.

    A grid pass locates the basin; each refinement pass shrinks the grid by
    a factor of four around the current optimum.  This is the *global*
    maximizer for offline exploration of a caller-chosen region: it scans
    wherever the grids reach, with no notion of a driving point.  The EM
    M-step instead uses :func:`repro.core.estimator.maximize_joint` — a
    trust-region coordinate ascent around the driving values — because the
    importance-sampled surface is only trustworthy near the driving point
    and a region-bounded local ascent is what one M-step needs.
    """
    thetas = np.asarray(theta_grid, dtype=float)
    growths = np.asarray(growth_grid, dtype=float)
    if thetas.ndim != 1 or growths.ndim != 1 or thetas.size < 2 or growths.size < 2:
        raise ValueError("theta_grid and growth_grid must be 1-D with at least two points")
    if np.any(thetas <= 0):
        raise ValueError("theta grid must be positive")

    best_theta, best_growth, best_value = 0.0, 0.0, -np.inf
    for _ in range(max(1, refine_iterations)):
        surface = likelihood.log_surface(thetas, growths)
        ti, gi = np.unravel_index(int(np.argmax(surface)), surface.shape)
        best_theta, best_growth, best_value = (
            float(thetas[ti]),
            float(growths[gi]),
            float(surface[ti, gi]),
        )
        theta_span = (thetas[-1] - thetas[0]) / 4.0
        growth_span = (growths[-1] - growths[0]) / 4.0
        thetas = np.linspace(
            max(best_theta - theta_span / 2.0, 1e-9), best_theta + theta_span / 2.0, thetas.size
        )
        growths = np.linspace(
            best_growth - growth_span / 2.0, best_growth + growth_span / 2.0, growths.size
        )
    return GrowthEstimate(
        theta=best_theta, growth=best_growth, log_relative_likelihood=best_value
    )
