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
This module provides that density, single and batched over samples × a
(θ, g) grid, and its θ-free terms.

Growth is one member of the demography-parameterized prior family
(:mod:`repro.demography`): ``ExponentialDemography`` takes its prior terms
from :func:`growth_prior_terms`, and its likelihood surfaces and maximizer
are the generic ones in :mod:`repro.likelihood.demography_prior` and
:func:`repro.core.estimator.maximize_demography`.  This module remains the
single source of truth for the exponential density and its overflow
handling.
"""

from __future__ import annotations

import numpy as np

from ..demography.base import IntervalTimes, log_prior_from_terms

__all__ = [
    "log_growth_prior",
    "growth_prior_terms",
    "batched_log_growth_prior",
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


def batched_log_growth_prior(
    interval_matrix: np.ndarray, thetas: np.ndarray, growths: np.ndarray
) -> np.ndarray:
    """log P(G | θ, g) for every sample × every (θ, g) grid point.

    Returns an array of shape ``(n_samples, n_thetas, n_growths)`` — the
    batched quantity a two-parameter posterior-likelihood kernel reduces.
    """
    times = IntervalTimes(interval_matrix)
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
