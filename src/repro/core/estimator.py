"""Relative likelihood curve and maximum-likelihood estimation of θ.

The chain, driven by θ₀, produces genealogy samples {G}.  The relative
likelihood of an arbitrary θ is the Monte-Carlo average of prior ratios
(Eq. 26):

    L(θ) = (1/M) Σ_G  P(G | θ) / P(G | θ₀)

The MLE of θ is the maximizer of that curve, found by the gradient ascent of
Algorithm 2 with step halving.  All computation is carried out on the log
scale: ``log L(θ) = logmeanexp_G [ log P(G|θ) − log P(G|θ₀) ]``, which is
both numerically safe (Section 5.3) and shares its maximizer with L(θ).
The batched evaluation over samples × candidate θ values is the work the
posterior-likelihood kernel performs on the device (Section 5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..demography.base import Demography
from ..likelihood.coalescent_prior import (
    PooledThetaLikelihood,
    log_prior_from_weighted,
    weighted_times,
)
from ..likelihood.growth_prior import (
    CombinedGrowthLikelihood,
    GrowthPooledLikelihood,
    GrowthRelativeLikelihood,
)
from .config import EstimatorConfig

__all__ = [
    "RelativeLikelihood",
    "maximize_theta",
    "ThetaEstimate",
    "JointEstimate",
    "maximize_joint",
    "DemographyEstimate",
    "maximize_demography",
]


class RelativeLikelihood:
    """The sampled relative-likelihood function L(θ)/L(θ₀) of Eq. 26."""

    def __init__(self, interval_matrix: np.ndarray, driving_theta: float) -> None:
        mat = np.asarray(interval_matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise ValueError("interval_matrix must be (n_samples, n_intervals) with n_samples >= 1")
        if driving_theta <= 0:
            raise ValueError("driving_theta must be positive")
        self.interval_matrix = mat
        self.driving_theta = float(driving_theta)
        # θ enters Eq. 18 only through log(2/θ) and 1/θ: the weighted time
        # is all the samples contribute, so it is computed once here.
        self._weighted = weighted_times(mat)
        self._log_prior_at_driving = log_prior_from_weighted(
            self._weighted, mat.shape[1], np.asarray([driving_theta])
        )[:, 0]
        #: Curve points evaluated so far (``log_likelihood`` calls).
        self.n_evaluations = 0

    @property
    def n_samples(self) -> int:
        """Number of genealogy samples backing the curve."""
        return self.interval_matrix.shape[0]

    def log_curve(self, thetas: np.ndarray) -> np.ndarray:
        """log L(θ) evaluated at each candidate θ.

        Vectorized over both the sample axis and the θ axis; this is the
        posterior-likelihood kernel's computation.
        """
        thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
        if np.any(thetas <= 0):
            raise ValueError("all theta values must be positive")
        log_ratios = (
            log_prior_from_weighted(self._weighted, self.interval_matrix.shape[1], thetas)
            - self._log_prior_at_driving[:, None]
        )
        peak = log_ratios.max(axis=0)
        return peak + np.log(np.mean(np.exp(log_ratios - peak[None, :]), axis=0))

    def log_likelihood(self, theta: float) -> float:
        """log L(θ) at a single θ."""
        self.n_evaluations += 1
        return float(self.log_curve(np.asarray([theta]))[0])

    def curve(self, thetas: np.ndarray) -> np.ndarray:
        """L(θ) on the natural scale (may overflow for extreme θ; prefer :meth:`log_curve`)."""
        return np.exp(self.log_curve(thetas))


@dataclass(frozen=True)
class ThetaEstimate:
    """Result of one likelihood maximization."""

    theta: float
    log_relative_likelihood: float
    n_iterations: int
    converged: bool


def maximize_theta(
    likelihood: RelativeLikelihood | PooledThetaLikelihood,
    theta0: float,
    config: EstimatorConfig | None = None,
) -> ThetaEstimate:
    """Gradient ascent on log L(θ) with step halving (Algorithm 2).

    Starting from ``theta0``, the gradient is estimated by central
    differences; whenever the proposed step would decrease the objective or
    push θ non-positive, the step is halved.  Iteration stops when θ moves
    less than the convergence tolerance or the iteration budget is spent.
    """
    cfg = config or EstimatorConfig()
    if theta0 <= 0:
        raise ValueError("theta0 must be positive")

    theta = float(theta0)
    current = likelihood.log_likelihood(theta)
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        delta = cfg.gradient_delta * max(theta, 1e-6)
        lo = max(theta - delta, 1e-12)
        hi = theta + delta
        grad = (likelihood.log_likelihood(hi) - likelihood.log_likelihood(lo)) / (hi - lo)

        step = grad
        # Step halving: shrink until the move is uphill and stays positive.
        accepted = False
        for _ in range(cfg.max_step_halvings):
            candidate = theta + step
            if candidate > 0:
                value = likelihood.log_likelihood(candidate)
                if value >= current - 1e-15:
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            converged = True
            break

        moved = abs(candidate - theta)
        theta, current = float(candidate), float(value)
        if moved < cfg.convergence_tol * max(theta, 1.0):
            converged = True
            break

    return ThetaEstimate(
        theta=theta,
        log_relative_likelihood=current,
        n_iterations=iterations,
        converged=converged,
    )


@dataclass(frozen=True)
class JointEstimate:
    """Result of one joint (θ, g) surface maximization."""

    theta: float
    growth: float
    log_relative_likelihood: float
    n_iterations: int
    converged: bool


def _ascend_coordinate(
    objective,
    value: float,
    current: float,
    cfg: EstimatorConfig,
    *,
    positive: bool,
    bounds: tuple[float, float],
) -> tuple[float, float, bool]:
    """One gradient step with halving along a single coordinate.

    ``objective`` maps the coordinate to log L with the other coordinate held
    fixed.  Returns the (possibly unchanged) coordinate, the objective there,
    and whether a step was accepted.  ``positive`` constrains the coordinate
    to stay strictly positive (θ); ``bounds`` is the trust region around the
    driving value — candidates outside it are treated like infeasible moves
    and the step is halved.
    """
    scale = max(value, 1e-6) if positive else max(abs(value), 1.0)
    delta = cfg.gradient_delta * scale
    lo = max(value - delta, 1e-12) if positive else value - delta
    hi = value + delta
    f_lo, f_hi = objective(lo), objective(hi)
    grad = (f_hi - f_lo) / (hi - lo)

    width = bounds[1] - bounds[0]
    if np.isfinite(grad):
        # Clamp to the trust-region width: a cliff-scale finite gradient
        # (|grad| ~ 1e300 next to the growth prior's -inf region) cannot be
        # halved into range within any reasonable budget, and any step
        # longer than the region is infeasible anyway.
        step = float(np.clip(grad, -width, width))
    elif np.isfinite(f_hi) != np.isfinite(f_lo):
        # One probe fell off a -inf cliff: take a region-scale step toward
        # the finite side and let the halving loop refine it.
        step = width if np.isfinite(f_hi) else -width
    else:
        # Both probes are non-finite; no usable direction along this axis.
        return value, current, False
    for _ in range(cfg.max_step_halvings):
        candidate = value + step
        feasible = (not positive or candidate > 0) and bounds[0] <= candidate <= bounds[1]
        if feasible:
            new = objective(candidate)
            if new >= current - 1e-15:
                return float(candidate), float(new), True
        step *= 0.5
    return value, current, False


@dataclass(frozen=True)
class DemographyEstimate:
    """Result of one joint (θ, demography-parameters) surface maximization."""

    theta: float
    params: tuple[float, ...]
    param_names: tuple[str, ...]
    log_relative_likelihood: float
    n_iterations: int
    converged: bool

    @property
    def params_dict(self) -> dict[str, float]:
        """The estimated demography parameters as a name -> value mapping."""
        return dict(zip(self.param_names, self.params))

    @property
    def growth(self) -> float | None:
        """The exponential growth rate, when this demography has one."""
        return self.params_dict.get("growth")


def maximize_demography(
    likelihood,
    theta0: float,
    demography: Demography,
    config: EstimatorConfig | None = None,
) -> DemographyEstimate:
    """Coordinate ascent on log L(θ, params) over (θ, demography.params).

    The N-dimensional generalization of Algorithm 2 and the EM M-step's
    maximizer for any demography: each iteration takes one gradient step in
    θ (halved until uphill and positive) and then one in each demography
    parameter, in :attr:`~repro.demography.base.Demography.param_specs`
    order.  Coordinate-wise steps are used because the finite-sample
    surfaces are ridge-shaped — demography parameters trade off against
    population size — where a joint gradient direction zig-zags.

    ``likelihood`` must expose ``log_likelihood(theta, params)`` with
    ``params`` the demography's free-parameter vector (e.g.
    :class:`~repro.likelihood.demography_prior.DemographyRelativeLikelihood`);
    ``demography`` supplies the starting parameter vector (its current
    values — the chain's driving point) and the per-parameter feasibility
    bounds and trust-region half-widths.  The whole ascent is confined to
    ``[θ₀/max_theta_step_factor, θ₀·max_theta_step_factor]`` ×
    ``Π_i [p₀ᵢ − stepᵢ, p₀ᵢ + stepᵢ] ∩ [lowerᵢ, upperᵢ]`` around the
    driving values (``stepᵢ`` is the spec's ``max_step``, defaulting to
    ``config.max_growth_step``), outside of which an importance-sampled
    surface is dominated by a handful of samples and its maximizer is
    noise; the EM loop re-drives every iteration, so the region limits one
    M-step, not the estimate.  With a parameter-free demography (constant)
    this reduces to θ-only ascent.
    """
    cfg = config or EstimatorConfig()
    if theta0 <= 0:
        raise ValueError("theta0 must be positive")

    specs = demography.param_specs
    theta = float(theta0)
    params = demography.param_values()
    theta_bounds = (theta / cfg.max_theta_step_factor, theta * cfg.max_theta_step_factor)
    param_bounds = []
    for spec, value in zip(specs, params):
        half = spec.max_step if spec.max_step is not None else cfg.max_growth_step
        param_bounds.append((max(value - half, spec.lower), min(value + half, spec.upper)))

    current = likelihood.log_likelihood(theta, params)
    if not np.isfinite(current):
        # The surface is degenerate at the driving point (e.g. saturated
        # growth prior): gradients are NaN and no ascent is possible.
        # Report honestly rather than claiming convergence at the start.
        return DemographyEstimate(
            theta=theta,
            params=tuple(float(p) for p in params),
            param_names=demography.param_names,
            log_relative_likelihood=float(current),
            n_iterations=0,
            converged=False,
        )
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        theta_before = theta
        params_before = params.copy()
        theta, current, theta_accepted = _ascend_coordinate(
            lambda t: likelihood.log_likelihood(t, params),
            theta,
            current,
            cfg,
            positive=True,
            bounds=theta_bounds,
        )
        any_param_accepted = False
        for i in range(params.size):
            def objective(value: float, i: int = i) -> float:
                # Finite-difference probes may step just past a parameter's
                # feasible range (e.g. a bottleneck strength below zero);
                # treat that as log L = -inf so the one-sided-cliff fallback
                # of _ascend_coordinate steps back toward the feasible side
                # instead of the model rejecting the value.
                if not specs[i].lower <= value <= specs[i].upper:
                    return -np.inf
                probe = params.copy()
                probe[i] = value
                return likelihood.log_likelihood(theta, probe)

            params[i], current, accepted = _ascend_coordinate(
                objective,
                float(params[i]),
                current,
                cfg,
                positive=False,
                bounds=param_bounds[i],
            )
            any_param_accepted = any_param_accepted or accepted
        if not theta_accepted and not any_param_accepted:
            converged = True
            break
        theta_settled = abs(theta - theta_before) < cfg.convergence_tol * max(theta, 1.0)
        params_settled = all(
            abs(p - p_before) < cfg.convergence_tol * max(abs(p), 1.0)
            for p, p_before in zip(params, params_before)
        )
        if theta_settled and params_settled:
            converged = True
            break

    return DemographyEstimate(
        theta=theta,
        params=tuple(float(p) for p in params),
        param_names=demography.param_names,
        log_relative_likelihood=current,
        n_iterations=iterations,
        converged=converged,
    )


class _GrowthVectorAdapter:
    """Present a scalar (θ, g)-signature likelihood as a (θ, params) one."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def log_likelihood(self, theta: float, params) -> float:
        return self.inner.log_likelihood(theta, float(np.asarray(params).reshape(-1)[0]))


def maximize_joint(
    likelihood: GrowthRelativeLikelihood | GrowthPooledLikelihood | CombinedGrowthLikelihood,
    theta0: float,
    growth0: float = 0.0,
    config: EstimatorConfig | None = None,
) -> JointEstimate:
    """Coordinate ascent on log L(θ, g) with step halving on both parameters.

    The (θ, g)-signature form of :func:`maximize_demography` with the
    exponential demography (the complementary *global* grid scan, for
    offline use over a caller-chosen region, is
    :func:`repro.likelihood.growth_prior.maximize_theta_growth`).  The
    trust region is ``[θ₀/max_theta_step_factor, θ₀·max_theta_step_factor]
    × [g₀ − max_growth_step, g₀ + max_growth_step]`` around the driving
    values.  Iteration stops when neither parameter moves more than the
    convergence tolerance or the iteration budget is spent.
    """
    from ..demography.models import ExponentialDemography

    estimate = maximize_demography(
        _GrowthVectorAdapter(likelihood),
        theta0,
        ExponentialDemography(growth=float(growth0)),
        config,
    )
    return JointEstimate(
        theta=estimate.theta,
        growth=estimate.params[0],
        log_relative_likelihood=estimate.log_relative_likelihood,
        n_iterations=estimate.n_iterations,
        converged=estimate.converged,
    )
