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
from .config import EstimatorConfig

__all__ = [
    "RelativeLikelihood",
    "maximize_theta",
    "ThetaEstimate",
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

    @property
    def params(self) -> tuple[float, ...]:
        """The θ-only estimate's demography parameters: none."""
        return ()


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


#: Log-spaced points of the global θ scan that starts every θ̂(params) solve.
_THETA_SCAN_POINTS = 33
#: Evenly spaced points per demography parameter scanned in the first sweep.
_PARAM_SCAN_POINTS = 13
#: Newton/bisection budget of the θ̂ solve inside its grid cell, and its
#: relative stopping tolerance in θ.
_THETA_SOLVE_ITERATIONS = 60
_THETA_SOLVE_TOL = 1e-12


def _theta_grid(bounds: tuple[float, float]) -> np.ndarray:
    """``_THETA_SCAN_POINTS`` log-spaced θ values from ``bounds[0]`` to ``bounds[1]`` exactly."""
    grid = np.geomspace(bounds[0], bounds[1], _THETA_SCAN_POINTS)
    grid[0], grid[-1] = bounds
    return grid


def _solve_theta(likelihood, params, grid: np.ndarray, fallback: float):
    """θ̂(params) = argmax over ``[grid[0], grid[-1]]`` of log L(θ, params),
    and log L there.

    One ``log_curve`` call scans the log-spaced ``grid`` (see
    :func:`_theta_grid`) over the whole trust interval — the relative
    surface can be bimodal in θ, so a local solve from the driving θ alone
    may climb the wrong mode.
    The best grid point's derivative sign picks the cell holding the
    maximum (or, pointing out of the interval at an end point, makes that
    end the answer); a Newton iteration on d log L/dθ = 0 then runs inside
    that cell, bisecting whenever the step leaves the bracket or the
    curvature is not negative.  The best point evaluated is returned, so
    the result is never below the grid's maximum.  An all −∞ curve yields
    ``(fallback, -inf)``.
    """
    curve = likelihood.log_curve(grid, params)
    curve = np.where(np.isnan(curve), -np.inf, curve)
    i = int(np.argmax(curve))
    if curve[i] == -np.inf:
        return fallback, -np.inf
    theta = float(grid[i])
    value, d1, d2 = likelihood.theta_derivatives(theta, params)
    if d1 > 0 and i < grid.size - 1:
        a, b = theta, float(grid[i + 1])
    elif d1 < 0 and i > 0:
        a, b = float(grid[i - 1]), theta
    else:
        # A stationary grid point, or an end point whose slope leaves the interval.
        return theta, value
    best_theta, best = theta, value
    for _ in range(_THETA_SOLVE_ITERATIONS):
        if b - a <= _THETA_SOLVE_TOL * b:
            break
        candidate = theta - d1 / d2 if d2 < 0 else np.nan
        if not a < candidate < b:
            candidate = 0.5 * (a + b)
        elif abs(candidate - theta) <= _THETA_SOLVE_TOL * theta:
            break  # the Newton step from theta is negligible: theta is the root
        theta = candidate
        value, d1, d2 = likelihood.theta_derivatives(theta, params)
        if value > best:
            best_theta, best = theta, value
        if not np.isfinite(d1) or d1 == 0.0:
            break
        if d1 > 0:
            a = theta
        else:
            b = theta
    return best_theta, best


def _scan_coordinate(objective, value: float, current: float, bounds: tuple[float, float]):
    """The best of ``value`` and ``_PARAM_SCAN_POINTS`` evenly spaced points
    over ``bounds``: ``(coordinate, objective there, whether it moved)``."""
    best_value, best = value, current
    for point in np.linspace(bounds[0], bounds[1], _PARAM_SCAN_POINTS):
        f = objective(float(point))
        if f > best:
            best_value, best = float(point), f
    return best_value, best, best_value != value


def _ascend_coordinate(
    objective,
    value: float,
    current: float,
    cfg: EstimatorConfig,
    bounds: tuple[float, float],
) -> tuple[float, float, bool]:
    """One Newton step with halving along a single coordinate.

    ``objective`` maps the coordinate to log L with the other coordinates
    held fixed (θ profiled out).  The two central-difference probes and
    ``current`` give both the slope and the curvature: with negative
    curvature the step is Newton's, otherwise it is the slope itself (the
    gradient step).  A step past the trust region ``bounds`` is projected
    onto it; a step that goes downhill is halved.  Returns the (possibly
    unchanged) coordinate, the objective there, and whether it moved.
    """
    delta = cfg.gradient_delta * max(abs(value), 1.0)
    lo, hi = value - delta, value + delta
    f_lo, f_hi = objective(lo), objective(hi)
    grad = (f_hi - f_lo) / (hi - lo)

    width = bounds[1] - bounds[0]
    if np.isfinite(grad):
        curvature = (f_hi - 2.0 * current + f_lo) / (delta * delta)
        step = -grad / curvature if curvature < 0 else grad
    elif np.isfinite(f_hi) != np.isfinite(f_lo):
        # One probe fell off a -inf cliff: take a region-scale step toward
        # the finite side and let the halving loop refine it.
        step = width if np.isfinite(f_hi) else -width
    else:
        # Both probes are non-finite; no usable direction along this axis.
        return value, current, False
    candidate = min(max(value + step, bounds[0]), bounds[1])
    for _ in range(cfg.max_step_halvings):
        if candidate == value:
            break
        new = objective(candidate)
        if new >= current - 1e-15:
            return float(candidate), float(new), True
        candidate = value + 0.5 * (candidate - value)
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
    """Maximize log L(θ, params) over (θ, demography.params) by profiling θ out.

    The N-dimensional generalization of Algorithm 2 and the EM M-step's
    maximizer for any demography.  For fixed parameters the surface's θ
    axis is closed-form (``log L = logmeanexp_s(n·log(2/θ) + E_s − X_s/θ −
    d_s)``), so θ is never stepped: every parameter vector gets its exact
    θ̂(params) from :func:`_solve_theta` — a global log-spaced scan of the θ
    trust interval, then a safeguarded Newton solve in the best cell — and
    the ascent runs on the profile ℓ_p(params) = log L(θ̂(params), params).
    Profiling removes the θ–parameter ridge along which a coordinate step in
    θ creeps.  Each sweep takes one Newton step per parameter, in
    :attr:`~repro.demography.base.Demography.param_specs` order, from its
    two central-difference probes (the gradient step where the curvature is
    not negative), projected onto the trust region and halved until uphill;
    the first sweep starts each parameter from the best of its current
    value and ``_PARAM_SCAN_POINTS`` evenly spaced points over its trust
    interval, so a lower mode of the profile is not climbed instead.  The
    ascent stops when a sweep moves no parameter by more than the
    convergence tolerance, or after ``max_iterations`` sweeps.

    ``likelihood`` must expose ``log_curve(thetas, params)`` and
    ``theta_derivatives(theta, params)`` with ``params`` the demography's
    free-parameter vector (e.g.
    :class:`~repro.likelihood.demography_prior.DemographyRelativeLikelihood`);
    ``demography`` supplies the starting parameter vector (its current
    values — the chain's driving point) and the per-parameter feasibility
    bounds and trust-region half-widths.  The whole search is confined to
    ``[θ₀/max_theta_step_factor, θ₀·max_theta_step_factor]`` ×
    ``Π_i [p₀ᵢ − stepᵢ, p₀ᵢ + stepᵢ] ∩ [lowerᵢ, upperᵢ]`` around the
    driving values (``stepᵢ`` is the spec's ``max_step``, defaulting to
    ``config.max_growth_step``), outside of which an importance-sampled
    surface is dominated by a handful of samples and its maximizer is
    noise; the EM loop re-drives every iteration, so the region limits one
    M-step, not the estimate.  With a parameter-free demography (constant)
    this is θ̂ alone.  A profile of −∞ at the driving parameters is
    reported as ``converged=False`` at (θ₀, params₀) after 0 iterations.
    """
    cfg = config or EstimatorConfig()
    if theta0 <= 0:
        raise ValueError("theta0 must be positive")

    specs = demography.param_specs
    theta0 = float(theta0)
    params = demography.param_values()
    theta_grid = _theta_grid(
        (theta0 / cfg.max_theta_step_factor, theta0 * cfg.max_theta_step_factor)
    )
    param_bounds = []
    for spec, value in zip(specs, params):
        half = spec.max_step if spec.max_step is not None else cfg.max_growth_step
        param_bounds.append((max(value - half, spec.lower), min(value + half, spec.upper)))

    solved: dict[bytes, tuple[float, float]] = {}

    def profile(vector: np.ndarray) -> tuple[float, float]:
        """(θ̂, log L(θ̂, vector)), solved once per parameter vector."""
        key = vector.tobytes()
        if key not in solved:
            solved[key] = _solve_theta(likelihood, vector, theta_grid, theta0)
        return solved[key]

    current = profile(params)[1]
    if not np.isfinite(current):
        # The surface is degenerate at the driving parameters (e.g. a
        # saturated growth prior): no ascent is possible.  Report honestly
        # rather than claiming convergence at the start.
        return DemographyEstimate(
            theta=theta0,
            params=tuple(float(p) for p in params),
            param_names=demography.param_names,
            log_relative_likelihood=float(current),
            n_iterations=0,
            converged=False,
        )
    converged = False
    iterations = 0

    for iterations in range(1, cfg.max_iterations + 1):
        params_before = params.copy()
        any_moved = False
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
                return profile(probe)[1]

            scanned = False
            if iterations == 1:
                params[i], current, scanned = _scan_coordinate(
                    objective, float(params[i]), current, param_bounds[i]
                )
            params[i], current, stepped = _ascend_coordinate(
                objective, float(params[i]), current, cfg, param_bounds[i]
            )
            any_moved = any_moved or scanned or stepped
        if not any_moved or all(
            abs(p - p_before) < cfg.convergence_tol * max(abs(p), 1.0)
            for p, p_before in zip(params, params_before)
        ):
            converged = True
            break

    theta, current = profile(params)
    return DemographyEstimate(
        theta=theta,
        params=tuple(float(p) for p in params),
        param_names=demography.param_names,
        log_relative_likelihood=current,
        n_iterations=iterations,
        converged=converged,
    )
