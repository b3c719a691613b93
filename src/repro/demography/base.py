"""The ``Demography`` protocol: one abstraction for every coalescent prior.

A demography describes how the (scaled) population size varies backwards in
time.  Everything downstream needs only three functions of it:

``intensity`` — ν(t)
    The *relative coalescent intensity* at time ``t`` (backwards from the
    present): the instantaneous pairwise coalescent rate is
    ``2 ν(t) / θ``, so ``k`` lineages coalesce at total hazard
    ``k (k − 1) ν(t) / θ``.  The constant-size model of the paper is
    ν ≡ 1; exponential growth ``g`` is ν(t) = e^{g t}.

``cumulative_intensity`` — Λ(t) = ∫₀ᵗ ν(s) ds
    The integrated intensity.  In the *rescaled* time τ = Λ(t) every
    demography becomes the constant-size coalescent, which is what lets the
    proposal kernel (:mod:`repro.proposals`) and the simulator
    (:mod:`repro.simulate.demography_sim`) stay demography-generic: run the
    constant-size machinery in τ and map event times back through Λ⁻¹.

``batched_log_prior``
    log P(G | θ, params) for a batch of genealogies given as coalescent
    interval matrices — the demography-parameterized generalization of
    Eq. 18 (:mod:`repro.likelihood.coalescent_prior`) and of the
    exponential-growth density (:mod:`repro.likelihood.growth_prior`):

        log P(G | θ) = Σ_events [ log(2/θ) + log ν(t_event) ]
                       − Σ_intervals k (k − 1) · (Λ(t_end) − Λ(t_start)) / θ

    θ enters only through ``log(2/θ)`` and ``1/θ``, so every model reduces
    a batch to two per-genealogy vectors (:meth:`Demography.prior_terms`):

        log P(G | θ) = n_intervals · log(2/θ) + event_sum − exposure / θ

    Surfaces that probe many θ at fixed parameters
    (:mod:`repro.likelihood.demography_prior`) build those terms once per
    parameter vector and combine them per θ with :func:`log_prior_from_terms`.

Concrete demographies are frozen dataclasses whose fields are the model's
free parameters; :attr:`Demography.param_specs` declares each parameter's
default, feasible bounds, and trust-region step so the joint estimator
(:func:`repro.core.estimator.maximize_demography`) can ascend over
``(θ, params)`` without model-specific code.  Instances are registered by
name in :mod:`repro.demography.registry` and serialize to
``{"name": ..., "params": {...}}`` documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, ClassVar, Mapping

import numpy as np

from ..brent import brentq

__all__ = [
    "ParamSpec",
    "Demography",
    "IntervalTimes",
    "log_prior_from_terms",
    "prior_ratio_adjustment",
]


class IntervalTimes:
    """A batch of genealogies' coalescent intervals and the times derived from them.

    ``lengths`` is the ``(n_samples, n_intervals)`` interval matrix (row
    ``m`` is sampled genealogy ``m``, with ``n − i`` lineages during
    interval ``i``); ``coeff`` holds each interval's ``k (k − 1)``.  The
    interval start/end times are computed on first use and then kept, so a
    surface that evaluates many parameter vectors over the same samples
    pays for them once.
    """

    def __init__(self, interval_matrix: np.ndarray) -> None:
        mat = np.asarray(interval_matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("interval_matrix must be 2-D (n_samples, n_intervals)")
        self.lengths = mat
        self.n_intervals = mat.shape[1]
        lineages = (self.n_intervals + 1) - np.arange(self.n_intervals)
        self.coeff = (lineages * (lineages - 1)).astype(float)

    @cached_property
    def ends(self) -> np.ndarray:
        """Time (backwards) at which each interval ends."""
        return np.cumsum(self.lengths, axis=1)

    @cached_property
    def starts(self) -> np.ndarray:
        """Time (backwards) at which each interval starts."""
        return self.ends - self.lengths


def log_prior_from_terms(n_intervals: int, terms, theta: float) -> np.ndarray:
    """log P(G | θ) = n_intervals · log(2/θ) + event_sum − exposure / θ.

    ``terms`` is a :meth:`Demography.prior_terms` pair; an ``event_sum`` of
    ``None`` (the constant-size model) contributes nothing.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    event_sum, exposure = terms
    event_term = n_intervals * np.log(2.0 / theta)
    if event_sum is not None:
        event_term = event_term + event_sum
    return event_term - exposure / theta


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one free demography parameter.

    Attributes
    ----------
    name:
        Field name on the demography dataclass (and key in serialized
        ``params`` documents).
    default:
        Value used when a config does not set the parameter.
    lower, upper:
        Hard feasibility bounds (the estimator's ascent never evaluates
        outside them).
    max_step:
        Trust-region half-width for one M-step of the joint estimator;
        ``None`` defers to ``EstimatorConfig.max_growth_step`` (the generic
        per-parameter step bound).
    description:
        One-line human description (``mpcgs info`` and docs).
    """

    name: str
    default: float
    lower: float = -math.inf
    upper: float = math.inf
    max_step: float | None = None
    description: str = ""


class Demography:
    """Base class of all demographic models (see module docstring).

    Subclasses are frozen dataclasses; their dataclass fields must match
    :attr:`param_specs` one-to-one.  Subclasses implement
    :meth:`log_intensity` and :meth:`cumulative_intensity` (vectorized over
    ``t``); :meth:`inverse_cumulative_intensity` has a generic bisection
    default that closed-form models should override.
    """

    #: Registry name of the model ("constant", "exponential", …).
    name: ClassVar[str] = ""
    #: Free parameters, in the order the estimator's profile ascent visits them.
    param_specs: ClassVar[tuple[ParamSpec, ...]] = ()

    # ------------------------------------------------------------------ #
    # Parameter vector machinery
    # ------------------------------------------------------------------ #
    @property
    def param_names(self) -> tuple[str, ...]:
        """Names of the free parameters, in estimation order."""
        return tuple(spec.name for spec in self.param_specs)

    @property
    def params(self) -> dict[str, float]:
        """Current parameter values as an ordered name -> value mapping."""
        return {name: float(getattr(self, name)) for name in self.param_names}

    def param_values(self) -> np.ndarray:
        """Current parameter values as a vector (the estimator's coordinates)."""
        return np.asarray([getattr(self, name) for name in self.param_names], dtype=float)

    def with_params(self, **changes: float) -> "Demography":
        """Copy of this demography with the named parameters replaced."""
        unknown = sorted(set(changes) - set(self.param_names))
        if unknown:
            raise ValueError(
                f"unknown {self.name or type(self).__name__} parameter(s) {unknown}; "
                f"valid parameters are {list(self.param_names)}"
            )
        return replace(self, **{k: float(v) for k, v in changes.items()})

    def with_param_values(self, values) -> "Demography":
        """Copy of this demography with the whole parameter vector replaced."""
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size != len(self.param_names):
            raise ValueError(
                f"{self.name or type(self).__name__} takes {len(self.param_names)} "
                f"parameter(s) {list(self.param_names)}, got {values.size}"
            )
        return self.with_params(**dict(zip(self.param_names, values)))

    # ------------------------------------------------------------------ #
    # The three model functions
    # ------------------------------------------------------------------ #
    @property
    def is_constant(self) -> bool:
        """True when this instance is the constant-size coalescent (ν ≡ 1).

        Samplers use this to skip demography machinery entirely — e.g.
        exponential growth at g = 0 runs the paper's chain bit-for-bit.
        """
        return False

    def intensity(self, t):
        """Relative coalescent intensity ν(t) (vectorized)."""
        return np.exp(self.log_intensity(t))

    def log_intensity(self, t):
        """log ν(t) (vectorized) — the per-event term of the prior."""
        raise NotImplementedError

    def cumulative_intensity(self, t):
        """Λ(t) = ∫₀ᵗ ν(s) ds (vectorized; must handle ``t = inf``)."""
        raise NotImplementedError

    def total_intensity(self) -> float:
        """Λ(∞): ``inf`` unless the demography declines so fast backwards in
        time that the integrated intensity converges (e.g. exponential
        g < 0), in which case lineages may never coalesce."""
        return float(self.cumulative_intensity(np.inf))

    def inverse_cumulative_intensity(self, y):
        """Λ⁻¹(y): the time at which the integrated intensity reaches ``y``.

        Generic monotone inversion; models with closed-form inverses
        override this.  Scalars go through :func:`repro.brent.brentq`; array
        inputs run one vectorized bracketing-plus-bisection over the whole
        batch (the batched proposal kernel maps every sampled τ of a
        proposal set back to calendar time in a single call); no element's
        value depends on the rest of the batch.  ``y`` beyond Λ(∞) raises.
        """
        if np.ndim(y) == 0:
            return self._invert_scalar(float(y))
        return self._invert_array(np.asarray(y, dtype=float))

    def _invert_array(self, targets: np.ndarray) -> np.ndarray:
        """Vectorized Λ⁻¹ by doubling bracket + bisection (monotone Λ)."""
        flat = targets.reshape(-1)
        out = np.zeros_like(flat)
        if np.any(flat < 0):
            raise ValueError("cumulative intensity is non-negative")
        out[~np.isfinite(flat)] = math.inf
        live = np.isfinite(flat) & (flat > 0.0)
        if not np.any(live):
            return out.reshape(targets.shape)
        total = self.total_intensity()
        if np.any(flat[live] >= total):
            worst = float(np.max(flat[live]))
            raise ValueError(
                f"cumulative intensity {worst} exceeds the demography's total "
                f"integrated intensity {total}"
            )
        y = flat[live]
        hi = np.maximum(y, 1.0)
        for _ in range(200):
            short = np.asarray(self.cumulative_intensity(hi), dtype=float) < y
            if not np.any(short):
                break
            hi = np.where(short, hi * 2.0, hi)
        else:  # pragma: no cover - total_intensity() guard prevents this
            raise ValueError("failed to bracket the inverse cumulative intensity")
        lo = np.zeros_like(hi)
        # Each element stops once its own bracket has converged, so its bits
        # do not depend on the batch.  100 halvings shrink the widest bracket
        # below any representable spacing (matches the xtol of
        # 1e-12·max(hi, 1) that _invert_scalar passes to repro.brent.brentq).
        active = np.arange(y.size)
        for _ in range(100):
            mid = 0.5 * (lo[active] + hi[active])
            below = np.asarray(self.cumulative_intensity(mid), dtype=float) < y[active]
            lo[active] = np.where(below, mid, lo[active])
            hi[active] = np.where(below, hi[active], mid)
            active = active[hi[active] - lo[active] > 1e-12 * np.maximum(hi[active], 1.0)]
            if not active.size:
                break
        out[live] = 0.5 * (lo + hi)
        return out.reshape(targets.shape)

    def _invert_scalar(self, target: float) -> float:
        if target < 0:
            raise ValueError("cumulative intensity is non-negative")
        if target == 0.0:
            return 0.0
        if not math.isfinite(target):
            return math.inf
        if target >= self.total_intensity():
            raise ValueError(
                f"cumulative intensity {target} exceeds the demography's total "
                f"integrated intensity {self.total_intensity()}"
            )
        hi = max(target, 1.0)
        for _ in range(200):
            if float(self.cumulative_intensity(hi)) >= target:
                break
            hi *= 2.0
        else:  # pragma: no cover - total_intensity() guard prevents this
            raise ValueError("failed to bracket the inverse cumulative intensity")
        return brentq(
            lambda t: float(self.cumulative_intensity(t)) - target,
            0.0,
            hi,
            xtol=1e-12 * max(hi, 1.0),
        )

    def integrated_intensity(self, starts, ends):
        """Λ(ends) − Λ(starts): each interval's coalescent exposure.

        Models whose Λ difference has a cancellation-free closed form (the
        exponential) override this for precision; the default subtracts the
        cumulative intensities.
        """
        return self.cumulative_intensity(ends) - self.cumulative_intensity(starts)

    # ------------------------------------------------------------------ #
    # The demography-parameterized coalescent prior
    # ------------------------------------------------------------------ #
    def prior_terms(self, times: IntervalTimes) -> tuple[np.ndarray | None, np.ndarray]:
        """The θ-free terms ``(event_sum, exposure)`` of the batched prior.

        ``event_sum`` is Σ_events log ν(t_event) per genealogy (``None``
        when it is identically zero) and ``exposure`` is
        Σ_intervals k (k − 1) (Λ(t_end) − Λ(t_start)); see
        :func:`log_prior_from_terms`.  Models override this with their
        closed forms.
        """
        event_sum = self.log_intensity(times.ends).sum(axis=1)
        exposure = (
            self.integrated_intensity(times.starts, times.ends) * times.coeff[None, :]
        ).sum(axis=1)
        return event_sum, exposure

    def batched_log_prior(self, interval_matrix: np.ndarray, theta: float) -> np.ndarray:
        """log P(G | θ, params) for each row of ``interval_matrix``.

        ``interval_matrix`` is ``(n_samples, n_intervals)`` of coalescent
        interval lengths — row ``m`` is the reduced representation of
        sampled genealogy ``m`` (``n − i`` lineages during interval ``i``).
        Returns a ``(n_samples,)`` vector of log densities.
        """
        times = IntervalTimes(interval_matrix)
        return log_prior_from_terms(times.n_intervals, self.prior_terms(times), theta)

    def log_prior(self, interval_lengths: np.ndarray, theta: float) -> float:
        """log P(G | θ, params) for a single genealogy's interval lengths."""
        lengths = np.asarray(interval_lengths, dtype=float)
        if lengths.ndim != 1 or lengths.size < 1:
            raise ValueError("interval_lengths must be a non-empty 1-D array")
        return float(self.batched_log_prior(lengths[None, :], theta)[0])

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, Any]:
        """``{"name": ..., "params": {...}}`` — the structured config spec."""
        return {"name": self.name, "params": self.params}

    @classmethod
    def from_params(cls, params: Mapping[str, float] | None = None) -> "Demography":
        """Build an instance from a (possibly partial) parameter mapping."""
        params = dict(params or {})
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(
                f"unknown {cls.name or cls.__name__} parameter(s) {unknown}; "
                f"valid parameters are {sorted(known)}"
            )
        return cls(**{k: float(v) for k, v in params.items()})

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({inner})" if inner else self.name


def prior_ratio_adjustment(demography: Demography, theta: float):
    """The batched log prior-ratio hook log π_dem(G|θ) − log π_const(G|θ).

    This is the importance correction a *constant-kernel* chain applies to
    target the posterior under ``demography`` instead (the PR-3 growth
    mechanism, now demography-generic): the neighbourhood kernel proposes
    from the constant-size conditional coalescent, whose prior factor
    cancels out of the GMH index weights (Eq. 31) and of the MH acceptance
    ratio (Eq. 28), so re-targeting multiplies each candidate's weight by
    π_dem(G̃ᵢ)/π_const(G̃ᵢ | θ).  Returns a callable mapping a sequence of
    genealogies to the per-tree log-ratio vector (batched — it sits on the
    proposal-set hot path).
    """
    from .models import ConstantDemography

    constant = ConstantDemography()

    def adjustment(trees) -> np.ndarray:
        # One IntervalTimes serves both priors, so the interval times are
        # computed once per proposal set.
        times = IntervalTimes(np.vstack([tree.interval_representation() for tree in trees]))
        n = times.n_intervals
        return log_prior_from_terms(n, demography.prior_terms(times), theta) - (
            log_prior_from_terms(n, constant.prior_terms(times), theta)
        )

    return adjustment
