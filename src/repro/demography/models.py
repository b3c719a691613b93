"""Stock demographic models: constant, exponential, bottleneck, logistic.

The paper's evaluation runs entirely under the constant-size Kingman
coalescent; its future-work section (Section 7) sketches estimating
parameters beyond θ, and the LAMARC program this work descends from
(Kuhner et al.) ships exactly this menu of demographies — a constant size,
an exponential growth rate, and piecewise/sigmoid size curves for
bottlenecks and logistic expansions.  Each model here supplies the three
functions of the :class:`~repro.demography.base.Demography` protocol
(ν, Λ, Λ⁻¹), closed-form prior terms where it has them, and declares its
free parameters with bounds so the joint estimator can ascend over them.

Numerical contracts:

* ``ExponentialDemography(growth=0)`` *is* the constant model —
  ``is_constant`` is true and the prior delegates to the constant-size
  code path, so the g → 0 limit matches the paper's prior bit-for-bit.
* ``ConstantDemography``'s prior terms are those of
  :func:`repro.likelihood.coalescent_prior.batched_log_prior` and
  ``ExponentialDemography``'s come from
  :func:`repro.likelihood.growth_prior.growth_prior_terms`, keeping the
  demography layer bit-compatible with the pre-existing specialized
  implementations (and their overflow handling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .base import Demography, IntervalTimes, ParamSpec

__all__ = [
    "ConstantDemography",
    "ExponentialDemography",
    "BottleneckDemography",
    "LogisticDemography",
]


@dataclass(frozen=True)
class ConstantDemography(Demography):
    """The paper's constant-size Kingman coalescent: ν(t) ≡ 1.

    No free parameters — θ alone is estimated, exactly the Eq. 18 prior of
    :mod:`repro.likelihood.coalescent_prior` (whose batched prior this
    reproduces bit-for-bit).
    """

    name: ClassVar[str] = "constant"
    param_specs: ClassVar[tuple[ParamSpec, ...]] = ()

    @property
    def is_constant(self) -> bool:
        return True

    def log_intensity(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def cumulative_intensity(self, t):
        return np.asarray(t, dtype=float) + 0.0

    def inverse_cumulative_intensity(self, y):
        return np.asarray(y, dtype=float) + 0.0

    def integrated_intensity(self, starts, ends):
        return np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)

    def prior_terms(self, times: IntervalTimes) -> tuple[None, np.ndarray]:
        from ..likelihood.coalescent_prior import weighted_times

        # Eq. 18: no event term, and the exposure is Σ k (k − 1) t.
        return None, weighted_times(times.lengths)


@dataclass(frozen=True)
class ExponentialDemography(Demography):
    """Exponential growth: θ(t) = θ e^{−g t} backwards in time, ν(t) = e^{g t}.

    The classic second LAMARC parameter.  ``growth > 0`` means the
    population has been growing toward the present (sizes shrink backwards
    in time, so coalescences accelerate into the past); ``growth < 0`` is
    decline, under which the total integrated intensity Λ(∞) = 1/|g| is
    finite and lineages may never coalesce (handled explicitly by the
    simulator and by Λ⁻¹).
    """

    name: ClassVar[str] = "exponential"
    param_specs: ClassVar[tuple[ParamSpec, ...]] = (
        ParamSpec(
            "growth",
            default=0.0,
            description="exponential growth rate g of θ(t) = θ·exp(−g t)",
        ),
    )

    growth: float = 0.0

    @property
    def is_constant(self) -> bool:
        return self.growth == 0.0

    @property
    def _linear(self) -> bool:
        """Treat sub-normal |g| as the g → 0 limit: ``g·t`` underflows to
        zero there, which would silently collapse Λ to 0 instead of t."""
        return abs(self.growth) < np.finfo(float).tiny

    def log_intensity(self, t):
        return self.growth * np.asarray(t, dtype=float)

    def cumulative_intensity(self, t):
        t = np.asarray(t, dtype=float)
        if self._linear:
            return t + 0.0
        with np.errstate(over="ignore"):
            return np.expm1(self.growth * t) / self.growth

    def total_intensity(self) -> float:
        return math.inf if self.growth >= 0.0 or self._linear else -1.0 / self.growth

    def inverse_cumulative_intensity(self, y):
        y = np.asarray(y, dtype=float)
        if self._linear:
            return y + 0.0
        inner = self.growth * y
        if np.any(inner <= -1.0):
            raise ValueError(
                "cumulative intensity exceeds the declining demography's total "
                f"integrated intensity 1/|g| = {self.total_intensity()}"
            )
        return np.log1p(inner) / self.growth

    def integrated_intensity(self, starts, ends):
        from ..likelihood.growth_prior import _growth_integral

        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        return _growth_integral(starts, ends, self.growth)

    def prior_terms(self, times: IntervalTimes) -> tuple[np.ndarray | None, np.ndarray]:
        if self.growth == 0.0:
            # The g -> 0 limit *is* the constant prior; delegating keeps the
            # limit bit-for-bit (and skips the growth-integral machinery).
            return ConstantDemography().prior_terms(times)
        from ..likelihood.growth_prior import growth_prior_terms

        return growth_prior_terms(times, self.growth)


@dataclass(frozen=True)
class BottleneckDemography(Demography):
    """A population-size bottleneck: ν = 1/strength during [start, start+duration).

    The piecewise-constant size history LAMARC-family methods use to model a
    crash-and-recovery: backwards in time the population sits at its present
    size until ``start``, drops to a fraction ``strength`` of it for
    ``duration`` time units (coalescences accelerate by 1/strength), then
    returns to the present size.  Λ is piecewise linear with a closed-form
    inverse.  ``strength > 1`` models an ancient *expansion* instead.
    """

    name: ClassVar[str] = "bottleneck"
    param_specs: ClassVar[tuple[ParamSpec, ...]] = (
        ParamSpec(
            "start",
            default=0.1,
            lower=1e-9,
            max_step=0.5,
            description="time (backwards) at which the bottleneck begins",
        ),
        ParamSpec(
            "duration",
            default=0.1,
            lower=1e-9,
            max_step=0.5,
            description="length of the bottleneck interval",
        ),
        ParamSpec(
            "strength",
            default=0.2,
            lower=1e-6,
            max_step=0.5,
            description="relative population size during the bottleneck",
        ),
    )

    start: float = 0.1
    duration: float = 0.1
    strength: float = 0.2

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("bottleneck start must be non-negative")
        if self.duration < 0:
            raise ValueError("bottleneck duration must be non-negative")
        if self.strength <= 0:
            raise ValueError("bottleneck strength must be positive")

    @property
    def is_constant(self) -> bool:
        return self.strength == 1.0 or self.duration == 0.0

    def log_intensity(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.start) & (t < self.start + self.duration)
        return np.where(inside, -math.log(self.strength), 0.0)

    def cumulative_intensity(self, t):
        t = np.asarray(t, dtype=float)
        end = self.start + self.duration
        inside = self.start + (np.minimum(t, end) - self.start) / self.strength
        return np.where(
            t <= self.start,
            t,
            np.where(t <= end, inside, t - self.duration + self.duration / self.strength),
        )

    def inverse_cumulative_intensity(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise ValueError("cumulative intensity is non-negative")
        bottleneck_mass = self.duration / self.strength
        in_bottleneck = self.start + (np.minimum(y, self.start + bottleneck_mass) - self.start) * self.strength
        return np.where(
            y <= self.start,
            y,
            np.where(
                y <= self.start + bottleneck_mass,
                in_bottleneck,
                y - bottleneck_mass + self.duration,
            ),
        )


@dataclass(frozen=True)
class LogisticDemography(Demography):
    """Logistic (sigmoid) size change between the present size and ``floor``·size.

    Backwards in time the relative population size follows
    ``r(t) = floor + (1 − floor) / (1 + e^{rate (t − midpoint)})`` — near 1
    at the present, sliding to the ancestral fraction ``floor`` around
    ``midpoint`` at steepness ``rate``.  This is the smooth growth curve of
    the LAMARC lineage's logistic-growth option (``floor < 1`` models a
    population that expanded logistically toward the present; ``floor > 1``
    one that shrank).  ν = 1/r has a closed-form Λ; Λ⁻¹ uses the generic
    monotone bisection.
    """

    name: ClassVar[str] = "logistic"
    param_specs: ClassVar[tuple[ParamSpec, ...]] = (
        ParamSpec(
            "rate",
            default=4.0,
            lower=1e-6,
            max_step=2.0,
            description="steepness of the logistic size transition",
        ),
        ParamSpec(
            "midpoint",
            default=0.5,
            lower=0.0,
            max_step=0.5,
            description="time (backwards) of the half-way size",
        ),
        ParamSpec(
            "floor",
            default=0.25,
            lower=1e-6,
            max_step=0.5,
            description="ancestral relative population size",
        ),
    )

    rate: float = 4.0
    midpoint: float = 0.5
    floor: float = 0.25

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError("logistic rate must be positive")
        if self.midpoint < 0:
            raise ValueError("logistic midpoint must be non-negative")
        if self.floor <= 0:
            raise ValueError("logistic floor must be positive")

    @property
    def is_constant(self) -> bool:
        return self.floor == 1.0

    def _x(self, t):
        return self.rate * (np.asarray(t, dtype=float) - self.midpoint)

    def log_intensity(self, t):
        # nu = (1 + e^x) / (1 + floor e^x), computed in log space.
        x = self._x(t)
        return np.logaddexp(0.0, x) - np.logaddexp(0.0, x + math.log(self.floor))

    def _antiderivative(self, x):
        """F(x) with Λ(t) = (F(x(t)) − F(x(0))) / rate; F' = ν ∘ x⁻¹."""
        x = np.asarray(x, dtype=float)
        s = self.floor
        # x − log(1 + s e^x) → −log s as x → ∞; the direct difference is
        # inf − inf there, so substitute the limit explicitly.
        with np.errstate(invalid="ignore"):
            tail = x - np.logaddexp(0.0, x + math.log(s))
        tail = np.where(np.isposinf(x), -math.log(s), tail)
        return x / s + (1.0 - 1.0 / s) * tail

    def cumulative_intensity(self, t):
        x0 = -self.rate * self.midpoint
        return (self._antiderivative(self._x(t)) - self._antiderivative(x0)) / self.rate
