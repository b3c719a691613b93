"""Per-interval coalescent kinetics for neighbourhood resimulation.

Within one feasible interval the active lineages form a *killed pure-death
process*: with ``a`` active and ``k_i`` inactive lineages present,

* an active–active merge (a coalescent event we are placing) occurs at rate
  ``μ_a = a (a − 1) / θ``, reducing the active count by one, and
* an active–inactive coalescence — which would contradict the fixed part of
  the tree and therefore must *not* happen — would occur at rate
  ``κ_a = 2 a k_i / θ``; its survival factor ``exp(−κ_a Δt)`` is what makes
  the conditional density depend on the inactive lineage count, exactly the
  dependence the paper attributes to its ``S_{i,j}(t)`` functions
  (Section 4.2).

This module provides the interval transition weights ``S_{a,b}(Δ)``
(probability of going from ``a`` to ``b`` active lineages over a span ``Δ``
with no forbidden event) and exact sampling of the merge times within an
interval conditional on its endpoint states, which the paper performs by
"treating S_{i,j}(t) as a cumulative distribution function".

Everything here sits on the proposal hot path (one call per feasible
interval per proposal), so the scalar reference path uses ``math`` functions
and closed forms rather than NumPy ufuncs; the ``*_batch`` samplers invert
the same closed forms as NumPy ufuncs over all siblings of a proposal set at
once (one RNG draw per interval instead of one per sibling).

The rates above are those of the *constant-size* coalescent — yet this
module serves every registered demography unchanged.  A demography
multiplies all pairwise hazards by the same relative intensity ν(t)
(:mod:`repro.demography`), so in the rescaled time τ = Λ(t) the killed
death process is exactly this constant-rate process; the resimulator feeds
Λ-transformed interval spans in and maps the sampled merge offsets back
through Λ⁻¹ (see
:func:`repro.proposals.intervals.rescaled_interval_spans`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..brent import brentq

__all__ = ["IntervalKinetics", "kinetics_for"]

_MAX_ACTIVE = 3  # a neighbourhood resimulation never has more than three active lineages
_REL_TOL = 1e-12


def _nearly_equal(a: float, b: float) -> float:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _expint(rate: float, upto: float) -> float:
    """∫₀^u e^{-rate·s} ds with the rate-zero limit handled."""
    if abs(rate) <= _REL_TOL:
        return upto
    return -math.expm1(-rate * upto) / rate


@lru_cache(maxsize=512)
def kinetics_for(n_inactive: int, theta: float) -> "IntervalKinetics":
    """Shared :class:`IntervalKinetics` instance for ``(n_inactive, theta)``.

    The kinetics of an interval depend only on its inactive-lineage count and
    the driving θ, and ``n_inactive`` ranges over a handful of small integers,
    so every proposal set — and, under stacked cross-chain execution, every
    chain in the stack — keeps re-requesting the same few objects.  The
    instances are frozen (immutable), so sharing one per ``(n_inactive, θ)``
    across proposal sets, chains, and resimulators is safe and skips the
    repeated construction/validation on the proposal hot path.
    """
    return IntervalKinetics(n_inactive=n_inactive, theta=theta)


@dataclass(frozen=True)
class IntervalKinetics:
    """Kinetics of the killed death process in one feasible interval.

    Parameters
    ----------
    n_inactive:
        Number of inactive lineages throughout the interval.
    theta:
        The driving θ of the coalescent prior.
    """

    n_inactive: int
    theta: float

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.n_inactive < 0:
            raise ValueError("n_inactive must be non-negative")

    # ------------------------------------------------------------------ #
    # Rates
    # ------------------------------------------------------------------ #
    def merge_rate(self, a: int) -> float:
        """Rate μ_a of an active–active coalescence with ``a`` active lineages."""
        return a * (a - 1) / self.theta

    def kill_rate(self, a: int) -> float:
        """Rate κ_a of a (forbidden) active–inactive coalescence."""
        return 2.0 * a * self.n_inactive / self.theta

    def exit_rate(self, a: int) -> float:
        """Total hazard ρ_a = μ_a + κ_a leaving the surviving state ``a``."""
        return a * (a - 1 + 2 * self.n_inactive) / self.theta

    # ------------------------------------------------------------------ #
    # Transition weights S_{a,b}(Δ)
    # ------------------------------------------------------------------ #
    def transition_weight(self, a: int, b: int, span: float) -> float:
        """S_{a,b}(Δ): probability of a → b active lineages with no killing.

        ``span`` may be ``inf``; in that case the weight is the probability
        of eventually reaching ``b = 1`` (every merge happens, no killing),
        which is 1 when there are no inactive lineages and the product of
        merge/exit rate ratios otherwise.
        """
        if not 1 <= b <= a <= _MAX_ACTIVE:
            return 0.0
        if not math.isfinite(span):
            if b != 1:
                return 0.0
            prob = 1.0
            for k in range(a, 1, -1):
                prob *= self.merge_rate(k) / self.exit_rate(k)
            return prob
        if span < 0:
            raise ValueError("interval span must be non-negative")
        if a == b:
            return math.exp(-self.exit_rate(a) * span)
        if b == a - 1:
            return self._single_merge_weight(a, span)
        if a == 3 and b == 1:
            return self._double_merge_weight(span)
        return 0.0

    def _single_merge_weight(self, a: int, span: float) -> float:
        """∫₀^Δ e^{-ρ_a τ} μ_a e^{-ρ_{a-1}(Δ-τ)} dτ."""
        rho_hi = self.exit_rate(a)
        rho_lo = self.exit_rate(a - 1)
        mu = self.merge_rate(a)
        if _nearly_equal(rho_hi, rho_lo):
            return mu * span * math.exp(-rho_hi * span)
        return mu * (math.exp(-rho_lo * span) - math.exp(-rho_hi * span)) / (rho_hi - rho_lo)

    def _double_merge_weight(self, span: float) -> float:
        """S_{3,1}(Δ) = μ₃ ∫₀^Δ e^{-ρ₃ τ} S_{2,1}(Δ − τ) dτ (closed form)."""
        cdf, total = self._double_merge_cdf(span)
        del cdf
        return total

    def double_merge_cdf(self, span: float):
        """Public handle on the 3 → 1 first-merge CDF, for per-set caching.

        Returns ``(cdf, total)`` exactly as the internal closed form; the
        batched forward pass computes this once per interval per proposal
        set and shares it across all siblings drawing a double merge there.
        """
        return self._double_merge_cdf(span)

    def _double_merge_cdf(self, span: float):
        """Unnormalized CDF of the first-merge time for a 3 → 1 interval, and its total mass.

        The density of the first merge time τ is
        ``g(τ) = μ₃ e^{-ρ₃ τ} · S_{2,1}(Δ − τ)``; expanding ``S_{2,1}``
        gives a difference of two exponentials in τ, whose integral is the
        closed-form CDF returned here.
        """
        rho3, rho2, rho1 = (self.exit_rate(k) for k in (3, 2, 1))
        mu3, mu2 = self.merge_rate(3), self.merge_rate(2)

        if _nearly_equal(rho2, rho1):
            # S21(L) = μ₂ L e^{-ρ₂ L}; g(τ) = μ₃ μ₂ e^{-ρ₃ τ}(Δ-τ)e^{-ρ₂(Δ-τ)}.
            def cdf(tau: float) -> float:
                # g(s) = μ₃ μ₂ e^{-ρ₂Δ} e^{-λs}(Δ − s) with λ = ρ₃ − ρ₂;
                # ∫₀^τ e^{-λs}(Δ−s) ds = Δ·E(λ,τ) − [1 − (1+λτ)e^{-λτ}]/λ².
                lam = rho3 - rho2
                if abs(lam) <= _REL_TOL:
                    inner = span * tau - 0.5 * tau * tau
                else:
                    inner = span * _expint(lam, tau) - (
                        1.0 - (1.0 + lam * tau) * math.exp(-lam * tau)
                    ) / (lam * lam)
                return mu3 * mu2 * math.exp(-rho2 * span) * inner

            return cdf, cdf(span)

        coeff1 = mu3 * mu2 / (rho2 - rho1)

        def cdf(tau: float) -> float:
            # g(s) = coeff1 [ e^{-ρ₁Δ} e^{-(ρ₃-ρ₁)s} − e^{-ρ₂Δ} e^{-(ρ₃-ρ₂)s} ]
            term1 = math.exp(-rho1 * span) * _expint(rho3 - rho1, tau)
            term2 = math.exp(-rho2 * span) * _expint(rho3 - rho2, tau)
            return coeff1 * (term1 - term2)

        return cdf, cdf(span)

    def transition_matrix(self, span: float) -> np.ndarray:
        """Matrix of S_{a,b}(Δ) for a, b ∈ {1, 2, 3} (zero-based index a-1, b-1)."""
        out = np.zeros((_MAX_ACTIVE, _MAX_ACTIVE))
        for a in range(1, _MAX_ACTIVE + 1):
            for b in range(1, a + 1):
                out[a - 1, b - 1] = self.transition_weight(a, b, span)
        return out

    # ------------------------------------------------------------------ #
    # Log-space transition weights (demography-rescaled spans)
    # ------------------------------------------------------------------ #
    def log_transition_weight(self, a: int, b: int, span: float) -> float:
        """log S_{a,b}(Δ), exact deep into the underflow regime.

        Demography-rescaled spans can be astronomically large (Λ grows like
        e^{g t} under strong growth), where every linear-space weight
        underflows to zero even though their *ratios* — all the conditioned
        resimulation needs — remain perfectly well defined.  The
        demography-conditional backward/forward passes therefore run on
        these log weights; the constant-size path keeps the linear
        :meth:`transition_weight` bit-for-bit.
        """
        if not 1 <= b <= a <= _MAX_ACTIVE:
            return -math.inf
        if not math.isfinite(span):
            if b != 1:
                return -math.inf
            total = 0.0
            for k in range(a, 1, -1):
                total += math.log(self.merge_rate(k)) - math.log(self.exit_rate(k))
            return total
        if span < 0:
            raise ValueError("interval span must be non-negative")
        if a == b:
            return -self.exit_rate(a) * span
        if b == a - 1:
            return self._log_single_merge_weight(a, span)
        if a == 3 and b == 1:
            return self._log_double_merge_weight(span)
        return -math.inf

    @staticmethod
    def _log1mexp(x: float) -> float:
        """log(1 − e^{−x}) for x ≥ 0 (−inf at x = 0)."""
        if x <= 0.0:
            return -math.inf
        if x < 0.693:
            return math.log(-math.expm1(-x))
        return math.log1p(-math.exp(-x))

    def _log_single_merge_weight(self, a: int, span: float) -> float:
        """log of ∫₀^Δ e^{-ρ_a τ} μ_a e^{-ρ_{a-1}(Δ-τ)} dτ."""
        if span == 0.0:
            return -math.inf
        rho_hi = self.exit_rate(a)
        rho_lo = self.exit_rate(a - 1)
        mu = self.merge_rate(a)
        if _nearly_equal(rho_hi, rho_lo):
            return math.log(mu * span) - rho_hi * span
        lam = rho_hi - rho_lo  # exit rates increase with a, so lam > 0
        return math.log(mu) - rho_lo * span + self._log1mexp(lam * span) - math.log(lam)

    def _log_double_merge_weight(self, span: float) -> float:
        """log S_{3,1}(Δ) via the log-space closed form."""
        if span == 0.0:
            return -math.inf
        rho3, rho2, rho1 = (self.exit_rate(k) for k in (3, 2, 1))
        mu3, mu2 = self.merge_rate(3), self.merge_rate(2)
        if _nearly_equal(rho2, rho1):
            lam = rho3 - rho2
            if abs(lam) <= _REL_TOL:
                inner = 0.5 * span * span
            else:
                inner = span * _expint(lam, span) - (
                    1.0 - (1.0 + lam * span) * math.exp(-lam * span)
                ) / (lam * lam)
            if inner <= 0.0:
                return -math.inf
            return math.log(mu3 * mu2) - rho2 * span + math.log(inner)
        # total = coeff1 [ e^{-ρ₁Δ} E(ρ₃−ρ₁, Δ) − e^{-ρ₂Δ} E(ρ₃−ρ₂, Δ) ]
        # with E(λ, Δ) = (1 − e^{-λΔ})/λ; the first term always dominates
        # (ρ₁ < ρ₂), so the difference is a stable log1p(-exp) subtraction.
        coeff = math.log(mu3 * mu2) - math.log(rho2 - rho1)
        term1 = -rho1 * span + self._log1mexp((rho3 - rho1) * span) - math.log(rho3 - rho1)
        term2 = -rho2 * span + self._log1mexp((rho3 - rho2) * span) - math.log(rho3 - rho2)
        if term2 >= term1:
            return -math.inf
        return coeff + term1 + self._log1mexp(term1 - term2)

    def log_transition_matrix(self, span: float) -> np.ndarray:
        """Matrix of log S_{a,b}(Δ) for a, b ∈ {1, 2, 3}."""
        out = np.full((_MAX_ACTIVE, _MAX_ACTIVE), -math.inf)
        for a in range(1, _MAX_ACTIVE + 1):
            for b in range(1, a + 1):
                out[a - 1, b - 1] = self.log_transition_weight(a, b, span)
        return out

    # ------------------------------------------------------------------ #
    # Conditional event-time sampling within an interval
    # ------------------------------------------------------------------ #
    def sample_merge_times(
        self, a: int, b: int, span: float, rng: np.random.Generator
    ) -> list[float]:
        """Sample merge times (offsets from the interval start) given a → b.

        Exactly ``a - b`` times are returned, sorted increasing.  The joint
        density is the killed-death-process bridge conditioned on no killing,
        i.e. each sequence of times ``τ₁ < … < τ_{a-b}`` has density
        proportional to ``Π exp(-ρ·)`` survival segments times the merge
        rates, normalized by S_{a,b}(Δ).
        """
        if not 1 <= b <= a <= _MAX_ACTIVE:
            raise ValueError("invalid active-lineage counts")
        n_events = a - b
        if n_events == 0:
            return []
        if span <= 0 and math.isfinite(span):
            raise ValueError("cannot place merge events in a zero-length interval")
        if n_events == 1:
            return [self._sample_single_merge(a, span, rng)]
        # a == 3, b == 1: sample the first merge from its marginal, then the
        # second conditionally on the remaining span.
        tau1 = self._sample_first_of_double(span, rng)
        remaining = span - tau1 if math.isfinite(span) else math.inf
        tau2 = self._sample_single_merge(2, remaining, rng)
        return [tau1, tau1 + tau2]

    def _sample_single_merge(self, a: int, span: float, rng: np.random.Generator) -> float:
        """Time of the single merge a → a−1 within a span, given it happens."""
        rho_hi = self.exit_rate(a)
        rho_lo = self.exit_rate(a - 1)
        lam = rho_hi - rho_lo
        u = float(rng.random())
        if not math.isfinite(span):
            # Unbounded intervals only occur past every fixed lineage
            # (no killing), so the merge time is simply Exp(ρ_a).
            return float(rng.exponential(1.0 / rho_hi))
        if abs(lam) <= _REL_TOL:
            return u * span
        # Truncated exponential with rate lam on [0, span] (lam may be negative).
        denom = -math.expm1(-lam * span)
        return -math.log1p(-u * denom) / lam

    def _sample_first_of_double(self, span: float, rng: np.random.Generator) -> float:
        """Time of the first merge when two merges (3 → 1) occur within the span."""
        rho3 = self.exit_rate(3)
        if not math.isfinite(span):
            # No upper bound: the trailing factor (eventually finishing from
            # 2 active lineages with no inactive ones left) is constant, so
            # the first merge time is simply Exp(ρ₃).
            return float(rng.exponential(1.0 / rho3))

        cdf, total = self._double_merge_cdf(span)
        if total <= 0.0:
            rho1 = self.exit_rate(1)
            lam = rho3 - rho1
            if lam * span > 1.0:
                # The linear-space CDF underflowed on a *large* span (the
                # demography-rescaled regime): asymptotically the first-merge
                # density is ∝ e^{-ρ₃τ}·e^{-ρ₁(Δ-τ)}, i.e. a truncated
                # exponential with rate ρ₃ − ρ₁ on [0, Δ].
                u = float(rng.random())
                return -math.log1p(-u * -math.expm1(-lam * span)) / lam
            # Numerically degenerate (span extremely small): as every
            # rate·Δ → 0 the conditioned density g(τ) ∝ e^{-ρ₃τ}S₂₁(Δ−τ)
            # tends to μ₃μ₂(Δ − τ), a triangular density on [0, Δ] — NOT
            # uniform.  Its CDF is 1 − ((Δ−τ)/Δ)², inverted in closed form.
            u = float(rng.random())
            return span * (1.0 - math.sqrt(1.0 - u))

        u = float(rng.random()) * total
        if cdf(span) <= u:
            return span * (1.0 - 1e-12)
        return brentq(lambda t: cdf(t) - u, 0.0, span, xtol=1e-14 * max(span, 1.0))

    # ------------------------------------------------------------------ #
    # Batched sampling (the propose_set forward pass)
    # ------------------------------------------------------------------ #
    def sample_single_merge_batch(
        self, a: np.ndarray, spans: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Vectorized :meth:`_sample_single_merge` over many siblings.

        ``a`` and ``spans`` are same-length arrays (one entry per sibling
        drawing a single merge here); one element-wise uniform draw replaces
        one Python-level draw per sibling, and the truncated-exponential
        inversion runs as ufuncs.  Each element follows exactly the same
        conditional law as the scalar reference sampler.
        """
        a = np.asarray(a, dtype=np.int64)
        spans = np.asarray(spans, dtype=float)
        rho_hi = a * (a - 1 + 2 * self.n_inactive) / self.theta
        rho_lo = (a - 1) * (a - 2 + 2 * self.n_inactive) / self.theta
        lam = rho_hi - rho_lo
        u = rng.random(a.shape[0])
        out = np.empty(a.shape[0])

        unbounded = ~np.isfinite(spans)
        if np.any(unbounded):
            # Exp(ρ_a) via inversion (the scalar path draws rng.exponential;
            # same distribution, one stream draw either way).
            out[unbounded] = -np.log1p(-u[unbounded]) / rho_hi[unbounded]

        bounded = ~unbounded
        degenerate = bounded & (np.abs(lam) <= _REL_TOL)
        out[degenerate] = u[degenerate] * spans[degenerate]
        normal = bounded & ~degenerate
        if np.any(normal):
            lam_n = lam[normal]
            denom = -np.expm1(-lam_n * spans[normal])
            out[normal] = -np.log1p(-u[normal] * denom) / lam_n
        return out

    def sample_first_of_double_batch(
        self,
        span: float,
        size: int,
        rng: np.random.Generator,
        cdf_total=None,
    ) -> np.ndarray:
        """Vectorized :meth:`_sample_first_of_double` for one shared span.

        All siblings drawing a 3 → 1 double merge in the same interval share
        the same span, so the closed-form CDF (``cdf_total``, as returned by
        :meth:`double_merge_cdf`) is built once per proposal set; only the
        final root-find runs per element, on a per-element uniform batch.
        """
        rho3 = self.exit_rate(3)
        u = rng.random(size)
        if not math.isfinite(span):
            return -np.log1p(-u) / rho3

        if cdf_total is None:
            cdf_total = self._double_merge_cdf(span)
        cdf, total = cdf_total
        if total <= 0.0:
            rho1 = self.exit_rate(1)
            lam = rho3 - rho1
            if lam * span > 1.0:
                return -np.log1p(-u * -math.expm1(-lam * span)) / lam
            # λ → 0 limit: triangular density ∝ (Δ − τ) (see the scalar path).
            return span * (1.0 - np.sqrt(1.0 - u))

        targets = u * total
        out = np.empty(size)
        ceiling = cdf(span)
        for i, t_u in enumerate(targets):
            if ceiling <= t_u:
                out[i] = span * (1.0 - 1e-12)
            else:
                out[i] = brentq(
                    lambda t: cdf(t) - t_u, 0.0, span, xtol=1e-14 * max(span, 1.0)
                )
        return out
