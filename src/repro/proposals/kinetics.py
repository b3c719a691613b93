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

The :class:`IntervalKinetics` methods are the scalar forms, one interval
and one draw at a time, with ``math`` functions and closed forms; the
per-proposal reference kernel samples through them.  The module functions
:func:`transition_matrices`, :func:`invert_single_merges` and
:func:`invert_first_of_doubles` are the same closed forms as NumPy array
programs over every interval, or every merge, of a proposal set at once:
the proposal-set kernel calls each once per set, with uniforms it drew in
one block.

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

__all__ = [
    "IntervalKinetics",
    "invert_first_of_doubles",
    "invert_single_merges",
    "kinetics_for",
    "transition_matrices",
]

_MAX_ACTIVE = 3  # a neighbourhood resimulation never has more than three active lineages
_REL_TOL = 1e-12

#: Below this d₃ = (ρ₃ − ρ₁)Δ the 3 → 1 weight uses the power series of ψ;
#: above it the two-exponential form loses at most ~2/d₃ ulps to cancellation.
_SERIES_BELOW = 0.1

#: Taylor coefficients 1/(n+2)! of φ₂(x) = (e^{-x} − 1 + x)/x² = Σ (−x)ⁿ/(n+2)!;
#: 9 terms reach double precision for 0 ≤ x < 0.1 (the first omitted is 0.1⁹/11!).
_PHI2_TAYLOR = tuple(1.0 / math.factorial(n + 2) for n in range(9))

#: Active-lineage counts a = 1, 2, 3 as a column, for per-interval rate rows.
_ACTIVE = np.arange(1, 4)[:, None]

#: A cap on the Newton steps of one double-merge solve.  Every element stops
#: by the convergence tests long before (about four steps on em-deep's sets);
#: the cap only bounds a solve that rounding keeps from settling.
_MAX_SOLVE_STEPS = 100


def _nearly_equal(a: float, b: float) -> float:
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _expint(rate: float, upto: float) -> float:
    """∫₀^u e^{-rate·s} ds with the rate-zero limit handled."""
    if abs(rate) <= _REL_TOL:
        return upto
    return -math.expm1(-rate * upto) / rate


def _psi(x: float) -> float:
    """ψ(x) = x·φ₂(x) = (e^{-x} − 1 + x)/x for 0 ≤ x < 0.1, by its Taylor series."""
    acc = 0.0
    for coeff in reversed(_PHI2_TAYLOR):
        acc = acc * -x + coeff
    return x * acc


@lru_cache(maxsize=512)
def kinetics_for(n_inactive: int, theta: float) -> "IntervalKinetics":
    """Shared :class:`IntervalKinetics` instance for ``(n_inactive, theta)``.

    The kinetics of an interval depend only on its inactive-lineage count and
    the driving θ, and ``n_inactive`` ranges over a handful of small integers,
    so the reference kernel, which samples each interval's merges through
    one of these, keeps re-requesting the same few objects.  The instances
    are frozen (immutable), so sharing one per ``(n_inactive, θ)`` across
    proposals and resimulators is safe and skips the repeated
    construction/validation.
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
        """∫₀^Δ e^{-ρ_a τ} μ_a e^{-ρ_{a-1}(Δ-τ)} dτ = μ_a e^{-ρ_{a-1}Δ}(1 − e^{-λΔ})/λ.

        ``expm1`` keeps the difference of the two survival factors exact
        when λΔ is tiny, where subtracting the exponentials would cancel.
        """
        rho_hi = self.exit_rate(a)
        rho_lo = self.exit_rate(a - 1)
        mu = self.merge_rate(a)
        if _nearly_equal(rho_hi, rho_lo):
            return mu * span * math.exp(-rho_hi * span)
        lam = rho_hi - rho_lo
        return mu * math.exp(-rho_lo * span) * -math.expm1(-lam * span) / lam

    def _double_merge_factors(self, span: float) -> tuple[float, float, float]:
        """``(-ρ₁Δ, f, g)`` with S_{3,1}(Δ) = e^{-ρ₁Δ}·f·g, for a span Δ > 0.

        S_{3,1} = μ₃μ₂ ∫₀^Δ e^{-ρ₃τ} S̃₂₁(Δ−τ) dτ is μ₃μ₂ Δ² e^{-ρ₁Δ} times
        the second divided difference of e^{-x} at 0, d₂ = (ρ₂−ρ₁)Δ and
        d₃ = (ρ₃−ρ₁)Δ.  Evaluated as the textbook difference of two
        exponential integrals it cancels catastrophically for small spans,
        so it is split by d₃: below 0.1 it is d₂d₃(ψ(d₃) − ψ(d₂))/(d₃ − d₂)
        with ψ from its series (d₂ ≤ d₃/2, so the difference keeps at least
        half its digits); above, the two exponential terms, which cancel by
        a factor of about 2/d₃ at most.  Neither factor under- or overflows
        before the answer itself would, which the log-space weight needs.
        """
        rho3, rho2, rho1 = (self.exit_rate(k) for k in (3, 2, 1))
        mu3, mu2 = self.merge_rate(3), self.merge_rate(2)
        scale = mu3 * mu2 / ((rho2 - rho1) * (rho3 - rho1))
        d2, d3, d32 = (rho2 - rho1) * span, (rho3 - rho1) * span, (rho3 - rho2) * span
        if d3 < _SERIES_BELOW:
            return -rho1 * span, scale * d2, d3 * ((_psi(d3) - _psi(d2)) / d32)
        ratio = (rho2 - rho1) / (rho3 - rho2)
        bracket = -math.expm1(-d2) - math.exp(-d2) * -math.expm1(-d32) * ratio
        return -rho1 * span, scale, bracket

    def _double_merge_weight(self, span: float) -> float:
        """S_{3,1}(Δ) = μ₃ ∫₀^Δ e^{-ρ₃ τ} S_{2,1}(Δ − τ) dτ."""
        if span == 0.0:
            return 0.0
        exponent, f, g = self._double_merge_factors(span)
        return math.exp(exponent) * f * g

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
        """log S_{3,1}(Δ), from the same factors as the linear weight."""
        if span == 0.0:
            return -math.inf
        exponent, f, g = self._double_merge_factors(span)
        return exponent + math.log(f) + math.log(g)

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


# ---------------------------------------------------------------------- #
# Array programs over a whole proposal set
# ---------------------------------------------------------------------- #
def exit_rates(n_inactive: np.ndarray, theta: float) -> np.ndarray:
    """``(3, M)`` exit rates: row ``a − 1`` is ρ_a of each interval.

    The same arithmetic as :meth:`IntervalKinetics.exit_rate`; the array
    programs below take these rows, so a proposal set computes them once.
    """
    return _ACTIVE * (_ACTIVE - 1 + 2 * np.asarray(n_inactive, dtype=np.int64)) / theta


def _psi_array(x: np.ndarray) -> np.ndarray:
    """:func:`_psi` element-wise (callers pass 0 ≤ x < 0.1)."""
    acc = np.full(x.shape, _PHI2_TAYLOR[-1])
    neg = -x
    for coeff in _PHI2_TAYLOR[-2::-1]:
        acc *= neg
        acc += coeff
    return x * acc


def _log1mexp_array(x: np.ndarray) -> np.ndarray:
    """:meth:`IntervalKinetics._log1mexp` element-wise (x > 0)."""
    return np.where(x < 0.693, np.log(-np.expm1(-x)), np.log1p(-np.exp(-np.maximum(x, 0.693))))


def transition_matrices(
    rates: np.ndarray, spans: np.ndarray, theta: float, *, log: bool = False
) -> np.ndarray:
    """S_{a,b}(Δ) of every interval at once: an ``(M, 3, 3)`` array.

    ``rates`` are the intervals' :func:`exit_rates`.  Entry ``[m, a-1, b-1]``
    equals ``kinetics_for(n_inactive[m], theta).transition_weight(a, b,
    spans[m])`` (``log_transition_weight`` with ``log=True``) up to
    rounding: the same closed forms, with masks in place of the scalar
    branches for Δ = 0, Δ = ∞, near-equal exit rates and the two forms of
    the 3 → 1 weight.  Entries with b > a are 0 (``-inf`` in log space).
    """
    span = np.asarray(spans, dtype=float)
    if (span < 0).any():
        raise ValueError("interval span must be non-negative")
    mu2, mu3 = 2 / theta, 6 / theta
    mu = np.array([[mu2], [mu3]])
    bounded = np.isfinite(span)
    positive = span > 0.0
    # A row whose value a mask fixes (Δ = 0 or ∞) computes on a stand-in
    # span that keeps its arithmetic finite.
    fin = np.where(bounded, span, 0.0)
    unit = np.where(positive & bounded, span, 1.0)

    # Single merges a → a−1 for a = 2 (ρ₂ over ρ₁) and a = 3 (ρ₃ over ρ₂).
    hi, lo = rates[1:], rates[:2]
    gap = hi - lo
    near = gap <= _REL_TOL * np.maximum(1.0, hi)  # rates are ≥ 0 and hi ≥ lo
    # The near-equal branch of the scalar form; λ → 1 keeps the other finite.
    lam = np.where(near, 1.0, gap)

    # 3 → 1: e^{-ρ₁Δ}·f·g (see IntervalKinetics._double_merge_factors).
    rho31 = rates[2] - rates[0]
    scale = mu3 * mu2 / (gap[0] * rho31)
    d2, d32 = gap * unit
    d3 = rho31 * unit
    series = d3 < _SERIES_BELOW
    # ψ(d₃) and ψ(d₂) in one pass (d₂ < d₃, and d₃ is capped where unused).
    x = np.empty((2, span.shape[0]))
    x[0], x[1] = d3, d2
    psi3, psi2 = _psi_array(np.minimum(x, _SERIES_BELOW, out=x))
    f = np.where(series, scale * d2, scale)
    g = np.where(
        series,
        d3 * ((psi3 - psi2) / d32),
        -np.expm1(-d2) - np.exp(-d2) * -np.expm1(-d32) * (gap[0] / gap[1]),
    )

    out = np.empty((3, 3, span.shape[0]))
    if log:
        out.fill(-np.inf)
        out[(0, 1, 2), (0, 1, 2)] = -rates * fin
        single = np.where(
            near,
            np.log(mu * unit) - hi * fin,
            np.log(mu) - lo * fin + _log1mexp_array(lam * unit) - np.log(lam),
        )
        double = -rates[0] * fin + np.log(f) + np.log(g)
        single = np.where(positive, single, -np.inf)
        double = np.where(positive, double, -np.inf)
    else:
        out.fill(0.0)
        diag = np.exp(-rates * fin)
        out[(0, 1, 2), (0, 1, 2)] = diag
        single = np.where(near, mu * fin * diag[1:], mu * diag[:2] * -np.expm1(-lam * fin) / lam)
        double = np.where(positive, diag[0] * f * g, 0.0)
    out[(1, 2), (0, 1)] = single
    out[2, 0] = double

    # Δ = ∞: the probability of eventually reaching one lineage,
    # Π μ_j/ρ_j over the merges still to happen (scalar order kept).
    rows = ~bounded
    rho2, rho3 = rates[1, rows], rates[2, rows]
    out[:, :, rows] = -np.inf if log else 0.0
    if log:
        l2 = math.log(mu2) - np.log(rho2)
        out[0, 0, rows] = 0.0
        out[1, 0, rows] = 0.0 + l2
        out[2, 0, rows] = 0.0 + (math.log(mu3) - np.log(rho3)) + l2
    else:
        r2 = mu2 / rho2
        out[0, 0, rows] = 1.0
        out[1, 0, rows] = r2
        out[2, 0, rows] = mu3 / rho3 * r2
    return out.transpose(2, 0, 1)


def invert_single_merges(
    rho_hi: np.ndarray, rho_lo: np.ndarray, spans: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Offsets of single merges a → a−1, one per element, by inverting their CDFs.

    Element ``i`` has exit rates ``rho_hi[i]`` = ρ_a before and
    ``rho_lo[i]`` = ρ_{a−1} after its merge, a span ``spans[i]`` (``inf``
    for an unbounded interval) and the uniform ``u[i]``.  The conditional
    merge time is an exponential with rate λ = ρ_a − ρ_{a−1} truncated to
    the span (uniform when λ ≈ 0), or Exp(ρ_a) on an unbounded span, the
    laws of :meth:`IntervalKinetics._sample_single_merge`.
    """
    lam = rho_hi - rho_lo
    degenerate = np.abs(lam) <= _REL_TOL
    lam = np.where(degenerate, 1.0, lam)
    bounded = np.where(degenerate, u * spans, -np.log1p(-u * -np.expm1(-lam * spans)) / lam)
    return np.where(np.isfinite(spans), bounded, -np.log1p(-u) / rho_hi)


class _DoubleMergeCdf:
    """The closed-form 3 → 1 first-merge CDF of many finite spans, with its density.

    Element-wise the function of :meth:`IntervalKinetics._double_merge_cdf`
    divided by its scale (μ₃μ₂e^{-ρ₁Δ}/(ρ₂−ρ₁), or μ₃μ₂e^{-ρ₂Δ} when
    ρ₂ ≈ ρ₁), which a root solve does not need and which goes subnormal on
    long spans.  Away from ρ₂ ≈ ρ₁ it is E(λ₁, τ) − e^{-(ρ₂−ρ₁)Δ}·E(λ₂, τ)
    with E(λ, τ) = (1 − e^{-λτ})/λ, λ₁ = ρ₃ − ρ₁ and λ₂ = ρ₃ − ρ₂ (both
    then above the scalar form's λ ≈ 0 threshold, since λ₁ > λ₂ > ρ₂ − ρ₁);
    where ρ₂ ≈ ρ₁ (``near``) it is the scalar form's second branch, with its
    λ₂ ≈ 0 limit as a mask.  ``reach`` is the scaled CDF at the span and
    ``total`` the unscaled one, the 3 → 1 weight as that closed form
    computes it (zero where the scale underflows).

    ρ₂ ≈ ρ₁ needs θ of about 10¹² or more, so nearly every solve has no
    ``near`` element (``plain``); it then skips that branch, whose masked
    evaluation more than doubles the cost of the double-merge solves of an
    em-deep proposal set.  Both paths give the same bits.
    """

    def __init__(self, rates: np.ndarray, spans: np.ndarray, theta: float) -> None:
        rho1, rho2, rho3 = rates
        beta = rho2 - rho1
        self.spans = spans
        self.l1 = rho3 - rho1
        self.l2 = rho3 - rho2
        # As _nearly_equal(ρ₂, ρ₁).
        self.near = beta <= _REL_TOL * np.maximum(1.0, rho2)
        self.plain = not self.near.any()
        self.tiny2 = np.abs(self.l2) <= _REL_TOL
        self.cb = np.exp(-beta * spans)
        self.one_minus_cb = -np.expm1(-beta * spans)
        self.inv_l1 = 1.0 / self.l1
        self.cb_l2 = self.cb / self.l2
        self.reach = self(spans)[0]
        mu3mu2 = (6 / theta) * (2 / theta)
        scale = np.where(
            self.near,
            mu3mu2 * np.exp(-rho2 * spans),
            mu3mu2 / np.where(self.near, 1.0, beta) * np.exp(-rho1 * spans),
        )
        self.total = scale * self.reach

    def __call__(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scaled CDF values and densities at ``tau`` (one point per element)."""
        em1 = np.expm1(-self.l1 * tau)
        em2 = np.expm1(-self.l2 * tau)
        value = em2 * self.cb_l2 - em1 * self.inv_l1
        slope = self.one_minus_cb + em1 - self.cb * em2
        if self.plain:
            return value, slope
        # ρ₂ ≈ ρ₁: Δ·E(λ₂, τ) − (1 − (1+λ₂τ)e^{-λ₂τ})/λ₂², with density
        # e^{-λ₂τ}(Δ − τ); as λ₂ → 0 (the scalar form takes that limit
        # whenever |λ₂| ≤ 1e-12, whatever λ₂τ) E is τ and the density Δ − τ.
        tiny2 = self.tiny2
        span = self.spans
        l2 = np.where(tiny2, 1.0, self.l2)
        inner = np.where(
            tiny2,
            span * tau - 0.5 * tau * tau,
            span * (-em2 / l2) - (1.0 - (1.0 + l2 * tau) * (1.0 + em2)) / (l2 * l2),
        )
        near_slope = np.where(tiny2, 1.0, 1.0 + em2) * (span - tau)
        return np.where(self.near, inner, value), np.where(self.near, near_slope, slope)

    def take(self, rows: np.ndarray) -> "_DoubleMergeCdf":
        """The same CDF restricted to the listed elements."""
        part = _DoubleMergeCdf.__new__(_DoubleMergeCdf)
        for name, value in vars(self).items():
            setattr(part, name, value[rows] if isinstance(value, np.ndarray) else value)
        return part

    def solve(self, u: np.ndarray) -> np.ndarray:
        """The root of ``cdf(τ) = u·reach`` on ``[0, Δ]`` per element.

        The CDF is concave (its density decreases in τ), so a Newton step
        from any point lands at or below the root, and from there Newton
        climbs to it monotonically: only the first step needs a floor at 0.
        The start is the smaller of the triangular-limit and the
        truncated-Exp(λ₁) quantiles, the two regimes of the law.  An element
        has converged when its step is within the scalar path's ``xtol``
        of 1e-14·max(Δ, 1), or when its steps stop shrinking (rounding in
        the CDF, not distance to the root, then sets their size); the solve
        stops when every element has.
        """
        span = self.spans
        target = u * self.reach
        tol = 1e-14 * np.maximum(span, 1.0)
        x = np.minimum(
            span * (1.0 - np.sqrt(1.0 - u)),
            -np.log1p(-u * -np.expm1(-self.l1 * span)) * self.inv_l1,
        )
        value, slope = self(x)
        step = (value - target) / slope
        x = np.maximum(x - step, 0.0)
        previous = np.abs(step)
        for _ in range(_MAX_SOLVE_STEPS):
            value, slope = self(x)
            step = (value - target) / slope
            x = x - step
            size = np.abs(step)
            if ((size <= tol) | (size >= previous)).all():
                break
            previous = size
        return x


def invert_first_of_doubles(
    rates: np.ndarray, spans: np.ndarray, u: np.ndarray, theta: float
) -> np.ndarray:
    """First-merge offsets of double merges 3 → 1, one per element.

    ``rates`` is ``(3, K)``: the exit rates ρ₁, ρ₂, ρ₃ of each element's
    interval.  The laws of :meth:`IntervalKinetics._sample_first_of_double`,
    with the per-element ``brentq`` replaced by one Newton solve of
    ``cdf(τ) = u·total`` over every element (:meth:`_DoubleMergeCdf.solve`):
    an unbounded span is Exp(ρ₃); where the closed-form total underflows to
    zero the first merge is a truncated Exp(ρ₃ − ρ₁) (large spans) or the
    triangular λ → 0 limit (tiny spans); a target at or above the ceiling
    lands just inside the span.
    """
    bounded = np.isfinite(spans)
    finite = np.where(bounded, spans, 1.0)  # a stand-in where the law is Exp(ρ₃)
    cdf = _DoubleMergeCdf(rates, finite, theta)
    lam = rates[2] - rates[0]
    underflow = bounded & (cdf.total <= 0.0)
    result = np.where(
        underflow,
        np.where(
            lam * finite > 1.0,
            -np.log1p(-u * -np.expm1(-lam * finite)) / lam,
            finite * (1.0 - np.sqrt(1.0 - u)),
        ),
        np.where(bounded, finite * (1.0 - 1e-12), -np.log1p(-u) / rates[2]),
    )
    rows = np.flatnonzero(bounded & ~underflow & (cdf.reach > u * cdf.reach))
    result[rows] = cdf.take(rows).solve(u[rows])
    return result
