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

Each is a closed form written as a NumPy array program over every
interval, or every merge, of a proposal set at once:
:func:`transition_matrices`, :func:`invert_single_merges` and
:func:`invert_first_of_doubles`.  The proposal-set kernel calls each once
per set, with uniforms it drew in one block.  The scalar forms of the same
closed forms, one interval and one draw at a time, are the test oracle's
``IntervalKinetics`` (``tests/reference_kernel.py``).

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

import numpy as np

__all__ = [
    "invert_first_of_doubles",
    "invert_single_merges",
    "transition_matrices",
]

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


def exit_rates(n_inactive: np.ndarray, theta: float) -> np.ndarray:
    """``(3, M)`` exit rates: row ``a − 1`` is ρ_a = a(a − 1 + 2k)/θ of each interval.

    ``k`` is the interval's inactive-lineage count.  The array programs
    below take these rows, so a proposal set computes them once.
    """
    return _ACTIVE * (_ACTIVE - 1 + 2 * np.asarray(n_inactive, dtype=np.int64)) / theta


def _psi_array(x: np.ndarray) -> np.ndarray:
    """ψ(x) = x·φ₂(x) = (e^{-x} − 1 + x)/x element-wise, by its Taylor series (0 ≤ x < 0.1)."""
    acc = np.full(x.shape, _PHI2_TAYLOR[-1])
    neg = -x
    for coeff in _PHI2_TAYLOR[-2::-1]:
        acc *= neg
        acc += coeff
    return x * acc


def _log1mexp_array(x: np.ndarray) -> np.ndarray:
    """log(1 − e^{−x}) element-wise (x > 0), by ``expm1`` below x = 0.693 and ``log1p`` above."""
    return np.where(x < 0.693, np.log(-np.expm1(-x)), np.log1p(-np.exp(-np.maximum(x, 0.693))))


def transition_matrices(
    rates: np.ndarray, spans: np.ndarray, theta: float, *, log: bool = False
) -> np.ndarray:
    """S_{a,b}(Δ) of every interval at once: an ``(M, 3, 3)`` array.

    ``rates`` are the intervals' :func:`exit_rates`.  Entry ``[m, a-1, b-1]``
    is the probability of going from ``a`` to ``b`` active lineages over
    ``spans[m]`` with no killing (its log with ``log=True``):
    e^{-ρ_aΔ} for b = a; μ_a e^{-ρ_{a−1}Δ}(1 − e^{-λΔ})/λ with
    λ = ρ_a − ρ_{a−1} for one merge (μ_aΔe^{-ρ_aΔ} when λ ≈ 0); for 3 → 1
    e^{-ρ₁Δ}·f·g as below; and on an unbounded span the probability of
    eventually reaching one lineage.  Masks select the branches for Δ = 0,
    Δ = ∞, near-equal exit rates and the two forms of the 3 → 1 weight.
    Entries with b > a are 0 (``-inf`` in log space).  The test oracle's
    scalar ``IntervalKinetics`` (``tests/reference_kernel.py``) computes
    every entry one at a time, and pinned 120-digit literals check both.
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
    # The near-equal branch, needed only at θ of about 10¹² or more; λ → 1
    # keeps the other finite.
    any_near = near.any()
    lam = np.where(near, 1.0, gap) if any_near else gap

    # 3 → 1: e^{-ρ₁Δ}·f·g, μ₃μ₂Δ²e^{-ρ₁Δ} times the second divided
    # difference of e^{-x} at 0, d₂ = (ρ₂−ρ₁)Δ and d₃ = (ρ₃−ρ₁)Δ.  The
    # textbook difference of two exponential integrals cancels on small
    # spans, so below d₃ = 0.1 it is d₂d₃(ψ(d₃) − ψ(d₂))/(d₃ − d₂) (d₂ ≤ d₃/2
    # keeps half the digits); above, the two exponential terms, which
    # cancel by a factor of about 2/d₃ at most.  Neither factor under- or
    # overflows before the weight itself would, which the log weight needs.
    rho31 = rates[2] - rates[0]
    scale = mu3 * mu2 / (gap[0] * rho31)
    d2, d32 = gap * unit
    d3 = rho31 * unit
    series = d3 < _SERIES_BELOW
    f = np.where(series, scale * d2, scale)
    g = -np.expm1(-d2) - np.exp(-d2) * -np.expm1(-d32) * (gap[0] / gap[1])
    if series.any():
        # ψ(d₃) and ψ(d₂) in one pass over the series elements (d₂ ≤ d₃ there).
        d3s = d3[series]
        psi3, psi2 = _psi_array(np.stack((d3s, d2[series])))
        g[series] = d3s * ((psi3 - psi2) / d32[series])

    out = np.empty((3, 3, span.shape[0]))
    if log:
        out.fill(-np.inf)
        out[(0, 1, 2), (0, 1, 2)] = -rates * fin
        single = np.log(mu) - lo * fin + _log1mexp_array(lam * unit) - np.log(lam)
        if any_near:
            single = np.where(near, np.log(mu * unit) - hi * fin, single)
        double = -rates[0] * fin + np.log(f) + np.log(g)
        single = np.where(positive, single, -np.inf)
        double = np.where(positive, double, -np.inf)
    else:
        out.fill(0.0)
        diag = np.exp(-rates * fin)
        out[(0, 1, 2), (0, 1, 2)] = diag
        single = mu * diag[:2] * -np.expm1(-lam * fin) / lam
        if any_near:
            single = np.where(near, mu * fin * diag[1:], single)
        double = np.where(positive, diag[0] * f * g, 0.0)
    out[(1, 2), (0, 1)] = single
    out[2, 0] = double

    if bounded.all():
        return out.transpose(2, 0, 1)
    # Δ = ∞: the probability of eventually reaching one lineage,
    # Π μ_j/ρ_j over the merges still to happen, multiplied from a = 3 down.
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
    the span (uniform when λ ≈ 0), or Exp(ρ_a) on an unbounded span
    (unbounded intervals come after every fixed lineage, so nothing kills).
    """
    lam = rho_hi - rho_lo
    degenerate = np.abs(lam) <= _REL_TOL
    lam = np.where(degenerate, 1.0, lam)
    bounded = np.where(degenerate, u * spans, -np.log1p(-u * -np.expm1(-lam * spans)) / lam)
    return np.where(np.isfinite(spans), bounded, -np.log1p(-u) / rho_hi)


class _DoubleMergeCdf:
    """The closed-form 3 → 1 first-merge CDF of many finite spans, with its density.

    The first merge time τ of a 3 → 1 interval has density
    μ₃e^{-ρ₃τ}·S₂₁(Δ − τ), a difference of two exponentials in τ; its CDF is
    kept divided by its scale (μ₃μ₂e^{-ρ₁Δ}/(ρ₂−ρ₁), or μ₃μ₂e^{-ρ₂Δ} when
    ρ₂ ≈ ρ₁), which a root solve does not need and which goes subnormal on
    long spans.  Away from ρ₂ ≈ ρ₁ it is E(λ₁, τ) − e^{-(ρ₂−ρ₁)Δ}·E(λ₂, τ)
    with E(λ, τ) = (1 − e^{-λτ})/λ, λ₁ = ρ₃ − ρ₁ and λ₂ = ρ₃ − ρ₂ (both
    then above the λ ≈ 0 threshold, since λ₁ > λ₂ > ρ₂ − ρ₁); where
    ρ₂ ≈ ρ₁ (``near``) it is Δ·E(λ₂, τ) − (1 − (1+λ₂τ)e^{-λ₂τ})/λ₂², with
    its λ₂ ≈ 0 limit as a mask.  ``reach`` is the scaled CDF at the span and
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
        # ρ₂ ≈ ρ₁ within a relative 1e-12.
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
        # e^{-λ₂τ}(Δ − τ); as λ₂ → 0 (the limit is taken whenever
        # |λ₂| ≤ 1e-12, whatever λ₂τ) E is τ and the density Δ − τ.
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

    def solve(self, u: np.ndarray, groups: np.ndarray | None = None) -> np.ndarray:
        """The root of ``cdf(τ) = u·reach`` on ``[0, Δ]`` per element.

        The CDF is concave (its density decreases in τ), so a Newton step
        from any point lands at or below the root, and from there Newton
        climbs to it monotonically: only the first step needs a floor at 0.
        The start is the smaller of the triangular-limit and the
        truncated-Exp(λ₁) quantiles, the two regimes of the law.  An element
        has converged when its step is within 1e-14·max(Δ, 1) (the
        ``xtol`` of the oracle's ``brentq`` inversion), or when its steps
        stop shrinking (rounding in the CDF, not distance to the root, then
        sets their size).

        ``groups`` labels each element with a small non-negative integer
        (all one group when omitted).  A group stops updating once every
        element of it has converged, so each group gets the bits it would
        get solved alone, whatever else shares the call.
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
        live = None  # every element updates until a group stops
        for _ in range(_MAX_SOLVE_STEPS):
            value, slope = self(x)
            step = (value - target) / slope
            x = x - step if live is None else np.where(live, x - step, x)
            size = np.abs(step)
            settled = (size <= tol) | (size >= previous)
            if settled.all():
                break
            if groups is not None:
                # A group goes on while any element of it has not converged.
                going = np.bincount(groups[~settled], minlength=groups.max() + 1)[groups] > 0
                live = going if live is None else live & going
                if not live.any():
                    break
            previous = size
        return x


def invert_first_of_doubles(
    rates: np.ndarray,
    spans: np.ndarray,
    u: np.ndarray,
    theta: float,
    groups: np.ndarray | None = None,
) -> np.ndarray:
    """First-merge offsets of double merges 3 → 1, one per element.

    ``rates`` is ``(3, K)``: the exit rates ρ₁, ρ₂, ρ₃ of each element's
    interval.  One Newton solve of ``cdf(τ) = u·total`` over every element
    (:meth:`_DoubleMergeCdf.solve`), where the test oracle runs ``brentq``
    per element, except where the law has another form: an unbounded span
    is Exp(ρ₃); where the closed-form total underflows to
    zero the first merge is a truncated Exp(ρ₃ − ρ₁) (large spans) or the
    triangular λ → 0 limit (tiny spans); a target at or above the ceiling
    lands just inside the span.  ``groups`` labels the elements for the
    solve's group-wise stop (all one group when omitted).
    """
    bounded = np.isfinite(spans)
    finite = np.where(bounded, spans, 1.0)  # a stand-in where the law is Exp(ρ₃)
    cdf = _DoubleMergeCdf(rates, finite, theta)
    underflow = bounded & (cdf.total <= 0.0)
    solved = bounded & ~underflow & (cdf.reach > u * cdf.reach)
    if solved.all():
        return cdf.solve(u, groups)
    lam = rates[2] - rates[0]
    result = np.where(
        underflow,
        np.where(
            lam * finite > 1.0,
            -np.log1p(-u * -np.expm1(-lam * finite)) / lam,
            finite * (1.0 - np.sqrt(1.0 - u)),
        ),
        np.where(bounded, finite * (1.0 - 1e-12), -np.log1p(-u) / rates[2]),
    )
    rows = np.flatnonzero(solved)
    result[rows] = cdf.take(rows).solve(u[rows], None if groups is None else groups[rows])
    return result
