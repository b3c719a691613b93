"""The per-proposal reference kernel: the oracle the proposal-set kernel is tested against.

:class:`ReferenceResimulator` draws the same distribution as
:meth:`repro.proposals.neighborhood.NeighborhoodResimulator.propose_set`,
one proposal, one interval and one event at a time: an end-state draw per
interval with ``rng.choice``, each merge time by inverting its scalar CDF
(``brentq`` for the first merge of a 3 → 1 interval), and a pair choice per
merge with ``rng.choice``.  It consumes the stream in that order, so its
fixed-seed chains differ from the set kernel's; tests pin their own values
for it.

It reuses the set context (region, intervals, transition matrices,
backward pass, Λ rescaling) and the τ → t mapping of the kernel in ``src``,
so a fix to either reaches both kernels.  :class:`IntervalKinetics` holds
the scalar closed forms, one interval and one draw at a time, that the
array programs of :mod:`repro.proposals.kinetics` are checked against.

Tests route the oracle into a chain by swapping a sampler's resimulator
(``sampler.resimulator`` and ``sampler.gmh.resimulator``), or by
monkeypatching ``NeighborhoodResimulator`` in :mod:`repro.core.sampler`
where the sampler is built inside ``run_experiment``.
``tools/proposal_census.py`` loads this file by path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.brent import brentq
from repro.genealogy.tree import Genealogy
from repro.proposals.intervals import Region
from repro.proposals.kinetics import _PHI2_TAYLOR, _REL_TOL, _SERIES_BELOW
from repro.proposals.neighborhood import (
    _TIME_EPS,
    NeighborhoodResimulator,
    ResimulationError,
    ResimulationOutcome,
)

_MAX_ACTIVE = 3  # a neighbourhood resimulation never has more than three active lineages


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

    def exit_rate(self, a: int) -> float:
        """Total hazard ρ_a = μ_a + κ_a leaving the surviving state ``a``.

        κ_a = 2a·n_inactive/θ is the rate of a (forbidden) active–inactive
        coalescence.
        """
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

        The split by d₃ = (ρ₃−ρ₁)Δ into a ψ series and two exponential terms
        is the one :func:`repro.proposals.kinetics.transition_matrices`
        explains.
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
        resimulation needs — remain perfectly well defined.
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


class ReferenceResimulator(NeighborhoodResimulator):
    """:class:`NeighborhoodResimulator` with the per-proposal reference kernel.

    ``propose_set`` is ``n`` independent :meth:`propose` calls, each with a
    set context of its own, so the counters record one interval build and
    one backward pass per proposal.  :meth:`_propose_block` replaces the set
    kernel's block with one forward pass and one rebuild per proposal, so
    the inherited ``propose_random`` and ``propose_random_stack`` run this
    kernel too.
    """

    def propose(
        self, tree: Genealogy, target: int, rng: np.random.Generator
    ) -> ResimulationOutcome:
        """Resimulate the neighbourhood around ``target`` and return the new genealogy."""
        outcome = self._propose_block(tree, self._build_set_context(tree, target), 1, rng)[0]
        self.n_proposals_generated += 1
        return outcome

    def propose_set(
        self, tree: Genealogy, target: int, n: int, rng: np.random.Generator
    ) -> list[ResimulationOutcome]:
        if n < 1:
            raise ValueError("a proposal set needs at least one proposal")
        self.n_proposal_sets += 1
        return [self.propose(tree, target, rng) for _ in range(n)]

    def _propose_block(
        self, tree: Genealogy, ctx, n: int, rng: np.random.Generator
    ) -> list[ResimulationOutcome]:
        """``n`` proposals from one set context, each drawn whole (walk, merges, pairs) in turn."""

        def choose_pair(event_index: int, n_active: int) -> tuple[int, int]:
            i, j = sorted(int(x) for x in rng.choice(n_active, size=2, replace=False))
            return i, j

        region = ctx.region
        outcomes = []
        for _ in range(n):
            merge_times = self._forward_pass(ctx, rng)
            new = tree.copy()
            new_nodes, first_pair = self._stitch(
                new.times, new.parent, new.children, region, merge_times, choose_pair
            )
            new.inherit_rows(tree, self._rewritten_nodes(tree, region))
            if self.validate:
                new.validate()
            outcomes.append(
                ResimulationOutcome(
                    tree=new,
                    region=region,
                    new_times=(float(new.times[new_nodes[0]]), float(new.times[new_nodes[1]])),
                    topology_changed=self._topology_changed(tree, region, first_pair),
                )
            )
        return outcomes

    def _forward_pass(self, ctx, rng: np.random.Generator) -> list[float]:
        """Sample the two merge times, conditioned on a valid finish.

        With a demography, ``ctx.goal`` holds *log* probabilities
        (``log_space=True``) and the per-interval kinetics run in rescaled
        time (spans and offsets are τ-valued).  Each interval's offsets map
        to calendar time as soon as they are drawn, through the set
        kernel's :meth:`~NeighborhoodResimulator._offsets_to_calendar`.
        """
        intervals, goal = ctx.intervals, ctx.goal
        n_intervals = len(intervals)
        activations = intervals.activations.tolist()
        spans = ctx.spans.tolist()
        merge_times: list[float] = []
        active = 0
        for m in range(n_intervals):
            active += activations[m]
            if active < 1 or active > 3:
                raise RuntimeError("active lineage bookkeeping is inconsistent")
            span = spans[m]
            next_activations = activations[m + 1] if m + 1 < n_intervals else 0
            s_matrix = ctx.matrices[m]

            weights = np.full(active, -np.inf) if ctx.log_space else np.zeros(active)
            for b in range(1, active + 1):
                carried = b + next_activations
                if carried > 3:
                    continue
                if ctx.log_space:
                    weights[b - 1] = s_matrix[active - 1, b - 1] + goal[m + 1, carried - 1]
                else:
                    weights[b - 1] = s_matrix[active - 1, b - 1] * goal[m + 1, carried - 1]
            if ctx.log_space:
                peak = weights.max()
                if not np.isfinite(peak):
                    raise RuntimeError("conditioned resimulation reached a dead end")
                weights = np.exp(weights - peak)
            total = weights.sum()
            if total <= 0.0:
                # Should not happen: the backward pass guarantees a positive
                # path exists from any reachable state.
                raise RuntimeError("conditioned resimulation reached a dead end")
            end_state = 1 + int(rng.choice(active, p=weights / total))

            if end_state < active:
                kinetics = IntervalKinetics(int(intervals.n_inactive[m]), self.theta)
                offsets = []
                for off in kinetics.sample_merge_times(active, end_state, span, rng):
                    bounded = np.isfinite(span)
                    upper = span * (1.0 - _TIME_EPS) if bounded else off
                    offsets.append(min(max(off, span * _TIME_EPS if bounded else _TIME_EPS), upper))
                owner = np.full((1, len(offsets)), m)
                times = self._offsets_to_calendar(ctx, np.array([offsets]), owner)
                merge_times.extend(times[0].tolist())
            active = end_state

        if active != 1 or len(merge_times) != 2:
            raise RuntimeError(
                f"resimulation finished with {active} active lineages and "
                f"{len(merge_times)} merges; expected 1 and 2"
            )
        return sorted(merge_times)

    @staticmethod
    def _topology_changed(tree: Genealogy, region: Region, first_pair) -> bool:
        """Whether the resimulated pairing differs from the original topology.

        The rebuild only re-pairs the three child subtree roots, so the
        topology is unchanged exactly when the *first* merge re-joins the
        target's original two children (the second merge then necessarily
        re-creates the original parent pairing).
        """
        original = {int(c) for c in tree.children[region.target]}
        return set(first_pair) != original

    @staticmethod
    def _stitch(times, parent, children, region: Region, merge_times, choose_pair):
        """Write the resimulated neighbourhood into raw tree arrays, in place.

        ``choose_pair(event_index, n_active)`` returns the two (sorted,
        distinct) positions of the active list to merge.  Returns
        ``(new_nodes, first_pair)`` where ``first_pair`` is the pair of
        subtree roots joined by the first merge (for the cheap topology
        comparison).
        """
        # Indices reused for the new events.  The top merge takes the
        # parent's index, so a tree's root index never changes.
        node_a, node_b = region.target, region.parent

        # Active handles: the three dangling subtree roots, ordered by time so
        # that whoever is active at each merge is well defined.
        child_times = dict(zip(region.child_roots, region.child_times))

        new_nodes = (node_a, node_b)
        active: list[int] = []
        pending = sorted(region.child_roots, key=lambda c: child_times[c])
        first_pair: tuple[int, int] | None = None
        for event_index, t_merge in enumerate(merge_times):
            # Activate every child whose time is at or below the merge time.
            while pending and child_times[pending[0]] <= t_merge:
                active.append(pending.pop(0))
            while len(active) < 2:
                # Guard against floating-point ordering issues: activate the
                # next pending child (its time can only be epsilon above).
                if not pending:
                    raise ResimulationError(
                        f"cannot place merge {event_index} at t={t_merge!r} for "
                        f"target {region.target}: fewer than two lineages can be "
                        f"active (child times {region.child_times}, merge times "
                        f"{[float(t) for t in merge_times]})"
                    )
                active.append(pending.pop(0))
            i, j = choose_pair(event_index, len(active))
            first, second = active[i], active[j]
            if first_pair is None:
                first_pair = (first, second)
            new_node = new_nodes[event_index]
            # Ensure the merge is strictly older than both children.
            t_min = max(float(times[first]), float(times[second]))
            t_node = max(float(t_merge), t_min + _TIME_EPS)
            times[new_node] = t_node
            children[new_node] = (first, second)
            parent[first] = new_node
            parent[second] = new_node
            active = [x for x in active if x not in (first, second)]
            active.append(new_node)

        assert not pending and len(active) == 1
        top = active[0]

        if region.bounded:
            ancestor = region.ancestor
            parent[top] = ancestor
            for k in range(2):
                if children[ancestor, k] == region.parent:
                    children[ancestor, k] = top
            # The second merge must stay strictly below the ancestor *and*
            # strictly above its own children: squeezing it under the
            # ancestor without rechecking the lower bound can emit an
            # invalid genealogy that validate=False chains silently accept.
            upper = float(times[ancestor])
            if times[top] >= upper:
                c0, c1 = (int(c) for c in children[top])
                child_max = max(float(times[c0]), float(times[c1]))
                squeezed = upper - _TIME_EPS * max(1.0, upper)
                if squeezed <= child_max:
                    squeezed = 0.5 * (child_max + upper)
                if not child_max < squeezed < upper:
                    raise ResimulationError(
                        f"no valid time for the top merge of target {region.target}: "
                        f"ancestor at {upper!r}, children at {child_max!r} leave an "
                        f"empty window"
                    )
                times[top] = squeezed
        else:
            parent[top] = -1

        return new_nodes, first_pair
