"""Neighbourhood resimulation — the LAMARC proposal mechanism.

The proposal deletes a targeted non-root interior node and its parent
(Fig. 7), leaving three "child" subtree roots dangling below the target's
grandparent (the *ancestor*), and then re-simulates how those three lineages
coalesce back into a single lineage, conditional on the rest of the tree and
on the driving θ (Figs. 8–9).  Because the re-simulation draws from the
conditional coalescent prior P(G | θ, rest of tree), the Metropolis-Hastings
acceptance ratio collapses to a data-likelihood ratio (Eq. 28) and the
generalized-MH proposal-set weights collapse to P(D | G̃ᵢ) (Eq. 31).

The simulation proceeds over the feasible intervals computed by
:mod:`repro.proposals.intervals`:

1. a *backward pass* computes, for every interval and every possible number
   of active lineages, the probability of finishing the resimulation with a
   single active lineage by the ancestor time (the paper's ``P_i(n)``
   recursion), and
2. a *forward pass* walks the intervals from the most recent to the oldest,
   sampling how many coalescent events each interval contains (weighted by
   the backward probabilities, so the walk is conditioned on a valid
   outcome) and then where inside the interval they fall, using the
   per-interval kinetics of :mod:`repro.proposals.kinetics`.

The proposal may re-pair the three child subtrees arbitrarily, so both node
times and tree topology change (Fig. 9).

A generalized-MH proposal *set* shares one neighbourhood φ across all N+1
candidates (Eq. 31), so everything that depends only on (tree, target) —
the region, the feasible intervals, the kinetics, the per-interval
transition matrices, the backward-pass table, and the demography Λ
rescaling — is identical for every sibling.  :meth:`propose_set` computes
each of those exactly once per set, along with a table of the conditioned
end-state weights of every interval and active-lineage count, and runs the
forward pass from that table and the tree surgery vectorized across all
siblings; :meth:`propose` remains the per-proposal reference kernel the
batched path is tested against.  Transition matrices depend only on an
interval's inactive count and span, so each resimulator memoizes them
across sets.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..genealogy.tree import Genealogy
from .intervals import (
    FeasibleInterval,
    Region,
    build_intervals,
    extract_region,
    rescaled_interval_spans,
)
from .kinetics import IntervalKinetics, kinetics_for

__all__ = [
    "NeighborhoodResimulator",
    "ResimulationError",
    "ResimulationOutcome",
    "eligible_targets",
]

_TIME_EPS = 1e-12

#: Interval transition matrices kept per resimulator, keyed by (n_inactive, span).
_MATRIX_MEMO_SIZE = 256

#: Active-lineage counts a, b ∈ {1, 2, 3} of the end-state table.
_STATES = np.arange(1, 4)

#: The three unordered pairs of a 3-element active list, indexed by ⌊3u⌋.
_PAIRS_OF_THREE = ((0, 1), (0, 2), (1, 2))


class ResimulationError(RuntimeError):
    """A resimulated neighbourhood could not be stitched into a valid tree."""


def eligible_targets(tree: Genealogy) -> np.ndarray:
    """Interior nodes that may be targeted: every interior node except the root."""
    internal = tree.internal_nodes()
    return internal[internal != tree.root]


@dataclass(frozen=True)
class ResimulationOutcome:
    """A resimulated genealogy plus bookkeeping about what changed."""

    tree: Genealogy
    region: Region
    new_times: tuple[float, float]
    topology_changed: bool


@dataclass
class _SetContext:
    """Everything about one proposal set that is identical across siblings.

    Built once per (tree, target) by :meth:`NeighborhoodResimulator._build_set_context`
    and shared by every candidate of the set: the deleted region, the
    feasible intervals, the per-interval kinetics and (log-)transition
    matrices (read-only, shared through the resimulator's memo), the
    backward-pass goal table, and — on the demography path —
    the Λ-rescaled interval starts.  ``double_cdfs`` lazily caches the
    closed-form 3 → 1 first-merge CDF per interval so sibling double merges
    share one construction.
    """

    region: Region
    intervals: list[FeasibleInterval]
    kinetics: list[IntervalKinetics]
    spans: list[float]
    tau_starts: list[float] | None
    matrices: list[np.ndarray]
    goal: np.ndarray
    log_space: bool
    double_cdfs: dict = field(default_factory=dict)


class NeighborhoodResimulator:
    """Generates LAMARC-style neighbourhood-resimulation proposals.

    Parameters
    ----------
    theta:
        Driving value of θ for the conditional coalescent prior.
    validate:
        When True every proposed genealogy is structurally validated before
        being returned (useful in tests; too slow for production chains).
    demography:
        Optional :class:`~repro.demography.base.Demography`.  When given
        (and not the constant model) the proposal draws from the
        *demography-conditional* coalescent P_dem(G | θ, params, rest of
        tree) by time rescaling: the feasible-interval spans are mapped
        through the cumulative intensity Λ, the constant-size kinetics run
        in rescaled time (where every demography is the constant
        coalescent), and sampled event times map back through Λ⁻¹.  The
        resulting kernel keeps the prior/proposal cancellation of Eq. 28 /
        Eq. 31 exact under the demography prior — no importance correction
        needed — which is what lets the chain mix at large |g| where the
        constant-kernel-plus-correction approach stalls.
    batch_proposals:
        When True (the default) :meth:`propose_set` shares the per-set work
        across all siblings and vectorizes the forward pass and rebuild;
        when False it falls back to N independent :meth:`propose` calls —
        the reference kernel, same distribution, different RNG-stream
        consumption order.

    Work counters (``n_proposal_sets``, ``n_interval_builds``,
    ``n_backward_passes``, ``n_proposals_generated``, ``n_intervals``,
    ``n_matrix_builds``) accumulate across calls; the batched path performs
    exactly one interval build and one backward pass per proposal set, the
    reference path one of each per proposal.  ``n_intervals`` counts the
    feasible intervals those builds produced and ``n_matrix_builds`` the
    interval transition matrices actually computed: a matrix depends only on
    the interval's inactive count and span (θ is fixed for the resimulator's
    lifetime), so the last ``_MATRIX_MEMO_SIZE`` distinct ones are reused.
    """

    def __init__(
        self,
        theta: float,
        *,
        validate: bool = False,
        demography=None,
        batch_proposals: bool = True,
    ) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = float(theta)
        self.validate = bool(validate)
        self.batch_proposals = bool(batch_proposals)
        # The constant model (including exponential growth at g = 0) takes
        # the untransformed fast path, bit-identical to the paper's kernel.
        self.demography = (
            demography if demography is not None and not demography.is_constant else None
        )
        self.n_proposal_sets = 0
        self.n_interval_builds = 0
        self.n_backward_passes = 0
        self.n_proposals_generated = 0
        self.n_intervals = 0
        self.n_matrix_builds = 0
        self._matrices: OrderedDict[tuple[int, float], np.ndarray] = OrderedDict()

    def counters(self) -> dict[str, int]:
        """Snapshot of the shared-work counters (diagnostics / tests)."""
        return {
            "n_proposal_sets": self.n_proposal_sets,
            "n_interval_builds": self.n_interval_builds,
            "n_backward_passes": self.n_backward_passes,
            "n_proposals_generated": self.n_proposals_generated,
            "n_intervals": self.n_intervals,
            "n_matrix_builds": self.n_matrix_builds,
        }

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def choose_target(self, tree: Genealogy, rng: np.random.Generator) -> int:
        """Sample the auxiliary neighbourhood variable φ uniformly (Section 4.3)."""
        targets = eligible_targets(tree)
        if targets.size == 0:
            raise ValueError(
                "no eligible resimulation targets; the genealogy needs at least 3 tips"
            )
        return int(targets[rng.integers(targets.size)])

    def propose(
        self, tree: Genealogy, target: int, rng: np.random.Generator
    ) -> ResimulationOutcome:
        """Resimulate the neighbourhood around ``target`` and return the new genealogy."""
        ctx = self._build_set_context(tree, target)
        merge_times = self._forward_pass(ctx, rng)
        new_tree, new_nodes, first_pair = self._rebuild(tree, ctx.region, merge_times, rng)

        if self.validate:
            new_tree.validate()

        self.n_proposals_generated += 1
        return ResimulationOutcome(
            tree=new_tree,
            region=ctx.region,
            new_times=(float(new_tree.times[new_nodes[0]]), float(new_tree.times[new_nodes[1]])),
            topology_changed=self._topology_changed(tree, ctx.region, first_pair),
        )

    def propose_set(
        self, tree: Genealogy, target: int, n: int, rng: np.random.Generator
    ) -> list[ResimulationOutcome]:
        """Generate the ``n`` sibling proposals of one GMH set around ``target``.

        All siblings share the per-set context (region, intervals, kinetics,
        transition matrices, backward pass, Λ rescaling), computed exactly
        once; the forward pass then samples all ``n`` conditioned interval
        walks as stacked array operations — one categorical end-state draw
        per interval for the whole set, vectorized truncated-exponential
        inversion for the merge offsets, and (on the demography path) a
        single batched Λ⁻¹ call over every sampled τ — and the rebuild
        writes all sibling trees from shared preallocated buffers.

        With ``batch_proposals=False`` this is exactly ``n`` independent
        :meth:`propose` calls (the reference kernel).  The two paths draw
        from the same distribution but consume the RNG stream in different
        orders, so fixed-seed trajectories differ between them.
        """
        if n < 1:
            raise ValueError("a proposal set needs at least one proposal")
        self.n_proposal_sets += 1
        if not self.batch_proposals:
            return [self.propose(tree, target, rng) for _ in range(n)]

        ctx = self._build_set_context(tree, target)
        merge_times = self._forward_pass_batch(ctx, n, rng)
        outcomes = self._rebuild_batch(tree, ctx, merge_times, rng)
        self.n_proposals_generated += n
        return outcomes

    def propose_random(
        self, tree: Genealogy, rng: np.random.Generator
    ) -> ResimulationOutcome:
        """Choose a target uniformly at random and resimulate it."""
        target = self.choose_target(tree, rng)
        if self.batch_proposals:
            self.n_proposal_sets += 1
            ctx = self._build_set_context(tree, target)
            merge_times = self._forward_pass_batch(ctx, 1, rng)
            outcome = self._rebuild_batch(tree, ctx, merge_times, rng)[0]
            self.n_proposals_generated += 1
            return outcome
        return self.propose(tree, target, rng)

    def propose_random_stack(
        self,
        trees: list[Genealogy],
        rngs: list[np.random.Generator],
    ) -> list[ResimulationOutcome]:
        """One lock-step proposal for each of a *stack* of chains.

        ``trees[i]`` is chain ``i``'s current state and ``rngs[i]`` its
        private stream.  The per-set pipeline of :meth:`propose_random` is
        stage-separated across the stack — all target choices, then all set
        contexts, then all forward passes, then all rebuilds — so each stage
        runs over the whole stack while every chain still consumes *its own*
        stream in exactly the order the solo :meth:`propose_random` call
        would (choose_target, forward pass, rebuild; the context build draws
        nothing).  Each chain's outcome is therefore bit-identical to its
        solo run for any stack width, which is the contract the stacked
        multichain executor's lock-step rounds rely on.

        The stage separation is what the stack shares: the per-interval
        kinetics objects are memoized across every context in the stack
        (:func:`repro.proposals.kinetics.kinetics_for`), and the caller gets
        all sibling trees back in one list ready for a single batched
        likelihood evaluation.
        """
        if len(trees) != len(rngs):
            raise ValueError("need exactly one RNG stream per stacked chain")
        targets = [self.choose_target(t, r) for t, r in zip(trees, rngs)]
        if self.batch_proposals:
            self.n_proposal_sets += len(trees)
            contexts = [self._build_set_context(t, tgt) for t, tgt in zip(trees, targets)]
            merge_times = [
                self._forward_pass_batch(ctx, 1, r) for ctx, r in zip(contexts, rngs)
            ]
            outcomes = [
                self._rebuild_batch(t, ctx, mt, r)[0]
                for t, ctx, mt, r in zip(trees, contexts, merge_times, rngs)
            ]
            self.n_proposals_generated += len(trees)
            return outcomes
        # Reference kernel, stage-separated the same way (counter semantics
        # follow :meth:`propose`: no set is counted on this path).
        contexts = [self._build_set_context(t, tgt) for t, tgt in zip(trees, targets)]
        merge_times = [self._forward_pass(ctx, r) for ctx, r in zip(contexts, rngs)]
        outcomes = []
        for t, ctx, mt, r in zip(trees, contexts, merge_times, rngs):
            new_tree, new_nodes, first_pair = self._rebuild(t, ctx.region, mt, r)
            if self.validate:
                new_tree.validate()
            self.n_proposals_generated += 1
            outcomes.append(
                ResimulationOutcome(
                    tree=new_tree,
                    region=ctx.region,
                    new_times=(
                        float(new_tree.times[new_nodes[0]]),
                        float(new_tree.times[new_nodes[1]]),
                    ),
                    topology_changed=self._topology_changed(t, ctx.region, first_pair),
                )
            )
        return outcomes

    # ------------------------------------------------------------------ #
    # Shared per-set context
    # ------------------------------------------------------------------ #
    def _build_set_context(self, tree: Genealogy, target: int) -> _SetContext:
        """All the sibling-invariant work: done once per proposal set."""
        region = extract_region(tree, target)
        intervals = build_intervals(tree, region)
        self.n_interval_builds += 1
        self.n_intervals += len(intervals)
        kinetics = [kinetics_for(iv.n_inactive, self.theta) for iv in intervals]
        # Rescaled spans can be so large that linear-space transition weights
        # underflow while their ratios stay well defined, so the demography
        # path runs the two passes in log space.
        log_space = self.demography is not None
        if log_space:
            tau_starts, spans = rescaled_interval_spans(intervals, self.demography)
        else:
            tau_starts = None
            spans = [iv.length for iv in intervals]
        matrices = [self._transition_matrix(k, s) for k, s in zip(kinetics, spans)]
        if log_space:
            goal = self._backward_pass_log(intervals, matrices)
        else:
            goal = self._backward_pass(intervals, matrices)
        self.n_backward_passes += 1
        return _SetContext(
            region=region,
            intervals=intervals,
            kinetics=kinetics,
            spans=spans,
            tau_starts=tau_starts,
            matrices=matrices,
            goal=goal,
            log_space=log_space,
        )

    def _transition_matrix(self, kinetics: IntervalKinetics, span: float) -> np.ndarray:
        """The interval's (log-, on the demography path) transition matrix, memoized.

        The matrix is a pure function of ``(n_inactive, span)`` for this
        resimulator's fixed θ, and chains revisit the same intervals often,
        so a bounded LRU of read-only matrices serves the repeats.
        """
        key = (kinetics.n_inactive, span)
        matrix = self._matrices.get(key)
        if matrix is not None:
            self._matrices.move_to_end(key)
            return matrix
        if self.demography is not None:
            matrix = kinetics.log_transition_matrix(span)
        else:
            matrix = kinetics.transition_matrix(span)
        matrix.flags.writeable = False
        self._matrices[key] = matrix
        if len(self._matrices) > _MATRIX_MEMO_SIZE:
            self._matrices.popitem(last=False)
        self.n_matrix_builds += 1
        return matrix

    # ------------------------------------------------------------------ #
    # Backward pass: P_i(n) of the paper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _backward_pass(
        intervals: list[FeasibleInterval],
        matrices: list[np.ndarray],
    ) -> np.ndarray:
        """Probability of a valid finish given ``a`` active lineages at each interval start.

        ``goal[m, a-1]`` is the probability that, starting interval ``m``
        with ``a`` active lineages (activations at the start of interval
        ``m`` already counted), the process ends the resimulation range with
        exactly one active lineage and suffers no active–inactive
        coalescence.  ``matrices[m]`` is the interval's transition matrix
        S_{a,b} over its span in the kinetics' time scale (calendar time for
        the constant model, Λ-rescaled time for a demography; a demography
        with finite total intensity makes the final span finite,
        conditioning on eventual coalescence).
        """
        n_intervals = len(intervals)
        goal = np.zeros((n_intervals + 1, 3))
        # Virtual state beyond the final boundary: success iff one active lineage.
        goal[n_intervals] = np.array([1.0, 0.0, 0.0])
        for m in range(n_intervals - 1, -1, -1):
            s_matrix = matrices[m]
            next_activations = intervals[m + 1].activations if m + 1 < n_intervals else 0
            for a in range(1, 4):
                total = 0.0
                for b in range(1, a + 1):
                    carried = b + next_activations
                    if carried > 3:
                        continue
                    total += s_matrix[a - 1, b - 1] * goal[m + 1, carried - 1]
                goal[m, a - 1] = total
        return goal

    @staticmethod
    def _backward_pass_log(
        intervals: list[FeasibleInterval],
        matrices: list[np.ndarray],
    ) -> np.ndarray:
        """The backward pass on log probabilities (demography-rescaled spans).

        Identical recursion to :meth:`_backward_pass` with products turned
        into sums: rescaled spans grow like e^{g t}, so the linear-space
        weights underflow to zero long before their *ratios* — which are
        all the conditioned forward walk needs — become ill defined.
        """
        n_intervals = len(intervals)
        log_goal = np.full((n_intervals + 1, 3), -np.inf)
        log_goal[n_intervals, 0] = 0.0
        for m in range(n_intervals - 1, -1, -1):
            log_s = matrices[m]
            next_activations = intervals[m + 1].activations if m + 1 < n_intervals else 0
            for a in range(1, 4):
                terms = []
                for b in range(1, a + 1):
                    carried = b + next_activations
                    if carried > 3:
                        continue
                    terms.append(log_s[a - 1, b - 1] + log_goal[m + 1, carried - 1])
                if terms:
                    peak = max(terms)
                    if np.isfinite(peak):
                        log_goal[m, a - 1] = peak + np.log(
                            sum(np.exp(t - peak) for t in terms)
                        )
        return log_goal

    # ------------------------------------------------------------------ #
    # Forward pass: conditioned sampling of merge times
    # ------------------------------------------------------------------ #
    def _forward_pass(self, ctx: _SetContext, rng: np.random.Generator) -> list[float]:
        """Sample the two merge times, conditioned on a valid finish.

        With a demography, ``ctx.goal`` holds *log* probabilities
        (``log_space=True``), the per-interval kinetics run in rescaled time
        (spans and offsets are τ-valued), and each sampled offset maps back
        to calendar time through Λ⁻¹; otherwise offsets are calendar offsets
        from the interval start.
        """
        intervals, kinetics, goal = ctx.intervals, ctx.kinetics, ctx.goal
        n_intervals = len(intervals)
        merge_times: list[float] = []
        active = 0
        for m, interval in enumerate(intervals):
            active += interval.activations
            if active < 1 or active > 3:
                raise RuntimeError("active lineage bookkeeping is inconsistent")
            span = ctx.spans[m]
            next_activations = intervals[m + 1].activations if m + 1 < n_intervals else 0
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
                offsets = kinetics[m].sample_merge_times(active, end_state, span, rng)
                for off in offsets:
                    bounded = np.isfinite(span)
                    upper = span * (1.0 - _TIME_EPS) if bounded else off
                    off = min(max(off, span * _TIME_EPS if bounded else _TIME_EPS), upper)
                    if ctx.tau_starts is None:
                        merge_times.append(interval.start + off)
                    else:
                        t = float(
                            self.demography.inverse_cumulative_intensity(
                                ctx.tau_starts[m] + off
                            )
                        )
                        # The Λ → Λ⁻¹ roundtrip can land epsilon outside the
                        # interval (below a child-root activation time),
                        # violating the activation invariant the rebuild
                        # relies on — clamp back into [start, end].
                        merge_times.append(min(max(t, interval.start), interval.end))
            active = end_state

        if active != 1 or len(merge_times) != 2:
            raise RuntimeError(
                f"resimulation finished with {active} active lineages and "
                f"{len(merge_times)} merges; expected 1 and 2"
            )
        return sorted(merge_times)

    @staticmethod
    def _end_state_table(ctx: _SetContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Conditioned end-state weights of every interval and active count.

        Row ``[m, a-1]`` holds what the forward pass needs to draw the
        active count ``b`` at the end of interval ``m`` from ``a`` at its
        start: ``cum[m, a-1]`` the cumulative weights over ``b = 1, 2, 3``
        (zero, or ``-inf`` before the log-space shift, where ``b > a`` or
        the carried count would exceed three), ``total[m, a-1]`` their sum,
        and ``dead[m, a-1]`` whether no valid finish exists from that state.
        The weights depend on the interval and ``a`` only, so every sibling
        of a set reads the same table; each row is computed with the same
        element-wise arithmetic as the reference :meth:`_forward_pass`
        (product with the goal tail, or in log space the sum, max-shift and
        ``exp``).  Every weight is non-negative, so each ``cum`` row is
        sorted.
        """
        n_intervals = len(ctx.intervals)
        next_activations = np.zeros(n_intervals, dtype=np.int64)
        next_activations[:-1] = [iv.activations for iv in ctx.intervals[1:]]
        carried = _STATES[None, :] + next_activations[:, None]
        allowed = (_STATES[None, :] <= _STATES[:, None])[None, :, :] & (carried <= 3)[:, None, :]
        tail = ctx.goal[np.arange(1, n_intervals + 1)[:, None], np.minimum(carried, 3) - 1]
        matrices = np.stack(ctx.matrices)
        if ctx.log_space:
            weights = np.where(allowed, matrices + tail[:, None, :], -np.inf)
            peak = weights.max(axis=2)
            reachable = np.isfinite(peak)
            weights = np.exp(weights - np.where(reachable, peak, 0.0)[:, :, None])
        else:
            weights = np.where(allowed, matrices * tail[:, None, :], 0.0)
        cum = np.cumsum(weights, axis=2)
        total = cum[:, :, -1]
        dead = total <= 0.0
        if ctx.log_space:
            dead |= ~reachable
        return cum, total, dead

    def _forward_pass_batch(
        self, ctx: _SetContext, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The forward pass for all ``n`` siblings at once.

        Walks the intervals once, reading each sibling's conditioned
        end-state weights from the per-set :meth:`_end_state_table`; one
        uniform per sibling and interval resolves the draw (cumulative-sum
        inversion), and the merge offsets of all siblings drawing the same
        move are sampled by the vectorized kinetics.  Returns an ``(n, 2)``
        array of sorted calendar merge times; the demography path maps every
        sampled τ back through one batched Λ⁻¹ call at the end.
        """
        cum, total, dead = self._end_state_table(ctx)
        any_dead = dead.any(axis=1).tolist()
        intervals, spans = ctx.intervals, ctx.spans
        active = np.zeros(n, dtype=np.int64)
        offsets = np.zeros((n, 2))
        owner = np.zeros((n, 2), dtype=np.int64)
        n_found = np.zeros(n, dtype=np.int64)

        for m, interval in enumerate(intervals):
            active = active + interval.activations
            lowest, highest = int(active.min()), int(active.max())
            if lowest < 1 or highest > 3:
                raise RuntimeError("active lineage bookkeeping is inconsistent")
            if lowest == highest:
                row = lowest - 1
                if dead[m, row]:
                    raise RuntimeError("conditioned resimulation reached a dead end")
                u = rng.random(n) * total[m, row]
                end_state = 1 + np.minimum(np.searchsorted(cum[m, row], u, side="right"), 2)
                if lowest == 1:
                    # A lone lineage cannot merge: nothing to place here.
                    active = end_state
                    continue
            else:
                rows = active - 1
                if any_dead[m] and np.any(dead[m, rows]):
                    raise RuntimeError("conditioned resimulation reached a dead end")
                u = rng.random(n) * total[m, rows]
                end_state = 1 + np.minimum((cum[m, rows] <= u[:, None]).sum(axis=1), 2)
            n_events = active - end_state
            span = spans[m]

            kin = ctx.kinetics[m]
            singles = np.flatnonzero(n_events == 1)
            if singles.size:
                offs = kin.sample_single_merge_batch(
                    active[singles], np.full(singles.size, span), rng
                )
                self._record_merges(
                    offsets, owner, n_found, singles, m, self._clip_offsets(offs, span)
                )
            doubles = np.flatnonzero(n_events == 2)
            if doubles.size:
                cdf_total = ctx.double_cdfs.get(m)
                if cdf_total is None and math.isfinite(span):
                    cdf_total = kin.double_merge_cdf(span)
                    ctx.double_cdfs[m] = cdf_total
                tau1 = kin.sample_first_of_double_batch(
                    span, doubles.size, rng, cdf_total=cdf_total
                )
                if math.isfinite(span):
                    remaining = span - tau1
                else:
                    remaining = np.full(doubles.size, math.inf)
                tau2 = tau1 + kin.sample_single_merge_batch(
                    np.full(doubles.size, 2), remaining, rng
                )
                self._record_merges(
                    offsets, owner, n_found, doubles, m, self._clip_offsets(tau1, span)
                )
                self._record_merges(
                    offsets, owner, n_found, doubles, m, self._clip_offsets(tau2, span)
                )
            active = end_state

        if np.any(active != 1) or np.any(n_found != 2):
            raise RuntimeError(
                "batched resimulation finished with inconsistent active-lineage "
                f"or merge counts (active={active.tolist()}, found={n_found.tolist()})"
            )
        return self._offsets_to_calendar(ctx, offsets, owner)

    @staticmethod
    def _clip_offsets(offsets: np.ndarray, span: float) -> np.ndarray:
        """Keep sampled offsets strictly inside the interval (matches the scalar clamp)."""
        if math.isfinite(span):
            return np.clip(offsets, span * _TIME_EPS, span * (1.0 - _TIME_EPS))
        return np.maximum(offsets, _TIME_EPS)

    @staticmethod
    def _record_merges(offsets, owner, n_found, rows, m, values) -> None:
        """File one sampled merge per listed sibling into its next free slot."""
        slots = n_found[rows]
        offsets[rows, slots] = values
        owner[rows, slots] = m
        n_found[rows] += 1

    def _offsets_to_calendar(
        self, ctx: _SetContext, offsets: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Map all (interval, offset) samples to sorted calendar merge times."""
        starts = np.asarray([iv.start for iv in ctx.intervals])
        if ctx.tau_starts is None:
            times = starts[owner] + offsets
        else:
            tau = np.asarray(ctx.tau_starts)[owner] + offsets
            mapped = np.asarray(
                self.demography.inverse_cumulative_intensity(tau.ravel()), dtype=float
            )
            times = mapped.reshape(tau.shape)
            # Same clamp as the scalar path: the Λ → Λ⁻¹ roundtrip must not
            # push a merge outside its owning interval.
            ends = np.asarray([iv.end for iv in ctx.intervals])
            times = np.minimum(np.maximum(times, starts[owner]), ends[owner])
        return np.sort(times, axis=1)

    # ------------------------------------------------------------------ #
    # Tree surgery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _topology_changed(tree: Genealogy, region: Region, first_pair) -> bool:
        """Whether the resimulated pairing differs from the original topology.

        The rebuild only re-pairs the three child subtree roots, so the
        topology is unchanged exactly when the *first* merge re-joins the
        target's original two children (the second merge then necessarily
        re-creates the original parent pairing).  This is equivalent to
        comparing full ``topology_key()`` strings but costs O(1) per
        proposal instead of two tree traversals.
        """
        original = {int(c) for c in tree.children[region.target]}
        return set(first_pair) != original

    @staticmethod
    def _stitch(times, parent, children, region: Region, merge_times, choose_pair):
        """Write the resimulated neighbourhood into raw tree arrays, in place.

        ``choose_pair(event_index, n_active)`` returns the two (sorted,
        distinct) positions of the active list to merge — the reference path
        draws them from the RNG, the batched path from prefetched uniforms.
        Returns ``(new_nodes, first_pair)`` where ``first_pair`` is the pair
        of subtree roots joined by the first merge (for the cheap topology
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

    @staticmethod
    def _rewritten_nodes(tree: Genealogy, region: Region) -> tuple[int, ...]:
        """Nodes whose subtree a resimulation of ``region`` rewrites, children first.

        The stitch re-creates ``region.target`` (the first merge) below
        ``region.parent`` (the second); every other change is a new branch
        length under the ancestor, which alters the ancestor's subtree and
        so each subtree on the path from it to the root.  The three child
        roots keep their subtrees.
        """
        nodes = [region.target, region.parent]
        if region.bounded:
            parent = tree.parent
            node = region.ancestor
            while node >= 0:
                nodes.append(node)
                node = int(parent[node])
        return tuple(nodes)

    @classmethod
    def _rebuild(
        cls,
        tree: Genealogy,
        region: Region,
        merge_times,
        rng: np.random.Generator,
    ) -> tuple[Genealogy, tuple[int, int], tuple[int, int]]:
        """Stitch the resimulated neighbourhood back into a copy of the tree."""
        new = tree.copy()

        def choose_pair(event_index: int, n_active: int) -> tuple[int, int]:
            pair_idx = rng.choice(n_active, size=2, replace=False)
            i, j = sorted(int(x) for x in pair_idx)
            return i, j

        new_nodes, first_pair = cls._stitch(
            new.times, new.parent, new.children, region, merge_times, choose_pair
        )
        new.inherit_rows(tree, cls._rewritten_nodes(tree, region))
        return new, new_nodes, first_pair

    def _rebuild_batch(
        self,
        tree: Genealogy,
        ctx: _SetContext,
        merge_times: np.ndarray,
        rng: np.random.Generator,
    ) -> list[ResimulationOutcome]:
        """Stitch all siblings from shared preallocated buffers.

        One ``(n, …)`` copy of the base arrays replaces n ``tree.copy()``
        calls; per-sibling surgery touches only the handful of resimulated
        entries.  Pair choices come from one prefetched ``(n, 2)`` uniform
        block: with two active lineages the pair is forced, with three the
        uniform picks one of the three unordered pairs — the same marginal
        law as the reference ``rng.choice(3, size=2, replace=False)``.
        """
        region = ctx.region
        n = merge_times.shape[0]
        times_buf = np.repeat(tree.times[None, :], n, axis=0)
        parent_buf = np.repeat(tree.parent[None, :], n, axis=0)
        children_buf = np.repeat(tree.children[None, :, :], n, axis=0)
        pair_u = rng.random((n, 2))
        original_pair = {int(c) for c in tree.children[region.target]}
        rewritten = self._rewritten_nodes(tree, region)

        outcomes = []
        for i in range(n):
            u_row = pair_u[i]

            def choose_pair(event_index: int, n_active: int) -> tuple[int, int]:
                if n_active == 2:
                    return 0, 1
                return _PAIRS_OF_THREE[min(int(u_row[event_index] * 3.0), 2)]

            new_nodes, first_pair = self._stitch(
                times_buf[i], parent_buf[i], children_buf[i], region,
                merge_times[i], choose_pair,
            )
            new = Genealogy(
                times=times_buf[i],
                parent=parent_buf[i],
                children=children_buf[i],
                tip_names=tree.tip_names,
            )
            new._root = tree.root  # the stitch keeps the root's index
            new.inherit_rows(tree, rewritten)
            if self.validate:
                new.validate()
            outcomes.append(
                ResimulationOutcome(
                    tree=new,
                    region=region,
                    new_times=(
                        float(new.times[new_nodes[0]]),
                        float(new.times[new_nodes[1]]),
                    ),
                    topology_changed=set(first_pair) != original_pair,
                )
            )
        return outcomes
