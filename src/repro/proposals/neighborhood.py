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
the region, the feasible intervals, the transition matrices, the
backward-pass table and the demography Λ rescaling — is identical for every
sibling.  :meth:`NeighborhoodResimulator.propose_set` builds a set as one
array program (the paper's data-parallel set kernel, Section 5.2.1):

* the *set context* builds every interval's transition matrix in one
  closed-form array call and runs the backward pass as a doubling scan over
  the ``(intervals, 3, 3)`` stack;
* the *forward pass* draws one block of uniforms for the whole set, walks
  the end states of all siblings at once (one gather per interval), inverts
  every single merge of the set in one array call, solves every double
  merge in one Newton solve, and maps τ → t once;
* the *rebuild* stitches all candidates into one ``(n, n_nodes)`` block and
  wraps each row as a :class:`~repro.genealogy.tree.Genealogy`.

:meth:`~NeighborhoodResimulator.propose` (``batch_proposals=False``) is the
per-proposal reference kernel the set kernel is tested against: the same
distribution, drawn one interval and one event at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genealogy.tree import Genealogy
from .intervals import (
    FeasibleIntervals,
    Region,
    build_intervals,
    extract_region,
    rescaled_interval_spans,
)
from .kinetics import (
    exit_rates,
    invert_first_of_doubles,
    invert_single_merges,
    kinetics_for,
    transition_matrices,
)

__all__ = [
    "NeighborhoodResimulator",
    "ResimulationError",
    "ResimulationOutcome",
    "eligible_targets",
]

_TIME_EPS = 1e-12

#: The forward walk's state is the active count at an interval's start,
#: 1–3, or ``_DEAD`` once the walk has reached a dead end; it stays there.
#: State 0 never occurs and has a dead row too.
_DEAD = 4

#: The three unordered pairs (first, second) of the time-sorted child roots,
#: indexed by ⌊3u⌋, and the root each leaves out.
_PAIR_FIRST = np.array([0, 0, 1])
_PAIR_SECOND = np.array([1, 2, 2])
_PAIR_LEFT = np.array([2, 1, 0])

#: Uniforms per sibling in a set's block besides one per interval: two
#: merge offsets, then two pair choices.
_BLOCK_EXTRA = 4


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

    Built once per (tree, target) by
    :meth:`NeighborhoodResimulator._build_set_context` and shared by every
    candidate of the set: the deleted region, the feasible intervals, the
    interval spans in the kinetics' time scale, the ``(3, M)`` exit rates,
    the ``(M, 3, 3)`` (log-, on the demography path) transition matrices
    and the same matrices with their columns moved to the carried active
    count (``shifted``, see :meth:`NeighborhoodResimulator._shift_columns`),
    the backward-pass goal table and, on the demography path, the
    Λ-rescaled interval starts.
    """

    region: Region
    intervals: FeasibleIntervals
    spans: np.ndarray
    tau_starts: np.ndarray | None
    rates: np.ndarray
    matrices: np.ndarray
    shifted: np.ndarray
    goal: np.ndarray
    log_space: bool


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
        When True (the default) :meth:`propose_set` builds the whole set as
        one array program; when False it falls back to N independent
        :meth:`propose` calls — the reference kernel, same distribution,
        different RNG-stream consumption order.

    Work counters (``n_proposal_sets``, ``n_interval_builds``,
    ``n_backward_passes``, ``n_proposals_generated``, ``n_intervals``)
    accumulate across calls; the batched path performs exactly one interval
    build and one backward pass per proposal set, the reference path one of
    each per proposal.  ``n_intervals`` counts the feasible intervals those
    builds produced.
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

    def counters(self) -> dict[str, int]:
        """Snapshot of the shared-work counters (diagnostics / tests)."""
        return {
            "n_proposal_sets": self.n_proposal_sets,
            "n_interval_builds": self.n_interval_builds,
            "n_backward_passes": self.n_backward_passes,
            "n_proposals_generated": self.n_proposals_generated,
            "n_intervals": self.n_intervals,
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

        The set is one array program over all ``n`` siblings (see the
        module docstring): one set context, one block of uniforms, one
        end-state walk, one inversion of all single merges, one solve of
        all double merges, one τ → t mapping and one stitch of the
        ``(n, n_nodes)`` candidate block.

        Stream contract: after the target is chosen, a set over ``M``
        feasible intervals draws exactly ``rng.random((n, M + 4))`` and
        nothing else.  Row ``i`` belongs to sibling ``i``: columns
        ``0 … M−1`` are its end-state uniforms, one per interval, columns
        ``M`` and ``M+1`` its two merge-offset uniforms and ``M+2``,
        ``M+3`` its two pair uniforms.  The shape depends on ``n`` and the
        tree and target only, never on the sampled walk.

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
        outcomes = self._propose_block(tree, self._build_set_context(tree, target), n, rng)
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
            outcome = self._propose_block(tree, ctx, 1, rng)[0]
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
        contexts, then one set of one proposal per chain — while every chain
        still consumes *its own* stream in exactly the order the solo
        :meth:`propose_random` call would (choose_target, then its block;
        the context build draws nothing).  Each chain's outcome is therefore
        bit-identical to its solo run for any stack width, which is the
        contract the stacked multichain executor's lock-step rounds rely on.
        The caller gets all trees back in one list, ready for a single
        batched likelihood evaluation.
        """
        if len(trees) != len(rngs):
            raise ValueError("need exactly one RNG stream per stacked chain")
        targets = [self.choose_target(t, r) for t, r in zip(trees, rngs)]
        contexts = [self._build_set_context(t, tgt) for t, tgt in zip(trees, targets)]
        if self.batch_proposals:
            self.n_proposal_sets += len(trees)
            outcomes = [
                self._propose_block(t, ctx, 1, r)[0]
                for t, ctx, r in zip(trees, contexts, rngs)
            ]
            self.n_proposals_generated += len(trees)
            return outcomes
        # Reference kernel, stage-separated the same way (counter semantics
        # follow :meth:`propose`: no set is counted on this path).
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
        # Rescaled spans can be so large that linear-space transition weights
        # underflow while their ratios stay well defined, so the demography
        # path runs the two passes in log space.
        log_space = self.demography is not None
        if log_space:
            tau_starts, spans = rescaled_interval_spans(intervals, self.demography)
        else:
            tau_starts, spans = None, intervals.lengths
        rates = exit_rates(intervals.n_inactive, self.theta)
        matrices = transition_matrices(rates, spans, self.theta, log=log_space)
        shifted = self._shift_columns(intervals.activations, matrices, log_space)
        goal = self._backward_pass(shifted, log_space)
        self.n_backward_passes += 1
        return _SetContext(
            region=region,
            intervals=intervals,
            spans=spans,
            tau_starts=tau_starts,
            rates=rates,
            matrices=matrices,
            shifted=shifted,
            goal=goal,
            log_space=log_space,
        )

    # ------------------------------------------------------------------ #
    # Backward pass: P_i(n) of the paper
    # ------------------------------------------------------------------ #
    @staticmethod
    def _shift_columns(
        activations: np.ndarray, matrices: np.ndarray, log_space: bool
    ) -> np.ndarray:
        """Each interval's matrix with column ``b`` moved to the carried count.

        ``shifted[m][a-1, c-1] = matrices[m][a-1, b-1]`` where ``c = b + k``
        counts the ``k`` lineages activated at the start of interval
        ``m + 1`` (none after the last interval): the active count the next
        interval starts with.  Entries with no ``b`` behind them, or a
        carried count past three, have no weight.
        """
        n_intervals = matrices.shape[0]
        next_activations = np.zeros(n_intervals, dtype=np.int64)
        next_activations[:-1] = activations[1:]
        # Column c-1 reads column c-1-k of the matrix padded on the left
        # with two columns of no weight.
        padded = np.full((n_intervals, 3, 5), -np.inf if log_space else 0.0)
        padded[:, :, 2:] = matrices
        columns = np.arange(3)[None, None, :] + 2 - next_activations[:, None, None]
        rows = np.arange(3)[None, :, None]
        return padded[np.arange(n_intervals)[:, None, None], rows, columns]

    @staticmethod
    def _backward_pass(shifted: np.ndarray, log_space: bool) -> np.ndarray:
        """Probability of a valid finish given ``a`` active lineages at each interval start.

        ``goal[m, a-1]`` is the probability that, starting interval ``m``
        with ``a`` active lineages (activations at the start of interval
        ``m`` already counted), the process ends the resimulation range with
        exactly one active lineage and suffers no active–inactive
        coalescence; in log space on the demography path, where rescaled
        spans grow like e^{g t} and linear weights underflow long before
        their ratios stop being defined.  The transition matrices behind
        ``shifted`` (see :meth:`_shift_columns`) are S_{a,b} over each
        interval's span in the kinetics' time scale (calendar time for the
        constant model, Λ-rescaled time for a demography; a demography with
        finite total intensity makes the final span finite, conditioning on
        eventual coalescence).

        The recursion is ``goal[m] = shifted[m] · goal[m+1]``, so
        ``goal[m]`` is the first column of the suffix product
        ``shifted[m] ⋯ shifted[M−1]``.  All ``M`` of those come from one
        doubling scan over the ``(M, 3, 3)`` stack: ⌈log₂ M⌉ batched
        (log-space) matrix products, each over every interval at once.
        """
        n_intervals = shifted.shape[0]
        step = shifted
        shift = 1
        while shift < n_intervals:
            head, tail = step[:-shift], step[shift:]
            if log_space:
                product = np.logaddexp.reduce(head[:, :, :, None] + tail[:, None, :, :], axis=2)
            else:
                product = np.matmul(head, tail)
            step = np.concatenate((product, step[-shift:]))
            shift *= 2
        goal = np.empty((n_intervals + 1, 3))
        goal[:n_intervals] = step[:, :, 0]
        # Virtual state beyond the final boundary: success iff one active lineage.
        goal[n_intervals] = (0.0, -np.inf, -np.inf) if log_space else (1.0, 0.0, 0.0)
        return goal

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
        intervals, goal = ctx.intervals, ctx.goal
        n_intervals = len(intervals)
        activations = intervals.activations.tolist()
        starts, ends = intervals.starts.tolist(), intervals.ends.tolist()
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
                kinetics = kinetics_for(int(intervals.n_inactive[m]), self.theta)
                offsets = kinetics.sample_merge_times(active, end_state, span, rng)
                for off in offsets:
                    bounded = np.isfinite(span)
                    upper = span * (1.0 - _TIME_EPS) if bounded else off
                    off = min(max(off, span * _TIME_EPS if bounded else _TIME_EPS), upper)
                    if ctx.tau_starts is None:
                        merge_times.append(starts[m] + off)
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
                        merge_times.append(min(max(t, starts[m]), ends[m]))
            active = end_state

        if active != 1 or len(merge_times) != 2:
            raise RuntimeError(
                f"resimulation finished with {active} active lineages and "
                f"{len(merge_times)} merges; expected 1 and 2"
            )
        return sorted(merge_times)

    @staticmethod
    def _end_state_table(ctx: _SetContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Conditioned weights of the next start state, for every interval and active count.

        Row ``[m, a-1]`` holds what the forward pass needs to draw, from
        ``a`` active lineages at the start of interval ``m``, the active
        count ``c`` the next interval starts with (the lineages left at the
        end of ``m`` plus those activated at the start of ``m + 1``):
        ``cum[m, a-1]`` the cumulative weights over ``c = 1, 2, 3``,
        ``total[m, a-1]`` their sum, and ``dead[m, a-1]`` whether no valid
        finish exists from that state.  A weight is the transition weight
        times the goal of ``c`` at the next interval (``shifted + goal`` in
        log space, then shifted by the row's peak and exponentiated), so
        impossible counts weigh nothing and every ``cum`` row is sorted.
        """
        tail = ctx.goal[1:, None, :]
        if ctx.log_space:
            weights = ctx.shifted + tail
            peak = weights.max(axis=2)
            reachable = np.isfinite(peak)
            weights = np.exp(weights - np.where(reachable, peak, 0.0)[:, :, None])
        else:
            weights = ctx.shifted * tail
        cum = np.cumsum(weights, axis=2)
        total = cum[:, :, 2]
        dead = total <= 0.0
        if ctx.log_space:
            dead |= ~reachable
        return cum, total, dead

    def _propose_block(
        self, tree: Genealogy, ctx: _SetContext, n: int, rng: np.random.Generator
    ) -> list[ResimulationOutcome]:
        """The ``n`` candidates of one set from one block of uniforms (the stream contract)."""
        n_intervals = len(ctx.intervals)
        uniforms = rng.random((n, n_intervals + _BLOCK_EXTRA))
        offsets, owner = self._forward_block(ctx, uniforms)
        merge_times = self._offsets_to_calendar(ctx, offsets, owner)
        return self._stitch_block(tree, ctx.region, merge_times, uniforms[:, n_intervals + 2 :])

    def _forward_block(
        self, ctx: _SetContext, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward pass of every sibling of a set, from its block of uniforms.

        Returns ``(offsets, owner)``, each ``(n, 2)``: sibling ``i``'s two
        merges as offsets in the kinetics' time scale from the start of the
        interval ``owner[i, j]`` that holds them, the earlier merge first.

        Every draw the walk could make — each interval, start state and
        sibling — is read off the end-state table with the sibling's
        uniform for that interval, all at once, into a table of next start
        states; a start state with no valid finish leads to the dead state,
        which the table keeps dead.  The walk itself is one gather per
        interval over all siblings, and since the dead state has a row of
        its own the walked state is a valid index at every step; a walk
        that ends anywhere but one active lineage stops the set with the
        dead-end ``RuntimeError``.  The
        merges are then placed with the sibling's two offset uniforms (the
        earlier merge takes the first): the first merges of all double
        merges in one solve, and every single merge, second merges of
        doubles included, in one inversion.
        """
        intervals, spans = ctx.intervals, ctx.spans
        n = uniforms.shape[0]
        n_intervals = len(intervals)
        cum, total, dead = self._end_state_table(ctx)

        # Next start state of every (interval, start state 1-3, sibling).
        # The draw stops at the last positive weight, so rounding at the top
        # of a row cannot select a state of no weight.
        draw = total[:, :, None] * uniforms[:, :n_intervals].T[:, None, :]
        count = (cum[:, :, 0, None] <= draw).view(np.int8) + (cum[:, :, 1, None] <= draw)
        last = np.where(cum[:, :, 2] > cum[:, :, 1], 2, (cum[:, :, 1] > cum[:, :, 0]).view(np.int8))
        drawn = 1 + np.minimum(count, last[:, :, None])
        following = np.full((n_intervals, _DEAD + 1, n), _DEAD, dtype=np.int64)
        following[:, 1:4] = np.where(dead[:, :, None], _DEAD, drawn)

        # The walk over (state, sibling) codes, state·n + sibling: one
        # gather per interval through that interval's next-state codes.
        siblings = np.arange(n)
        codes = (following * n + siblings).reshape(n_intervals, -1)
        walk = np.empty((n_intervals + 1, n), dtype=np.int64)
        code = walk[0] = intervals.activations[0] * n + siblings
        for m in range(n_intervals):
            code = walk[m + 1] = codes[m].take(code)
        starts = walk // n  # active count at the start of each interval, then the finish
        if (starts[-1] != 1).any():
            raise RuntimeError("conditioned resimulation reached a dead end")

        # Merges: ``events[m, i]`` lineages sibling i loses in interval m.
        next_activations = np.zeros((n_intervals, 1), dtype=np.int64)
        next_activations[:-1, 0] = intervals.activations[1:]
        events = starts[:-1] - starts[1:] + next_activations
        ms, ids = np.nonzero(events)
        double = events[ms, ids] == 2
        # The earlier merge takes offset slot 0; a single merge after another takes 1.
        later = np.where(double, 1, (np.cumsum(events, axis=0) - events)[ms, ids])
        u_offsets = uniforms[:, n_intervals : n_intervals + 2]
        span = spans[ms]
        rates = ctx.rates[:, ms]
        first = np.zeros(ms.shape)
        if double.any():
            first[double] = invert_first_of_doubles(
                rates[:, double], span[double], u_offsets[ids[double], 0], self.theta
            )
        # Single merges a → a−1, and the 2 → 1 after the first of a double.
        active = np.where(double, 2, starts[ms, ids])
        columns = np.arange(ms.shape[0])
        merged = first + invert_single_merges(
            rates[active - 1, columns],
            rates[active - 2, columns],
            span - first,
            u_offsets[ids, later],
        )
        offsets = np.empty((n, 2))
        owner = np.empty((n, 2), dtype=np.int64)
        offsets[ids, later] = merged
        owner[ids, later] = ms
        offsets[ids[double], 0] = first[double]
        owner[ids[double], 0] = ms[double]

        # Keep every offset strictly inside its interval (the reference clamp).
        bounded = np.isfinite(spans)
        lower = np.where(bounded, spans * _TIME_EPS, _TIME_EPS)
        upper = np.where(bounded, spans * (1.0 - _TIME_EPS), np.inf)
        offsets = np.minimum(np.maximum(offsets, lower[owner]), upper[owner])
        return offsets, owner

    def _offsets_to_calendar(
        self, ctx: _SetContext, offsets: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Map all (interval, offset) samples to sorted calendar merge times."""
        starts = ctx.intervals.starts
        if ctx.tau_starts is None:
            times = starts[owner] + offsets
        else:
            tau = ctx.tau_starts[owner] + offsets
            mapped = np.asarray(
                self.demography.inverse_cumulative_intensity(tau.ravel()), dtype=float
            )
            times = mapped.reshape(tau.shape)
            # Same clamp as the scalar path: the Λ → Λ⁻¹ roundtrip must not
            # push a merge outside its owning interval.
            ends = ctx.intervals.ends
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

    def _stitch_block(
        self,
        tree: Genealogy,
        region: Region,
        merge_times: np.ndarray,
        pair_u: np.ndarray,
    ) -> list[ResimulationOutcome]:
        """Stitch every candidate of a set into one ``(n, n_nodes)`` block.

        The same surgery as :meth:`_stitch` with its pair choice read from
        the sibling's first pair uniform, for all siblings at once.  Every
        sibling shares the region, so the candidates differ only in the
        pairing of the first merge and the two new times: with the child
        roots sorted by time, the first merge joins the first two, unless
        all three are present by then, when ⌊3u⌋ picks one of the three
        pairs; the second merge joins the first merge's node to the root
        left out.  Each block row becomes one :class:`Genealogy` without a
        further copy, carrying the generator's arena rows (computed once
        for the set) outside the rewritten nodes.
        """
        n = merge_times.shape[0]
        target, parent = region.target, region.parent
        order = sorted(range(3), key=lambda j: region.child_times[j])
        roots = np.asarray(region.child_roots)[order]
        child_times = np.asarray(region.child_times)[order]
        t1, t2 = merge_times[:, 0], merge_times[:, 1]

        three = child_times[2] <= t1
        pick = np.where(three, np.minimum((pair_u[:, 0] * 3.0).astype(np.int64), 2), 0)
        i, j, k = _PAIR_FIRST[pick], _PAIR_SECOND[pick], _PAIR_LEFT[pick]
        first, second, left = roots[i], roots[j], roots[k]
        # Each merge strictly older than both of its children.
        time_a = np.maximum(t1, np.maximum(child_times[i], child_times[j]) + _TIME_EPS)
        child_max = np.maximum(time_a, child_times[k])
        time_b = np.maximum(t2, child_max + _TIME_EPS)
        if region.bounded:
            # The second merge must stay strictly below the ancestor *and*
            # strictly above its own children.
            upper = region.ancestor_time
            over = time_b >= upper
            if over.any():
                squeezed = upper - _TIME_EPS * max(1.0, upper)
                squeezed = np.where(squeezed <= child_max, 0.5 * (child_max + upper), squeezed)
                empty = over & ~((child_max < squeezed) & (squeezed < upper))
                if empty.any():
                    raise ResimulationError(
                        f"no valid time for the top merge of target {region.target}: "
                        f"ancestor at {upper!r}, children at "
                        f"{float(child_max[empty][0])!r} leave an empty window"
                    )
                time_b = np.where(over, squeezed, time_b)

        siblings = np.arange(n)
        times = np.repeat(tree.times[None, :], n, axis=0)
        times[:, target] = time_a
        times[:, parent] = time_b
        parents = np.repeat(tree.parent[None, :], n, axis=0)
        parents[siblings, first] = target
        parents[siblings, second] = target
        parents[siblings, left] = parent
        children = np.repeat(tree.children[None, :, :], n, axis=0)
        children[:, target, 0] = first
        children[:, target, 1] = second
        # The second merge lists the root left out first when it was already
        # active at the first merge, as the reference stitch does.
        children[:, parent, 0] = np.where(three, left, target)
        children[:, parent, 1] = np.where(three, target, left)

        inherited = tree.rows_for_copies(self._rewritten_nodes(tree, region))
        changed = (left != region.child_roots[2]).tolist()
        new_times = zip(time_a.tolist(), time_b.tolist())
        outcomes = []
        for row, pair, topology_changed in zip(range(n), new_times, changed):
            new = Genealogy._adopt(
                times[row], parents[row], children[row], tree.tip_names, tree.root
            )
            if inherited is not None:
                new.arena_rows = inherited._replace(key=new._structure_key())
            if self.validate:
                new.validate()
            outcomes.append(
                ResimulationOutcome(
                    tree=new, region=region, new_times=pair, topology_changed=topology_changed
                )
            )
        return outcomes
