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

The same program runs over a *stack* of sets — one target in each of K
equal-sized trees, ``n`` siblings each — with every array gaining a set
axis: a GMH set is a stack of one, and
:meth:`NeighborhoodResimulator.propose_random_stack` proposes the lock-step
rounds of K chains as a stack of K sets of one.  Set ``k``'s intervals are
padded to the stack's largest count with empty ones, whose transition
matrices are exact identities, so the backward scan gives each set the
products of its own intervals; the double-merge solve stops set by set
and every Λ⁻¹ works element by element, so every set gets the bits it
gets alone.

This is the only proposal kernel.  The per-proposal reference kernel it is
tested against (the same distribution, drawn one interval and one event at
a time) is a test oracle, ``tests/reference_kernel.py``: a subclass that
reuses the set context and the τ → t mapping defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from ..genealogy.tree import ArenaRows, Genealogy
from .intervals import (
    IntervalStack,
    Region,
    Regions,
    build_interval_stack,
    extract_regions,
    rescaled_interval_spans,
)
from .kinetics import (
    exit_rates,
    invert_first_of_doubles,
    invert_single_merges,
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


class ResimulationOutcome(NamedTuple):
    """A resimulated genealogy plus bookkeeping about what changed.

    A named tuple, the cheapest immutable record to build: a GMH set builds
    one per sibling.
    """

    tree: Genealogy
    region: Region
    new_times: tuple[float, float]
    topology_changed: bool


@dataclass
class _SetContext:
    """Everything about a stack of proposal sets that is identical across siblings.

    Built once per stack of K sets (one target in each of K equal-sized
    trees; a GMH set is a stack of one) by
    :meth:`NeighborhoodResimulator._build_set_context` and shared by every
    candidate: the trees' arrays stacked ``(K, n_nodes)``, the deleted
    regions, the feasible intervals padded to the stack's largest count
    ``P``, the ``(K, P)`` interval spans in the kinetics' time scale, the
    ``(3, K, P)`` exit rates, the ``(K, P, 3, 3)`` (log-, on the demography
    path) transition matrices and the same matrices with their columns
    moved to the carried active count (``shifted``, see
    :meth:`NeighborhoodResimulator._shift_columns`), the ``(K, P + 1, 3)``
    backward-pass goal table and, on the demography path, the Λ-rescaled
    interval starts.  Set ``k``'s entries past its own interval count are
    empty intervals: identity matrices, and the goal of the final boundary.
    """

    trees: list[Genealogy]
    times: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    regions: Regions
    intervals: IntervalStack
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

    Work counters (``n_proposal_sets``, ``n_interval_builds``,
    ``n_backward_passes``, ``n_proposals_generated``, ``n_intervals``)
    accumulate across calls; every proposal set performs exactly one
    interval build and one backward pass.  ``n_intervals`` counts the
    feasible intervals those builds produced.
    """

    def __init__(
        self,
        theta: float,
        *,
        validate: bool = False,
        demography=None,
    ) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.theta = float(theta)
        self.validate = bool(validate)
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
        """
        if n < 1:
            raise ValueError("a proposal set needs at least one proposal")
        return self._propose_stack([tree], [target], n, [rng])[0]

    def propose_random(
        self, tree: Genealogy, rng: np.random.Generator
    ) -> ResimulationOutcome:
        """Choose a target uniformly at random and resimulate it: a set of one."""
        return self.propose_set(tree, self.choose_target(tree, rng), 1, rng)[0]

    def propose_random_stack(
        self,
        trees: list[Genealogy],
        rngs: list[np.random.Generator],
    ) -> list[ResimulationOutcome]:
        """One lock-step proposal for each of a *stack* of chains.

        ``trees[i]`` is chain ``i``'s current state and ``rngs[i]`` its
        private stream.  Every chain chooses its target, then the chains'
        sets of one are proposed as one array program — the program of
        :meth:`propose_set` with one set per chain — per group of trees
        with the same tip count.  Each chain consumes *its own* stream
        exactly as the solo :meth:`propose_random` call would
        (``choose_target``, then ``rng.random((1, M + 4))``), and every
        stage of the program computes a chain's values as its solo call
        does, so each outcome is bit-identical to the solo run for any
        stack width: the contract the stacked multichain executor's
        lock-step rounds rely on.  The caller gets all trees back in one
        list, ready for a single batched likelihood evaluation.
        """
        if len(trees) != len(rngs):
            raise ValueError("need exactly one RNG stream per stacked chain")
        targets = [self.choose_target(t, r) for t, r in zip(trees, rngs)]
        groups: dict[int, list[int]] = {}
        for i, tree in enumerate(trees):
            groups.setdefault(tree.n_nodes, []).append(i)
        outcomes: list[ResimulationOutcome | None] = [None] * len(trees)
        for members in groups.values():
            sets = self._propose_stack(
                [trees[i] for i in members],
                [targets[i] for i in members],
                1,
                [rngs[i] for i in members],
            )
            for i, (outcome,) in zip(members, sets):
                outcomes[i] = outcome
        return outcomes

    def _propose_stack(
        self,
        trees: list[Genealogy],
        targets: list[int],
        n: int,
        rngs: list[np.random.Generator],
    ) -> list[list[ResimulationOutcome]]:
        """The ``n`` siblings of a set around ``targets[k]`` in ``trees[k]``, for every ``k``.

        The trees share a node count.  Set ``k`` draws its block
        ``rngs[k].random((n, M_k + 4))`` (the stream contract of
        :meth:`propose_set`); the blocks are padded to the stack's largest
        interval count and the whole stack runs as one program: one
        context, one forward block, one τ → t mapping, one stitch.
        """
        ctx = self._build_set_context(trees, targets)
        counts = ctx.intervals.counts.tolist()
        n_sets, width = ctx.spans.shape
        uniforms = np.zeros((n_sets, n, width + _BLOCK_EXTRA))
        for k, (rng, m) in enumerate(zip(rngs, counts)):
            block = rng.random((n, m + _BLOCK_EXTRA))
            uniforms[k, :, :m] = block[:, :m]
            uniforms[k, :, width:] = block[:, m:]
        self.n_proposal_sets += n_sets
        offsets, owner = self._forward_block(ctx, uniforms)
        merge_times = self._offsets_to_calendar(ctx, offsets, owner)
        outcomes = self._stitch_block(ctx, merge_times, uniforms[:, :, width + 2 :])
        self.n_proposals_generated += n_sets * n
        return outcomes

    # ------------------------------------------------------------------ #
    # Shared per-set context
    # ------------------------------------------------------------------ #
    def _build_set_context(self, trees: list[Genealogy], targets: list[int]) -> _SetContext:
        """All the sibling-invariant work of a stack of sets: done once per stack."""
        times, parent, children = (
            np.array([getattr(t, name) for t in trees]) for name in ("times", "parent", "children")
        )
        regions = extract_regions(times, parent, children, np.array(targets))
        intervals = build_interval_stack(times, parent, regions)
        n_sets, width = intervals.starts.shape
        self.n_interval_builds += n_sets
        self.n_intervals += int(intervals.counts.sum())
        # Rescaled spans can be so large that linear-space transition weights
        # underflow while their ratios stay well defined, so the demography
        # path runs the two passes in log space.
        log_space = self.demography is not None
        if log_space:
            tau_starts, spans = rescaled_interval_spans(intervals, self.demography)
        else:
            tau_starts, spans = None, intervals.lengths
        rates = exit_rates(intervals.n_inactive.ravel(), self.theta)
        matrices = transition_matrices(rates, spans.ravel(), self.theta, log=log_space)
        # Set k's padding intervals span nothing, so their matrices are
        # identities; a product with an identity is exact up to the sign of
        # a zero, which adding 0.0 settles beforehand.
        matrices = matrices.reshape(n_sets, width, 3, 3) + 0.0
        shifted = self._shift_columns(intervals.activations, matrices, log_space)
        goal = self._backward_pass(shifted, log_space)
        self.n_backward_passes += n_sets
        return _SetContext(
            trees=trees,
            times=times,
            parent=parent,
            children=children,
            regions=regions,
            intervals=intervals,
            spans=spans,
            tau_starts=tau_starts,
            rates=rates.reshape(3, n_sets, width),
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

        ``shifted[k, m][a-1, c-1] = matrices[k, m][a-1, b-1]`` where
        ``c = b + j`` counts the ``j`` lineages activated at the start of
        interval ``m + 1`` of set ``k`` (none after the last interval): the
        active count the next interval starts with.  Entries with no ``b``
        behind them, or a carried count past three, have no weight.
        """
        next_activations = np.zeros_like(activations)
        next_activations[:, :-1] = activations[:, 1:]
        # Column c-1 reads column c-1-j of the matrix padded on the left
        # with two columns of no weight.
        flat = matrices.reshape(-1, 3, 3)
        padded = np.full((flat.shape[0], 3, 5), -np.inf if log_space else 0.0)
        padded[:, :, 2:] = flat
        columns = np.arange(3)[None, None, :] + 2 - next_activations.reshape(-1, 1, 1)
        rows = np.arange(3)[None, :, None]
        shifted = padded[np.arange(flat.shape[0])[:, None, None], rows, columns]
        return shifted.reshape(matrices.shape)

    @staticmethod
    def _backward_pass(shifted: np.ndarray, log_space: bool) -> np.ndarray:
        """Probability of a valid finish given ``a`` active lineages at each interval start.

        ``goal[k, m, a-1]`` is the probability that, starting interval
        ``m`` of set ``k`` with ``a`` active lineages (activations at the
        start of interval ``m`` already counted), the process ends the
        resimulation range with exactly one active lineage and suffers no
        active–inactive coalescence; in log space on the demography path,
        where rescaled spans grow like e^{g t} and linear weights underflow
        long before their ratios stop being defined.  The transition
        matrices behind ``shifted`` (see :meth:`_shift_columns`) are
        S_{a,b} over each interval's span in the kinetics' time scale
        (calendar time for the constant model, Λ-rescaled time for a
        demography; a demography with finite total intensity makes the
        final span finite, conditioning on eventual coalescence).

        The recursion is ``goal[m] = shifted[m] · goal[m+1]``, so
        ``goal[m]`` is the first column of the suffix product
        ``shifted[m] ⋯ shifted[M−1]``.  All of those come from one
        doubling scan over the ``(K, P, 3, 3)`` stack: ⌈log₂ P⌉ batched
        (log-space) matrix products, each over every interval of every set
        at once.  Set ``k``'s matrices past its own ``M_k`` intervals are
        identities, so its products are those of a scan over its own
        intervals, and from ``M_k`` on its goal is the virtual state beyond
        the final boundary: success iff one active lineage.
        """
        width = shifted.shape[1]
        step = shifted.copy()
        shift = 1
        while shift < width:
            head, tail = step[:, :-shift], step[:, shift:]
            if log_space:
                # logaddexp over the inner index k in order, as its reduce
                # would accumulate it, but in two binary calls.
                terms = head[..., None] + tail[..., None, :, :]
                product = np.logaddexp(
                    np.logaddexp(terms[..., 0, :], terms[..., 1, :]), terms[..., 2, :]
                )
            else:
                product = np.matmul(head, tail)
            head[...] = product
            shift *= 2
        goal = np.empty((shifted.shape[0], width + 1, 3))
        goal[:, :width] = step[..., 0]
        goal[:, width] = (0.0, -np.inf, -np.inf) if log_space else (1.0, 0.0, 0.0)
        return goal

    @staticmethod
    def _end_state_table(ctx: _SetContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Conditioned weights of the next start state, for every interval and active count.

        Row ``[k, m, a-1]`` holds what the forward pass needs to draw, from
        ``a`` active lineages at the start of interval ``m`` of set ``k``,
        the active count ``c`` the next interval starts with (the lineages
        left at the end of ``m`` plus those activated at the start of
        ``m + 1``): ``cum[k, m, a-1]`` the cumulative weights over
        ``c = 1, 2, 3``, ``total[k, m, a-1]`` their sum, and
        ``dead[k, m, a-1]`` whether no valid finish exists from that state.
        A weight is the transition weight times the goal of ``c`` at the
        next interval (``shifted + goal`` in log space, then shifted by the
        row's peak and exponentiated), so impossible counts weigh nothing
        and every ``cum`` row is sorted.
        """
        tail = ctx.goal[:, 1:, None, :]
        if ctx.log_space:
            weights = ctx.shifted + tail
            peak = weights.max(axis=3)
            reachable = np.isfinite(peak)
            weights = np.exp(weights - np.where(reachable, peak, 0.0)[..., None])
        else:
            weights = ctx.shifted * tail
        cum = np.cumsum(weights, axis=3)
        total = cum[..., 2]
        dead = total <= 0.0
        if ctx.log_space:
            dead |= ~reachable
        return cum, total, dead

    def _forward_block(
        self, ctx: _SetContext, uniforms: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The forward pass of every sibling of every set, from the stack's block of uniforms.

        ``uniforms`` is ``(K, n, P + 4)``: row ``[k, i]`` is sibling ``i``
        of set ``k``, its end-state uniforms in the first ``M_k`` columns
        and its four others in the last four.  Returns ``(offsets,
        owner)``, each ``(K, n, 2)``: the sibling's two merges as offsets in
        the kinetics' time scale from the start of the interval
        ``owner[k, i, j]`` that holds them, the earlier merge first.

        Every draw the walk could make — each interval, start state, set
        and sibling — is read off the end-state table with the sibling's
        uniform for that interval, all at once, into a table of next start
        states; a start state with no valid finish leads to the dead state,
        which the table keeps dead, and past its set's last interval (the
        empty padding, whose identity rows lead one active lineage to one)
        a finished walk stays finished.  The walk itself is one gather per interval over
        all siblings of all sets, and since the dead state has a row of its
        own the walked state is a valid index at every step; a walk that
        ends anywhere but one active lineage stops the stack with the
        dead-end ``RuntimeError``.  The merges are then placed with the
        sibling's two offset uniforms (the earlier merge takes the first):
        the first merges of all double merges in one solve, grouped by set,
        and every single merge, second merges of doubles included, in one
        inversion.
        """
        n_sets, n, _ = uniforms.shape
        intervals, spans = ctx.intervals, ctx.spans
        width = spans.shape[1]
        cum, total, dead = self._end_state_table(ctx)

        # Next start state of every (interval, start state 1-3, set,
        # sibling).  The draw stops at the last positive weight, so rounding
        # at the top of a row cannot select a state of no weight.
        cum = cum.transpose(1, 2, 0, 3)
        u_states = uniforms[:, :, :width].transpose(2, 0, 1)[:, None]
        draw = total.transpose(1, 2, 0)[..., None] * u_states
        count = (cum[..., 0, None] <= draw).view(np.int8) + (cum[..., 1, None] <= draw)
        last = np.where(cum[..., 2] > cum[..., 1], 2, (cum[..., 1] > cum[..., 0]).view(np.int8))
        drawn = 1 + np.minimum(count, last[..., None])
        following = np.full((width, _DEAD + 1, n_sets, n), _DEAD, dtype=np.int64)
        following[:, 1:4] = np.where(dead.transpose(1, 2, 0)[..., None], _DEAD, drawn)

        # The walk over (state, lane) codes, state·L + lane, where lane
        # k·n + i is sibling i of set k: one gather per interval through
        # that interval's next-state codes.
        n_lanes = n_sets * n
        lanes = np.arange(n_lanes)
        codes = (following.reshape(width, -1, n_lanes) * n_lanes + lanes).reshape(width, -1)
        walk = np.empty((width + 1, n_lanes), dtype=np.int64)
        code = walk[0] = np.repeat(intervals.activations[:, 0], n) * n_lanes + lanes
        for m in range(width):
            code = walk[m + 1] = codes[m].take(code)
        starts = walk // n_lanes  # active count at the start of each interval, then the finish
        if (starts[-1] != 1).any():
            raise RuntimeError("conditioned resimulation reached a dead end")

        # Merges: ``events[m, lane]`` lineages the lane loses in interval m.
        next_activations = np.zeros((width, n_sets), dtype=np.int64)
        next_activations[:-1] = intervals.activations[:, 1:].T
        events = starts[:-1] - starts[1:] + np.repeat(next_activations, n, axis=1)
        ms, ids = np.nonzero(events)
        sets = ids // n
        double = events[ms, ids] == 2
        # The earlier merge takes offset slot 0; a single merge after another takes 1.
        later = np.where(double, 1, (np.cumsum(events, axis=0) - events)[ms, ids])
        u_offsets = uniforms[:, :, width : width + 2].reshape(n_lanes, 2)
        span = spans[sets, ms]
        rates = ctx.rates[:, sets, ms]
        first = np.zeros(ms.shape)
        if double.any():
            first[double] = invert_first_of_doubles(
                rates[:, double],
                span[double],
                u_offsets[ids[double], 0],
                self.theta,
                # One set needs no group-wise stop (it would add about 15 µs).
                sets[double] if n_sets > 1 else None,
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
        offsets = np.empty((n_lanes, 2))
        owner = np.empty((n_lanes, 2), dtype=np.int64)
        offsets[ids, later] = merged
        owner[ids, later] = ms
        offsets[ids[double], 0] = first[double]
        owner[ids[double], 0] = ms[double]

        # Keep every offset strictly inside its interval, so that no merge
        # lands on an interval boundary (a child root's activation time).
        bounded = np.isfinite(spans)
        lower = np.where(bounded, spans * _TIME_EPS, _TIME_EPS)
        upper = np.where(bounded, spans * (1.0 - _TIME_EPS), np.inf)
        offsets, owner = offsets.reshape(n_sets, n, 2), owner.reshape(n_sets, n, 2)
        sets = np.arange(n_sets)[:, None, None]
        offsets = np.minimum(np.maximum(offsets, lower[sets, owner]), upper[sets, owner])
        return offsets, owner

    def _offsets_to_calendar(
        self, ctx: _SetContext, offsets: np.ndarray, owner: np.ndarray
    ) -> np.ndarray:
        """Map all ``(K, n, ·)`` (interval, offset) samples to sorted calendar merge times."""
        sets = np.arange(offsets.shape[0])[:, None, None]
        starts = ctx.intervals.starts[sets, owner]
        if ctx.tau_starts is None:
            times = starts + offsets
        else:
            tau = ctx.tau_starts[sets, owner] + offsets
            mapped = np.asarray(
                self.demography.inverse_cumulative_intensity(tau.ravel()), dtype=float
            )
            times = mapped.reshape(tau.shape)
            # The Λ → Λ⁻¹ roundtrip can land epsilon outside the owning
            # interval (below a child root's activation time), violating the
            # activation invariant the stitch relies on: clamp it back.
            times = np.minimum(np.maximum(times, starts), ctx.intervals.ends[sets, owner])
        return np.sort(times, axis=-1)

    # ------------------------------------------------------------------ #
    # Tree surgery
    # ------------------------------------------------------------------ #
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

    def _stitch_block(
        self, ctx: _SetContext, merge_times: np.ndarray, pair_u: np.ndarray
    ) -> list[list[ResimulationOutcome]]:
        """Stitch every candidate of every set into one ``(K, n, n_nodes)`` block.

        ``merge_times`` and ``pair_u`` are ``(K, n, 2)``: the sorted merge
        times and the two pair uniforms of sibling ``i`` of set ``k``.  The
        target's index becomes the first merge's node and the parent's
        index the second's, so a tree's root index never changes; each
        merge is strictly older than both of its children, and on a bounded
        region the second merge is squeezed strictly below the ancestor.
        The siblings of a set share its region, so they differ only in the
        pairing of the first merge and the two new times: with the child
        roots sorted by time, the first merge joins the first two, unless
        all three are present by then, when ⌊3u⌋ of the sibling's first
        pair uniform picks one of the three pairs; the second merge joins
        the first merge's node to the root left out.  All siblings of all
        sets are stitched at once.  Each block row becomes one
        :class:`Genealogy` without a further copy, carrying its tree's
        arena rows (computed once per set) outside the rewritten nodes.
        """
        n_sets, n = merge_times.shape[:2]
        regions = ctx.regions
        sets = np.arange(n_sets)[:, None]
        order = np.argsort(regions.child_times, axis=1, kind="stable")
        roots = regions.child_roots[sets, order]
        child_times = regions.child_times[sets, order]
        t1, t2 = merge_times[..., 0], merge_times[..., 1]

        three = child_times[:, 2:] <= t1
        pick = np.where(three, np.minimum((pair_u[..., 0] * 3.0).astype(np.int64), 2), 0)
        i, j, k = _PAIR_FIRST[pick], _PAIR_SECOND[pick], _PAIR_LEFT[pick]
        first, second, left = roots[sets, i], roots[sets, j], roots[sets, k]
        # Each merge strictly older than both of its children.
        time_a = np.maximum(t1, np.maximum(child_times[sets, i], child_times[sets, j]) + _TIME_EPS)
        child_max = np.maximum(time_a, child_times[sets, k])
        time_b = np.maximum(t2, child_max + _TIME_EPS)
        # On a bounded region the second merge must stay strictly below the
        # ancestor *and* strictly above its own children.
        over = time_b >= regions.ancestor_time[:, None]
        if over.any():
            ceiling, floor = np.repeat(regions.ancestor_time, n)[over.ravel()], child_max[over]
            squeezed = ceiling - _TIME_EPS * np.maximum(1.0, ceiling)
            squeezed = np.where(squeezed <= floor, 0.5 * (floor + ceiling), squeezed)
            empty = ~((floor < squeezed) & (squeezed < ceiling))
            if empty.any():
                at = np.argwhere(over)[np.argmax(empty), 0]
                raise ResimulationError(
                    f"no valid time for the top merge of target {int(regions.target[at])}: "
                    f"ancestor at {float(ceiling[empty][0])!r}, children at "
                    f"{float(floor[empty][0])!r} leave an empty window"
                )
            time_b[over] = squeezed

        n_nodes = ctx.times.shape[1]
        siblings = np.arange(n)
        target, parent = regions.target[:, None], regions.parent[:, None]
        times = np.repeat(ctx.times[:, None], n, axis=1)
        times[sets, siblings, target] = time_a
        times[sets, siblings, parent] = time_b
        parents = np.repeat(ctx.parent[:, None], n, axis=1)
        parents[sets, siblings, first] = target
        parents[sets, siblings, second] = target
        parents[sets, siblings, left] = parent
        children = np.repeat(ctx.children[:, None], n, axis=1)
        children[sets, siblings, target, 0] = first
        children[sets, siblings, target, 1] = second
        # The second merge lists the root left out first when it was already
        # active at the first merge (activation order, as the oracle's stitch
        # in tests/reference_kernel.py does, so the two compare row for row).
        children[sets, siblings, parent, 0] = np.where(three, left, target)
        children[sets, siblings, parent, 1] = np.where(three, target, left)

        lanes = zip(
            times.reshape(n_sets * n, n_nodes),
            parents.reshape(n_sets * n, n_nodes),
            children.reshape(n_sets * n, n_nodes, 2),
            zip(time_a.ravel().tolist(), time_b.ravel().tolist()),
            (left != regions.child_roots[:, 2:]).ravel().tolist(),
        )
        outcomes = []
        for tree, region in zip(ctx.trees, regions.rows()):
            inherited = tree.rows_for_copies(self._rewritten_nodes(tree, region))
            row = []
            for lane_times, lane_parents, lane_children, pair, topology_changed in islice(lanes, n):
                new = Genealogy._adopt(
                    lane_times, lane_parents, lane_children, tree.tip_names, tree.root
                )
                if inherited is not None:
                    owner, _, arena, versions = inherited
                    new.arena_rows = ArenaRows(owner, new._structure_key(), arena, versions)
                if self.validate:
                    new.validate()
                row.append(
                    ResimulationOutcome(
                        tree=new, region=region, new_times=pair, topology_changed=topology_changed
                    )
                )
            outcomes.append(row)
        return outcomes
