"""Generalized Metropolis-Hastings (Calderhead's method) — one iteration.

One GMH iteration (Algorithm 1 of the paper) does three things:

1. **Propose.**  From the current state, draw N new candidate states from a
   proposal kernel.  For the coalescent sampler the kernel is neighbourhood
   resimulation around a *shared* target node φ (the auxiliary variable of
   Section 4.3), which guarantees every member of the proposal set can
   mutually propose every other member.

2. **Weight.**  Build the stationary distribution of the index variable I
   over the N+1 candidates (the N proposals plus the current state).  For
   this proposal kernel the weights collapse to the data likelihoods
   (Eqs. 29–31):  π(G̃ᵢ)·K(G̃ᵢ, G̃₋ᵢ) ∝ P(D | G̃ᵢ).

3. **Sample.**  Draw the index I from that distribution an arbitrary number
   of times; each draw is one output sample of the chain, and the final draw
   becomes the generator of the next proposal set.

The proposal generation and the N+1 likelihood evaluations are independent
across candidates — that is the parallelism the paper exploits; here the
evaluations are dispatched as one batched kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from ..likelihood.logspace import log_sum
from ..proposals.neighborhood import NeighborhoodResimulator

__all__ = ["ProposalSet", "GeneralizedMetropolisHastings"]

#: Optional per-candidate addition to the index-variable log-weights.  When
#: the neighbourhood kernel draws from the *constant-size* conditional
#: coalescent but the chain targets a different genealogy prior π'(G) — any
#: registered :mod:`repro.demography` model — each candidate's weight is
#: multiplied by π'(G̃ᵢ)/π_const(G̃ᵢ | θ)
#: (:func:`repro.demography.base.prior_ratio_adjustment` builds the hook).
#: A demography-conditional kernel needs no hook: its proposal density
#: cancels the demography prior exactly, as in Eq. 31.  The hook receives
#: the whole candidate batch and returns the log-ratio per candidate —
#: batched, because it sits on the proposal-set hot path.
LogPriorAdjustment = Callable[[Sequence[Genealogy]], np.ndarray]


@dataclass(frozen=True)
class ProposalSet:
    """A GMH proposal set: N+1 candidate genealogies plus their weights.

    Attributes
    ----------
    trees:
        The candidates; index ``generator_index`` is the current state that
        generated the others.
    log_data_likelihoods:
        log P(D | G̃ᵢ) for every candidate.
    log_weights:
        Normalized log-probabilities of the stationary distribution of the
        index variable I (Eq. 31, normalized).
    target:
        The shared neighbourhood φ that was resimulated.
    generator_index:
        Position of the generating (current) state within ``trees``.
    """

    trees: tuple[Genealogy, ...]
    log_data_likelihoods: np.ndarray
    log_weights: np.ndarray
    target: int
    generator_index: int

    @property
    def size(self) -> int:
        """Number of candidates (N + 1)."""
        return len(self.trees)

    @cached_property
    def cumulative_weights(self) -> np.ndarray:
        """Normalized cumulative index-variable probabilities, computed once.

        Algorithm 1 draws I many times from the same stationary distribution
        (``samples_per_set`` draws per proposal set), so the exponentiation
        and normalization are hoisted out of :meth:`sample_index`.
        """
        if not np.any(np.isfinite(self.log_weights)):
            raise ValueError(
                "all proposal-set log-weights are -inf; every candidate "
                "(including the current state) has zero posterior weight, so "
                "the index distribution is undefined — check the likelihood "
                "engine and prior for underflow"
            )
        probs = np.exp(self.log_weights)
        probs = probs / probs.sum()
        return np.cumsum(probs)

    def sample_index(self, rng: np.random.Generator) -> int:
        """Draw the index variable I from the stationary distribution.

        Implemented exactly as described in Section 4.3: draw a uniform
        variate on (0, Σ wᵢ) and walk the cumulative weights until it is
        exceeded — here in normalized probability space.
        """
        return self.sample_indices(rng, 1)[0]

    def sample_indices(self, rng: np.random.Generator, size: int) -> list[int]:
        """``size`` independent draws of I from one block of uniforms.

        ``rng.random(size)`` yields the same doubles as ``size`` scalar
        ``rng.random()`` calls, so this equals ``size`` calls of
        :meth:`sample_index` and consumes the stream the same way.
        """
        u = rng.random(size)
        return (
            np.searchsorted(self.cumulative_weights, u, side="right")
            .clip(0, self.size - 1)
            .tolist()
        )


class GeneralizedMetropolisHastings:
    """The multi-proposal transition mechanism of the mpcgs sampler."""

    def __init__(
        self,
        engine: LikelihoodEngine,
        resimulator: NeighborhoodResimulator,
        n_proposals: int,
        *,
        log_prior_adjustment: LogPriorAdjustment | None = None,
    ) -> None:
        if n_proposals < 1:
            raise ValueError("n_proposals must be at least 1")
        self.engine = engine
        self.resimulator = resimulator
        self.n_proposals = int(n_proposals)
        self.log_prior_adjustment = log_prior_adjustment

    def build_proposal_set(
        self,
        current: Genealogy,
        current_log_likelihood: float | None,
        rng: np.random.Generator,
        *,
        target: int | None = None,
    ) -> ProposalSet:
        """Generate a proposal set from ``current`` (steps 1–2 of Algorithm 1).

        Parameters
        ----------
        current:
            The generating genealogy (the chain's current state).
        current_log_likelihood:
            log P(D | current), if already known, to avoid re-evaluating the
            generator; pass ``None`` to evaluate it with the others.
        rng:
            Random generator (host RNG for φ, proposal RNG for resimulation).
        target:
            The neighbourhood φ to resimulate.  Drawn uniformly from the
            eligible interior nodes when omitted (Section 4.3).
        """
        if target is None:
            target = self.resimulator.choose_target(current, rng)

        # Sibling proposals share everything outside the resimulated region:
        # the sparse engine (fused) can reuse the generator's cached
        # partials for all of it, so warm them before the set is evaluated —
        # this is what makes every candidate's work its dirty path only
        # instead of a full pruning.  (Full-pruning engines expose no
        # ``prepare`` and skip this.)
        prepare = getattr(self.engine, "prepare", None)
        if prepare is not None:
            prepare(current)

        # One propose_set call shares the sibling-invariant work (region,
        # intervals, backward pass, Λ rescaling) across the whole set — the
        # Eq. 31 structure made executable: all N+1 candidates share one φ.
        proposals = [
            outcome.tree
            for outcome in self.resimulator.propose_set(
                current, target, self.n_proposals, rng
            )
        ]
        trees: list[Genealogy] = proposals + [current]
        generator_index = len(trees) - 1

        if current_log_likelihood is None:
            log_liks = self.engine.evaluate_batch(trees)
        else:
            log_liks = np.empty(len(trees))
            log_liks[: self.n_proposals] = self.engine.evaluate_batch(proposals)
            log_liks[generator_index] = current_log_likelihood

        if self.log_prior_adjustment is not None:
            # Re-weight the index distribution toward the adjusted prior: the
            # kernel's constant-prior factor cancelled out of Eq. 31, so the
            # correction is per-candidate π'(G̃ᵢ)/π_const(G̃ᵢ | θ) on top of
            # the data likelihood.
            scores = log_liks + np.asarray(self.log_prior_adjustment(trees), dtype=float)
        else:
            scores = log_liks
        log_weights = scores - log_sum(scores)
        return ProposalSet(
            trees=tuple(trees),
            log_data_likelihoods=np.asarray(log_liks, dtype=float),
            log_weights=np.asarray(log_weights, dtype=float),
            target=int(target),
            generator_index=generator_index,
        )

    def iterate(
        self,
        current: Genealogy,
        current_log_likelihood: float | None,
        n_draws: int,
        rng: np.random.Generator,
    ) -> tuple[ProposalSet, list[int]]:
        """One full GMH iteration: build a proposal set and draw ``n_draws`` indices.

        Returns the proposal set and the drawn indices; the caller records
        the indexed genealogies as samples and uses the last one as the next
        generator state.
        """
        if n_draws < 1:
            raise ValueError("n_draws must be at least 1")
        proposal_set = self.build_proposal_set(current, current_log_likelihood, rng)
        draws = proposal_set.sample_indices(rng, n_draws)
        return proposal_set, draws
