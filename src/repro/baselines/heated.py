"""Metropolis-coupled MCMC (MC³, "heated chains") baseline.

The production LAMARC package improves mixing by running several chains at
different *temperatures*: chain ``i`` targets the tempered posterior
``P(D|G)^{β_i} P(G|θ)`` with ``0 < β_i ≤ 1`` (``β = 1`` is the cold chain
whose samples are reported), and neighbouring chains periodically propose to
swap states.  Hot chains move freely across low-likelihood valleys and feed
good states to the cold chain through swaps.

This is a *within-chain-step* form of parallelism that is orthogonal to the
paper's multi-proposal scheme: all chains still advance in lock-step, and
only the cold chain's samples count, so it does not remove the burn-in
bottleneck of Section 3 — which is exactly why it is implemented here as a
baseline to compare against rather than as part of the core sampler.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.config import SamplerConfig
from ..demography.base import Demography, prior_ratio_adjustment
from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from ..proposals.neighborhood import NeighborhoodResimulator

__all__ = ["HeatedChainSampler", "default_temperatures"]


def default_temperatures(n_chains: int, *, increment: float = 0.3) -> tuple[float, ...]:
    """LAMARC-style temperature ladder ``β_i = 1 / (1 + i·increment)``.

    The first entry is always the cold chain (β = 1).
    """
    if n_chains < 1:
        raise ValueError("need at least one chain")
    if increment <= 0:
        raise ValueError("increment must be positive")
    return tuple(1.0 / (1.0 + i * increment) for i in range(n_chains))


@dataclass
class _ChainState:
    """Per-temperature chain state."""

    beta: float
    tree: Genealogy
    log_likelihood: float
    accepted: int = 0
    steps: int = 0
    #: log π_dem(G|θ) − log π_const(G|θ) of the current state (importance-
    #: corrected demography runs only; 0 otherwise).
    log_prior_adjust: float = 0.0


class HeatedChainSampler:
    """Single-proposal Metropolis-Hastings with Metropolis-coupled heating.

    Parameters
    ----------
    engine:
        Likelihood engine shared by all temperature chains (every chain
        evaluates the same data likelihood; only the acceptance exponent
        differs).
    theta:
        Driving θ₀ of every chain's proposal kernel.
    temperatures:
        Inverse temperatures ``β``, cold chain first (``β = 1``).  Defaults
        to a four-chain LAMARC-style ladder.
    config:
        Chain lengths; ``n_samples`` retained cold-chain samples after
        ``burn_in`` discarded sweeps.
    swap_interval:
        Number of per-chain update sweeps between swap proposals.
    demography:
        Optional :class:`~repro.demography.base.Demography` of the driving
        coalescent prior, targeted by every temperature rung (only the data
        likelihood is tempered, so the prior terms still cancel out of swap
        ratios).  By default proposals come from the demography-conditional
        kernel (Λ-inverse time rescaling) and the per-chain acceptance stays
        β·Δ log P(D|G); with ``importance_correction=True`` the constant
        kernel proposes and each acceptance gains the untempered prior-ratio
        correction — the same mechanism the GMH chain's index weights use.
    """

    def __init__(
        self,
        engine: LikelihoodEngine,
        theta: float,
        temperatures: tuple[float, ...] | None = None,
        config: SamplerConfig | None = None,
        *,
        swap_interval: int = 1,
        demography: Demography | None = None,
        importance_correction: bool = False,
    ) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        temps = tuple(temperatures) if temperatures is not None else default_temperatures(4)
        if not temps:
            raise ValueError("need at least one temperature")
        if abs(temps[0] - 1.0) > 1e-12:
            raise ValueError("the first temperature must be the cold chain (beta = 1.0)")
        if any(b <= 0 or b > 1.0 for b in temps):
            raise ValueError("inverse temperatures must lie in (0, 1]")
        if swap_interval < 1:
            raise ValueError("swap_interval must be positive")
        self.engine = engine
        self.theta = float(theta)
        self.temperatures = temps
        self.config = config or SamplerConfig()
        self.swap_interval = int(swap_interval)
        self.demography = demography
        self.importance_correction = bool(importance_correction)
        effective = demography if demography is not None and not demography.is_constant else None
        self._adjust = None
        batch = self.config.batch_proposals
        if effective is not None and self.importance_correction:
            self.resimulator = NeighborhoodResimulator(self.theta, batch_proposals=batch)
            batched = prior_ratio_adjustment(effective, self.theta)
            self._adjust = lambda tree: float(batched([tree])[0])
        elif effective is not None:
            self.resimulator = NeighborhoodResimulator(
                self.theta, demography=effective, batch_proposals=batch
            )
        else:
            self.resimulator = NeighborhoodResimulator(self.theta, batch_proposals=batch)

    @property
    def n_chains(self) -> int:
        """Number of temperature rungs (including the cold chain)."""
        return len(self.temperatures)

    def _update_chain(self, state: _ChainState, rng: np.random.Generator) -> None:
        """One tempered Metropolis-Hastings step for one chain."""
        outcome = self.resimulator.propose_random(state.tree, rng)
        proposal_loglik = self.engine.evaluate(outcome.tree)
        log_ratio = state.beta * (proposal_loglik - state.log_likelihood)
        proposal_adjust = 0.0
        if self._adjust is not None:
            # Constant-kernel proposal under a demography prior: the prior
            # no longer cancels, and it is not tempered (only the data
            # likelihood is), so the correction enters at full strength.
            proposal_adjust = self._adjust(outcome.tree)
            log_ratio += proposal_adjust - state.log_prior_adjust
        state.steps += 1
        if log_ratio >= 0.0 or rng.random() < np.exp(log_ratio):
            state.tree = outcome.tree
            state.log_likelihood = proposal_loglik
            state.log_prior_adjust = proposal_adjust
            state.accepted += 1

    def _propose_swap(
        self, chains: list[_ChainState], rng: np.random.Generator
    ) -> tuple[bool, int]:
        """Propose swapping the states of a random adjacent temperature pair."""
        if len(chains) < 2:
            return False, -1
        i = int(rng.integers(0, len(chains) - 1))
        a, b = chains[i], chains[i + 1]
        log_ratio = (a.beta - b.beta) * (b.log_likelihood - a.log_likelihood)
        accepted = log_ratio >= 0.0 or rng.random() < np.exp(log_ratio)
        if accepted:
            # The untempered prior terms cancel out of the swap ratio (both
            # rungs share one prior), but the cached per-state adjustment
            # must travel with the state it describes.
            a.tree, b.tree = b.tree, a.tree
            a.log_likelihood, b.log_likelihood = b.log_likelihood, a.log_likelihood
            a.log_prior_adjust, b.log_prior_adjust = b.log_prior_adjust, a.log_prior_adjust
        return accepted, i

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run all temperature chains and return the cold chain's samples."""
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")
        trace = ChainTrace(n_intervals=initial_tree.n_tips - 1)

        # Engines may be shared across runs; report per-run deltas.
        evals_before = self.engine.n_evaluations
        initial_loglik = self.engine.evaluate(initial_tree)
        initial_adjust = self._adjust(initial_tree) if self._adjust is not None else 0.0
        chains = [
            _ChainState(
                beta=beta,
                tree=initial_tree,
                log_likelihood=initial_loglik,
                log_prior_adjust=initial_adjust,
            )
            for beta in self.temperatures
        ]

        swap_attempts = 0
        swap_accepts = 0
        sweeps = 0
        recorded = 0
        start = time.perf_counter()
        # An incremental engine keeps only the rungs' current partials (its
        # working set); full-pruning engines have no ``retain``.
        retain = getattr(self.engine, "retain", None)
        while recorded < cfg.n_samples:
            if retain is not None:
                retain([state.tree for state in chains])
            for state in chains:
                self._update_chain(state, rng)
            sweeps += 1
            if sweeps % self.swap_interval == 0 and self.n_chains > 1:
                accepted, _ = self._propose_swap(chains, rng)
                swap_attempts += 1
                swap_accepts += int(accepted)
            if sweeps > cfg.burn_in and (sweeps - cfg.burn_in) % cfg.thin == 0:
                cold = chains[0]
                trace.record(
                    intervals=cold.tree.interval_representation(),
                    log_likelihood=cold.log_likelihood,
                    height=cold.tree.tree_height(),
                )
                recorded += 1
        elapsed = time.perf_counter() - start

        cold = chains[0]
        return ChainResult(
            trace=trace,
            driving_theta=self.theta,
            n_proposal_sets=sweeps * self.n_chains,
            n_accepted=cold.accepted,
            n_decisions=cold.steps,
            n_likelihood_evaluations=self.engine.n_evaluations - evals_before,
            wall_time_seconds=elapsed,
            extras={
                "temperatures": list(self.temperatures),
                "swap_attempts": swap_attempts,
                "swap_accepts": swap_accepts,
                "per_chain_acceptance": [
                    c.accepted / c.steps if c.steps else 0.0 for c in chains
                ],
                "burn_in": cfg.burn_in,
                "batch_proposals": cfg.batch_proposals,
                **(
                    {
                        "demography": self.demography.to_dict(),
                        "proposal_kernel": (
                            "constant+correction"
                            if self.importance_correction
                            else "conditional"
                        ),
                    }
                    if self.demography is not None
                    else {}
                ),
            },
        )
