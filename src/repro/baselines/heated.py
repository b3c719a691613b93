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

import numpy as np

from ..core.config import SamplerConfig
from ..core.sampler import driving_kernel
from ..demography.base import Demography
from ..diagnostics.traces import ChainResult
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from .lamarc import ChainState, metropolis_step, propose_and_evaluate

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
        self.resimulator, self._adjust, self._kernel_extras = driving_kernel(
            self.theta, demography, self.importance_correction
        )

    @property
    def n_chains(self) -> int:
        """Number of temperature rungs (including the cold chain)."""
        return len(self.temperatures)

    def _propose_swap(self, rungs: list[ChainState], rng: np.random.Generator) -> bool:
        """Propose swapping the states of a random adjacent temperature pair."""
        i = int(rng.integers(0, len(rungs) - 1))
        a, b = rungs[i], rungs[i + 1]
        beta_a, beta_b = self.temperatures[i], self.temperatures[i + 1]
        log_ratio = (beta_a - beta_b) * (b.current_loglik - a.current_loglik)
        accepted = log_ratio >= 0.0 or rng.random() < np.exp(log_ratio)
        if accepted:
            # The untempered prior terms cancel out of the swap ratio (both
            # rungs share one prior), but the cached per-state adjustment
            # must travel with the state it describes.
            a.current, b.current = b.current, a.current
            a.current_loglik, b.current_loglik = b.current_loglik, a.current_loglik
            a.current_adjust, b.current_adjust = b.current_adjust, a.current_adjust
        return accepted

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run all temperature chains and return the cold chain's samples.

        Each sweep steps the rungs one after another through the
        single-proposal core (:func:`~repro.baselines.lamarc.metropolis_step`),
        all of them on the one shared stream ``rng``.
        """
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")

        # Engines may be shared across runs; report per-run deltas.
        evals_before = self.engine.n_evaluations
        initial_loglik = self.engine.evaluate(initial_tree)
        rungs = [
            ChainState.start(rng, initial_tree, initial_loglik, cfg, cfg.n_samples, self._adjust)
            for _ in self.temperatures
        ]
        cold = rungs[0]

        swap_attempts = 0
        swap_accepts = 0
        start = time.perf_counter()
        # An incremental engine keeps only the rungs' current partials (its
        # working set); full-pruning engines have no ``retain``.
        retain = getattr(self.engine, "retain", None)
        while cold.n_steps < cold.target_steps:
            if retain is not None:
                retain([rung.current for rung in rungs])
            for beta, rung in zip(self.temperatures, rungs):
                [(proposal, loglik)] = propose_and_evaluate(self.engine, self.resimulator, [rung])
                metropolis_step(rung, proposal, loglik, beta, self._adjust)
            if cold.n_steps % self.swap_interval == 0 and self.n_chains > 1:
                swap_accepts += int(self._propose_swap(rungs, rng))
                swap_attempts += 1
            cold.record_if_due(cfg)
        elapsed = time.perf_counter() - start

        return ChainResult(
            trace=cold.trace,
            driving_theta=self.theta,
            n_proposal_sets=cold.n_steps * self.n_chains,
            n_accepted=cold.n_accepted,
            n_decisions=cold.n_steps,
            n_likelihood_evaluations=self.engine.n_evaluations - evals_before,
            wall_time_seconds=elapsed,
            extras={
                "temperatures": list(self.temperatures),
                "swap_attempts": swap_attempts,
                "swap_accepts": swap_accepts,
                "per_chain_acceptance": [
                    rung.n_accepted / rung.n_steps if rung.n_steps else 0.0 for rung in rungs
                ],
                "burn_in": cfg.burn_in,
                **self._kernel_extras,
            },
        )
