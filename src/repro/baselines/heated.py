"""Metropolis-coupled MCMC (MC³, "heated chains") baseline.

The production LAMARC package improves mixing by running several chains at
different *temperatures*: chain ``i`` targets the tempered posterior
``P(D|G)^{β_i} P(G|θ)`` with ``0 < β_i ≤ 1`` (``β = 1`` is the cold chain
whose samples are reported), and neighbouring chains periodically propose to
swap states.  Hot chains move freely across low-likelihood valleys and feed
good states to the cold chain through swaps.

The rungs are states of the lock-step core
(:func:`~repro.baselines.lamarc.run_lockstep`): a sweep proposes and scores
all rungs in one pass.  They still advance together and only the cold
chain's samples count, so this does not remove the burn-in bottleneck of
Section 3 — which is exactly why it is a baseline to compare against
rather than part of the core sampler.
"""

from __future__ import annotations

import time

import numpy as np

from ..backend.rng_registry import derive_master_seed, named_stream
from ..core.config import SamplerConfig
from ..core.sampler import driving_kernel
from ..demography.base import Demography
from ..diagnostics.traces import ChainResult
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from .lamarc import ChainState, run_lockstep

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
        log_ratio = (a.beta - b.beta) * (b.current_loglik - a.current_loglik)
        accepted = bool(log_ratio >= 0.0 or rng.random() < np.exp(log_ratio))
        if accepted:
            # Streams, temperatures and counters stay with their rungs.  The
            # untempered prior terms cancel out of the swap ratio (both rungs
            # share one prior), but the cached per-state adjustment must
            # travel with the state it describes.
            a.current, b.current = b.current, a.current
            a.current_loglik, b.current_loglik = b.current_loglik, a.current_loglik
            a.current_adjust, b.current_adjust = b.current_adjust, a.current_adjust
        return accepted

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run all temperature chains and return the cold chain's samples.

        A ladder with hot rungs draws one master seed from ``rng``: rung
        ``i`` draws from the named stream ``("rung", i)`` and swaps from
        ``("swap",)``.  A one-rung ladder is a solo LAMARC chain on ``rng``.
        """
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")

        streams = [rng]
        if self.n_chains > 1:
            master = derive_master_seed(rng)
            streams = [named_stream(master, "rung", i) for i in range(self.n_chains)]
            swap_rng = named_stream(master, "swap")

        # Engines may be shared across runs; report per-run deltas.
        evals_before = self.engine.n_evaluations
        loglik = self.engine.evaluate(initial_tree)
        rungs = [
            ChainState.start(stream, initial_tree, loglik, cfg, cfg.n_samples, self._adjust, beta)
            for stream, beta in zip(streams, self.temperatures)
        ]
        cold = rungs[0]
        for hot in rungs[1:]:
            hot.trace = None  # only the cold chain's samples count

        swaps: list[bool] = []

        def swap() -> None:
            if cold.n_steps % self.swap_interval == 0:
                swaps.append(self._propose_swap(rungs, swap_rng))

        start = time.perf_counter()
        between = swap if self.n_chains > 1 else None
        run_lockstep(self.engine, self.resimulator, rungs, cfg, self._adjust, between)
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
                "swap_attempts": len(swaps),
                "swap_accepts": sum(swaps),
                "per_chain_acceptance": [
                    rung.n_accepted / rung.n_steps if rung.n_steps else 0.0 for rung in rungs
                ],
                "burn_in": cfg.burn_in,
                **self._kernel_extras,
            },
        )
