"""Single-proposal Metropolis-Hastings: the LAMARC baseline and its lock-step core.

This is the classic coalescent genealogy sampler of Kuhner, Yamato &
Felsenstein (1995) that the paper modifies: at every step one neighbourhood
is resimulated into a *single* candidate genealogy, which is accepted with
probability ``min(1, P(D|G') / P(D|G))`` (Eq. 28 — the coalescent-prior
terms cancel because the proposal is drawn from the conditional prior).

Every single-proposal chain runs through one core: each round of
:func:`run_lockstep` proposes one candidate per chain in one pass of the
proposal program (each chain on its own stream), scores them all in one
``evaluate_batch`` call, applies each chain's :func:`metropolis_step`
(tempered by the chain's own ``beta``) and then records.
:class:`LamarcSampler` is one :class:`ChainState` on the caller's stream,
:class:`~repro.parallel.stacked.StackedMultiChain` K states on the
``("chain", i)`` streams, and :class:`~repro.baselines.heated.HeatedChainSampler`
one state per temperature rung, swapping rung states between decisions and
records.  A chain consumes its stream in the same order at any stack width
and engine values do not depend on batch composition, so its trajectory is
the same bits alone or stacked, on every engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.config import SamplerConfig
from ..core.sampler import driving_kernel
from ..demography.base import Demography
from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from ..proposals.neighborhood import NeighborhoodResimulator

__all__ = ["ChainState", "LamarcSampler", "metropolis_step", "run_lockstep"]

#: The batched hook of :func:`~repro.demography.base.prior_ratio_adjustment`.
Adjust = Callable[[list[Genealogy]], np.ndarray]


@dataclass
class ChainState:
    """One single-proposal chain's state between steps."""

    rng: np.random.Generator
    current: Genealogy
    current_loglik: float
    #: Steps after which the chain has recorded its quota:
    #: ``burn_in + n_samples * thin``.
    target_steps: int
    #: Recorded samples (``None`` for a chain that records nothing).
    trace: ChainTrace | None
    #: Prior-ratio correction of ``current`` (importance-corrected
    #: demography runs only; 0 otherwise).
    current_adjust: float = 0.0
    #: Inverse temperature of the data likelihood (1 unless tempered).
    beta: float = 1.0
    n_steps: int = 0
    n_accepted: int = 0

    @classmethod
    def start(
        cls,
        rng: np.random.Generator,
        tree: Genealogy,
        loglik: float,
        config: SamplerConfig,
        n_samples: int,
        adjust: Adjust | None = None,
        beta: float = 1.0,
    ) -> "ChainState":
        """A chain at ``tree`` that will record ``n_samples`` samples."""
        return cls(
            rng=rng,
            current=tree,
            current_loglik=loglik,
            target_steps=config.burn_in + n_samples * config.thin,
            trace=ChainTrace(n_intervals=tree.n_tips - 1),
            current_adjust=0.0 if adjust is None else float(adjust([tree])[0]),
            beta=beta,
        )

    def record_if_due(self, config: SamplerConfig) -> None:
        """Record the current state when the burn-in/thin schedule says so."""
        past = self.n_steps - config.burn_in
        if self.trace is not None and past > 0 and past % config.thin == 0:
            self.trace.record(
                intervals=self.current.interval_representation(),
                log_likelihood=self.current_loglik,
                height=self.current.tree_height(),
            )


def metropolis_step(
    state: ChainState, proposal: Genealogy, loglik: float, adjust: Adjust | None = None
) -> None:
    """One Metropolis-Hastings decision on ``state``'s own stream.

    The data likelihood is tempered by the chain's ``beta``.  With
    ``adjust`` the constant kernel proposed under a demography prior, so
    the prior no longer cancels out of Eq. 28: the untempered prior-ratio
    correction enters the ratio at full strength.
    """
    log_ratio = state.beta * (loglik - state.current_loglik)
    proposal_adjust = 0.0
    if adjust is not None:
        proposal_adjust = float(adjust([proposal])[0])
        log_ratio += proposal_adjust - state.current_adjust
    state.n_steps += 1
    if log_ratio >= 0.0 or state.rng.random() < np.exp(log_ratio):
        state.current = proposal
        state.current_loglik = loglik
        state.current_adjust = proposal_adjust
        state.n_accepted += 1


def run_lockstep(
    engine: LikelihoodEngine,
    resimulator: NeighborhoodResimulator,
    states: list[ChainState],
    config: SamplerConfig,
    adjust: Adjust | None = None,
    between: Callable[[], None] | None = None,
) -> int:
    """Advance every chain to its ``target_steps`` in lock-step rounds.

    A round makes every chain's decision, runs ``between`` (a heated
    ladder's swap) and then records every chain that is due.  A chain drops
    out once it reaches its target, so the stack narrows as chains with
    smaller quotas finish.  Returns the number of rounds.
    """
    # An incremental engine keeps only the running chains' current partials
    # (its working set); full-pruning engines have no ``retain``.
    retain = getattr(engine, "retain", None)
    running = [st for st in states if st.n_steps < st.target_steps]
    rounds = 0
    while running:
        rounds += 1
        if retain is not None:
            retain([st.current for st in running])
        outcomes = resimulator.propose_random_stack(
            [st.current for st in running], [st.rng for st in running]
        )
        values = engine.evaluate_batch([o.tree for o in outcomes])
        for st, outcome, loglik in zip(running, outcomes, values):
            metropolis_step(st, outcome.tree, float(loglik), adjust)
        if between is not None:
            between()
        for st in running:
            st.record_if_due(config)
        running = [st for st in running if st.n_steps < st.target_steps]
    return rounds


class LamarcSampler:
    """Standard Metropolis-Hastings coalescent genealogy sampler.

    Parameters
    ----------
    engine:
        Likelihood engine; the serial engine reproduces the classic
        evaluation cost, but any engine works.
    theta:
        Driving θ₀ of the chain.
    config:
        Chain lengths.  ``n_proposals`` and ``samples_per_set`` are ignored
        (this sampler makes exactly one proposal per step).
    demography:
        Optional :class:`~repro.demography.base.Demography` of the driving
        coalescent prior.  By default the proposal is drawn from the
        demography-conditional kernel (Λ-inverse time rescaling), so the
        prior still cancels out of Eq. 28 and the acceptance ratio stays a
        pure data-likelihood ratio.  With ``importance_correction=True``
        the constant-size kernel proposes and the acceptance ratio gains
        the prior-ratio term log π_dem(G'|θ) − log π_dem(G|θ) −
        (log π_const(G'|θ) − log π_const(G|θ)) — the same correction the
        GMH chain's index weights received in the growth workload.
    """

    def __init__(
        self,
        engine: LikelihoodEngine,
        theta: float,
        config: SamplerConfig | None = None,
        *,
        demography: Demography | None = None,
        importance_correction: bool = False,
    ) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        self.engine = engine
        self.theta = float(theta)
        self.config = config or SamplerConfig()
        self.demography = demography
        self.importance_correction = bool(importance_correction)
        self.resimulator, self._adjust, self._kernel_extras = driving_kernel(
            self.theta, demography, self.importance_correction
        )

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run burn-in plus sampling; every chain step is one proposal/accept decision."""
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")

        # Engines may be shared across runs; report per-run deltas.
        evals_before = self.engine.n_evaluations
        counters_before = self.resimulator.counters()

        state = ChainState.start(
            rng, initial_tree, self.engine.evaluate(initial_tree), cfg, cfg.n_samples, self._adjust
        )
        start = time.perf_counter()
        run_lockstep(self.engine, self.resimulator, [state], cfg, self._adjust)
        elapsed = time.perf_counter() - start

        return ChainResult(
            trace=state.trace,
            driving_theta=self.theta,
            n_proposal_sets=state.n_steps,
            n_accepted=state.n_accepted,
            n_decisions=state.n_steps,
            n_likelihood_evaluations=self.engine.n_evaluations - evals_before,
            wall_time_seconds=elapsed,
            extras={
                "burn_in": cfg.burn_in,
                "proposal_counters": {
                    key: value - counters_before[key]
                    for key, value in self.resimulator.counters().items()
                },
                **self._kernel_extras,
            },
        )
