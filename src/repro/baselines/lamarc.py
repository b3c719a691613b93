"""Single-proposal Metropolis-Hastings sampler (the LAMARC-style baseline).

This is the classic coalescent genealogy sampler of Kuhner, Yamato &
Felsenstein (1995) that the paper modifies: at every step one neighbourhood
is resimulated into a *single* candidate genealogy, which is accepted with
probability ``min(1, P(D|G') / P(D|G))`` (Eq. 28 — the coalescent-prior
terms cancel because the proposal is drawn from the conditional prior).

The implementation shares the proposal machinery and the statistical model
with the multi-proposal sampler; what differs is the transition rule and,
crucially for the performance comparison, the evaluation pattern: one
likelihood evaluation per step, strictly sequentially, with the serial
(per-site scalar) engine by default.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.config import SamplerConfig
from ..demography.base import Demography, prior_ratio_adjustment
from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from ..proposals.neighborhood import NeighborhoodResimulator

__all__ = ["LamarcSampler"]


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
        validate_proposals: bool = False,
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
        effective = demography if demography is not None and not demography.is_constant else None
        self._adjust = None
        batch = self.config.batch_proposals
        if effective is not None and self.importance_correction:
            self.resimulator = NeighborhoodResimulator(
                theta, validate=validate_proposals, batch_proposals=batch
            )
            batched = prior_ratio_adjustment(effective, self.theta)
            self._adjust = lambda tree: float(batched([tree])[0])
        elif effective is not None:
            self.resimulator = NeighborhoodResimulator(
                theta,
                validate=validate_proposals,
                demography=effective,
                batch_proposals=batch,
            )
        else:
            self.resimulator = NeighborhoodResimulator(
                theta, validate=validate_proposals, batch_proposals=batch
            )

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run burn-in plus sampling; every chain step is one proposal/accept decision."""
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")
        trace = ChainTrace(n_intervals=initial_tree.n_tips - 1)

        # Engines may be shared across runs; report per-run deltas.
        evals_before = self.engine.n_evaluations
        counters_before = self.resimulator.counters()

        current = initial_tree
        current_loglik = self.engine.evaluate(current)
        current_adjust = self._adjust(current) if self._adjust is not None else 0.0

        n_steps = 0
        n_accepted = 0
        recorded = 0
        start = time.perf_counter()

        # An incremental engine keeps only the current state's partials
        # (its working set); full-pruning engines have no ``retain``.
        retain = getattr(self.engine, "retain", None)
        while recorded < cfg.n_samples:
            if retain is not None:
                retain([current])
            outcome = self.resimulator.propose_random(current, rng)
            proposal = outcome.tree
            proposal_loglik = self.engine.evaluate(proposal)
            n_steps += 1

            log_ratio = proposal_loglik - current_loglik
            if self._adjust is not None:
                # Constant-kernel proposal targeting the demography prior:
                # the prior factors no longer cancel out of Eq. 28, so the
                # acceptance ratio carries the prior-ratio correction.
                proposal_adjust = self._adjust(proposal)
                log_ratio += proposal_adjust - current_adjust
            if log_ratio >= 0.0 or rng.random() < np.exp(log_ratio):
                current = proposal
                current_loglik = proposal_loglik
                if self._adjust is not None:
                    current_adjust = proposal_adjust
                n_accepted += 1

            if n_steps > cfg.burn_in and (n_steps - cfg.burn_in) % cfg.thin == 0:
                trace.record(
                    intervals=current.interval_representation(),
                    log_likelihood=current_loglik,
                    height=current.tree_height(),
                )
                recorded += 1

        elapsed = time.perf_counter() - start
        extras = {
            "burn_in": cfg.burn_in,
            "batch_proposals": cfg.batch_proposals,
            "proposal_counters": {
                key: value - counters_before[key]
                for key, value in self.resimulator.counters().items()
            },
        }
        if self.demography is not None:
            extras["demography"] = self.demography.to_dict()
            extras["proposal_kernel"] = (
                "constant+correction" if self.importance_correction else "conditional"
            )
        return ChainResult(
            trace=trace,
            driving_theta=self.theta,
            n_proposal_sets=n_steps,
            n_accepted=n_accepted,
            n_decisions=n_steps,
            n_likelihood_evaluations=self.engine.n_evaluations - evals_before,
            wall_time_seconds=elapsed,
            extras=extras,
        )
