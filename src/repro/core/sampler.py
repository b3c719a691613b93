"""The multi-proposal coalescent genealogy sampler chain.

``MultiProposalSampler`` runs the Markov chain of Section 5.1.4: repeated
Generalized-Metropolis-Hastings iterations, each of which resimulates a
shared neighbourhood φ into N proposals, evaluates all of them (the
parallel/batched phase), and then samples the index variable several times.
Burn-in and sampling use exactly the same machinery — the absence of a
distinct, inherently-serial burn-in phase is the central scalability claim
of the paper (Section 4.1).
"""

from __future__ import annotations

import time

import numpy as np

from ..demography.base import Demography, prior_ratio_adjustment
from ..demography.models import ExponentialDemography
from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from ..proposals.neighborhood import NeighborhoodResimulator
from .config import SamplerConfig
from .gmh import GeneralizedMetropolisHastings

__all__ = ["MultiProposalSampler"]


class MultiProposalSampler:
    """Runs a GMH chain over genealogies and records post-burn-in samples.

    Parameters
    ----------
    engine:
        Likelihood engine used to evaluate proposal sets.  The batched
        engine is the "parallel device" path; the serial engine reproduces a
        classic sampler's evaluation cost.
    theta:
        Driving θ₀ for the conditional-coalescent proposal kernel and the
        recorded trace.
    config:
        Chain-length and proposal-set configuration.
    demography:
        Optional :class:`~repro.demography.base.Demography` of the driving
        coalescent prior.  By default the chain targets the posterior under
        P_dem(G | θ, params) with the *demography-conditional* proposal
        kernel (Λ-inverse time rescaling inside the resimulator), under
        which the GMH index weights collapse to data likelihoods exactly as
        in Eq. 31 — no importance correction, and mixing that does not
        degrade at large |g|.  ``None`` (the default) keeps the
        constant-demography chain bit-identical to the paper's sampler.
    importance_correction:
        When true, propose from the *constant-size* conditional kernel
        instead and correct each candidate's index weight by the prior
        ratio P_dem(G | θ, params) / P_const(G | θ) (the PR-3 growth
        mechanism, kept for comparison benchmarks and reproducibility of
        old runs; it mixes slowly at large |g|).
    growth:
        Back-compat sugar for the exponential demography:
        ``growth=g`` ≡ ``demography=ExponentialDemography(growth=g),
        importance_correction=True`` — exactly the PR-3 chain.
    """

    def __init__(
        self,
        engine: LikelihoodEngine,
        theta: float,
        config: SamplerConfig | None = None,
        *,
        validate_proposals: bool = False,
        growth: float | None = None,
        demography: Demography | None = None,
        importance_correction: bool | None = None,
    ) -> None:
        if theta <= 0:
            raise ValueError("theta must be positive")
        if growth is not None and demography is not None:
            raise ValueError("pass either growth= (legacy) or demography=, not both")
        if growth is not None:
            demography = ExponentialDemography(growth=float(growth))
            if importance_correction is None:
                importance_correction = True
        self.engine = engine
        self.theta = float(theta)
        self.growth = None if growth is None else float(growth)
        self.demography = demography
        self.importance_correction = bool(importance_correction)
        self.config = config or SamplerConfig()
        # The constant model (including exponential g = 0, where the prior
        # ratio is identically zero) needs neither rescaling nor correction:
        # skip both and run the paper's chain bit-for-bit.
        effective = demography if demography is not None and not demography.is_constant else None
        self.resimulator = NeighborhoodResimulator(
            theta,
            validate=validate_proposals,
            demography=None if self.importance_correction else effective,
        )
        adjustment = None
        if effective is not None and self.importance_correction:
            adjustment = prior_ratio_adjustment(effective, self.theta)

        self.gmh = GeneralizedMetropolisHastings(
            engine=engine,
            resimulator=self.resimulator,
            n_proposals=self.config.n_proposals,
            log_prior_adjustment=adjustment,
        )

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run burn-in plus sampling and return the recorded chain.

        The chain state is the genealogy; each GMH iteration contributes
        ``samples_per_set`` draws.  Draws made during burn-in are discarded;
        afterwards every ``thin``-th draw is recorded until ``n_samples``
        have been collected.
        """
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")
        trace = ChainTrace(n_intervals=initial_tree.n_tips - 1)

        # Engines may be shared across runs (the EM driver keeps one cached
        # engine alive across iterations), so report per-run deltas.
        evals_before = self.engine.n_evaluations
        counters_before = self.resimulator.counters()

        current = initial_tree
        current_loglik = self.engine.evaluate(current)

        n_sets = 0
        n_moves = 0
        draws_seen = 0
        draws_recorded = 0
        start = time.perf_counter()
        per_set = cfg.effective_samples_per_set

        while draws_recorded < cfg.n_samples:
            proposal_set, draws = self.gmh.iterate(current, current_loglik, per_set, rng)
            n_sets += 1
            # A candidate drawn several times from one set is converted once.
            intervals_of: dict[int, np.ndarray] = {}
            for idx in draws:
                if idx != proposal_set.generator_index:
                    n_moves += 1
                draws_seen += 1
                sampled_tree = proposal_set.trees[idx]
                if draws_seen > cfg.burn_in and (draws_seen - cfg.burn_in) % cfg.thin == 0:
                    if idx not in intervals_of:
                        intervals_of[idx] = sampled_tree.interval_representation()
                    trace.record(
                        intervals=intervals_of[idx],
                        log_likelihood=float(proposal_set.log_data_likelihoods[idx]),
                        height=sampled_tree.tree_height(),
                    )
                    draws_recorded += 1
                    if draws_recorded >= cfg.n_samples:
                        break
            # The last draw of the set becomes the next generator state.
            last_idx = draws[-1]
            current = proposal_set.trees[last_idx]
            current_loglik = float(proposal_set.log_data_likelihoods[last_idx])

        elapsed = time.perf_counter() - start
        extras = {
            "n_proposals": cfg.n_proposals,
            "samples_per_set": per_set,
            "burn_in": cfg.burn_in,
            # Per-run deltas of the kernel's shared-work counters:
            # n_interval_builds == n_backward_passes == n_proposal_sets (one
            # pass shared by the whole set).
            "proposal_counters": {
                key: value - counters_before[key]
                for key, value in self.resimulator.counters().items()
            },
        }
        if self.growth is not None:
            extras["driving_growth"] = self.growth
        if self.demography is not None:
            extras["demography"] = self.demography.to_dict()
            extras["proposal_kernel"] = (
                "constant+correction" if self.importance_correction else "conditional"
            )
        return ChainResult(
            trace=trace,
            driving_theta=self.theta,
            n_proposal_sets=n_sets,
            n_accepted=n_moves,
            n_decisions=draws_seen,
            n_likelihood_evaluations=self.engine.n_evaluations - evals_before,
            wall_time_seconds=elapsed,
            extras=extras,
        )
