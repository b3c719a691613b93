"""Bayesian estimation of θ by sampling θ jointly with the genealogy.

The paper estimates θ by maximum likelihood (the EM loop of Fig. 11), and
its Section 7 points to richer estimation as future work.  LAMARC 2.0
(Kuhner 2006, the paper's reference [17]) offers exactly that richer mode:
*Bayesian* estimation, where θ carries a prior and the sampler explores the
joint posterior P(G, θ | D) instead of a curve conditioned on a driving
value.  This module provides that mode on top of the same multi-proposal
machinery:

* genealogy updates use the Generalized-Metropolis-Hastings proposal sets of
  :class:`~repro.core.gmh.GeneralizedMetropolisHastings` driven by the
  *current* θ, so every genealogy move retains the paper's parallel
  evaluation pattern, and
* θ updates are exact Gibbs draws.  Under the coalescent prior
  ``P(G|θ) ∝ θ^{-(n-1)} exp(-w/θ)`` with ``w = Σ k(k−1) t_k``, an
  inverse-gamma prior ``θ ~ InvGamma(α, β)`` is conjugate and the full
  conditional is ``θ | G ~ InvGamma(α + n − 1, β + w)``.

The output is a posterior sample of θ (and of genealogy summaries), from
which point estimates and credible intervals are read directly — no
likelihood-curve maximization step at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.coalescent_prior import sufficient_stats
from ..likelihood.engines import LikelihoodEngine
from ..proposals.neighborhood import NeighborhoodResimulator
from .config import SamplerConfig
from .gmh import GeneralizedMetropolisHastings

__all__ = ["ThetaPrior", "BayesianResult", "BayesianSampler"]


@dataclass(frozen=True)
class ThetaPrior:
    """Inverse-gamma prior on θ: ``p(θ) ∝ θ^{-(shape+1)} exp(-scale/θ)``.

    ``shape = scale = 0`` gives the scale-invariant improper prior
    ``p(θ) ∝ 1/θ``, which is proper in the posterior as soon as one
    genealogy is observed.  A proper prior with mean ``m`` and shape ``a``
    is obtained with ``scale = m (a − 1)``.
    """

    shape: float = 0.0
    scale: float = 0.0

    def __post_init__(self) -> None:
        if self.shape < 0 or self.scale < 0:
            raise ValueError("prior shape and scale must be non-negative")

    def log_density(self, theta: float) -> float:
        """Unnormalized log prior density at ``theta``."""
        if theta <= 0:
            return -np.inf
        return -(self.shape + 1.0) * float(np.log(theta)) - self.scale / theta

    def posterior_parameters(self, tree: Genealogy) -> tuple[float, float]:
        """Parameters of the conjugate full conditional θ | G."""
        stats = sufficient_stats(tree)
        return self.shape + stats.n_events, self.scale + stats.weighted_time

    def sample_conditional(self, tree: Genealogy, rng: np.random.Generator) -> float:
        """Exact Gibbs draw from θ | G (inverse-gamma via a gamma variate)."""
        shape, scale = self.posterior_parameters(tree)
        if shape <= 0 or scale <= 0:
            raise ValueError(
                "the conditional posterior is improper; use a proper prior or a larger tree"
            )
        return float(scale / rng.gamma(shape))

    def mean(self) -> float:
        """Prior mean (requires ``shape > 1``)."""
        if self.shape <= 1:
            raise ValueError("the prior mean exists only for shape > 1")
        return self.scale / (self.shape - 1.0)


@dataclass
class BayesianResult:
    """Posterior sample produced by :class:`BayesianSampler`."""

    theta_samples: np.ndarray
    chain: ChainResult
    prior: ThetaPrior
    extras: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        """Number of retained posterior draws."""
        return int(self.theta_samples.size)

    def posterior_mean(self) -> float:
        """Posterior mean of θ."""
        return float(self.theta_samples.mean())

    def posterior_median(self) -> float:
        """Posterior median of θ."""
        return float(np.median(self.theta_samples))

    def credible_interval(self, mass: float = 0.95) -> tuple[float, float]:
        """Central credible interval containing ``mass`` posterior probability."""
        if not 0 < mass < 1:
            raise ValueError("mass must be in (0, 1)")
        lo = (1.0 - mass) / 2.0
        return (
            float(np.quantile(self.theta_samples, lo)),
            float(np.quantile(self.theta_samples, 1.0 - lo)),
        )


class BayesianSampler:
    """Joint (G, θ) sampler: GMH genealogy moves + Gibbs θ moves.

    Parameters
    ----------
    engine:
        Likelihood engine used to evaluate proposal sets (the fused engine
        evaluates each set as one stacked batch, the paper's parallel
        evaluation pattern).
    prior:
        Inverse-gamma prior on θ.
    config:
        Chain lengths and proposal-set size.  ``n_samples`` counts retained
        (θ, G) draws after ``burn_in`` discarded draws; one draw is recorded
        per GMH iteration (after its θ update).
    initial_theta:
        Starting value of θ (also drives the first proposal set).
    """

    def __init__(
        self,
        engine: LikelihoodEngine,
        prior: ThetaPrior | None = None,
        config: SamplerConfig | None = None,
        *,
        initial_theta: float = 1.0,
    ) -> None:
        if initial_theta <= 0:
            raise ValueError("initial_theta must be positive")
        self.engine = engine
        self.prior = prior or ThetaPrior()
        self.config = config or SamplerConfig()
        self.initial_theta = float(initial_theta)

    def _genealogy_step(
        self,
        current: Genealogy,
        current_loglik: float,
        theta: float,
        rng: np.random.Generator,
    ) -> tuple[Genealogy, float, bool]:
        """One GMH genealogy update at the current θ."""
        gmh = GeneralizedMetropolisHastings(
            engine=self.engine,
            resimulator=NeighborhoodResimulator(theta),
            n_proposals=self.config.n_proposals,
        )
        proposal_set = gmh.build_proposal_set(current, current_loglik, rng)
        idx = proposal_set.sample_index(rng)
        moved = idx != proposal_set.generator_index
        return (
            proposal_set.trees[idx],
            float(proposal_set.log_data_likelihoods[idx]),
            moved,
        )

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> BayesianResult:
        """Sample the joint posterior and return the retained θ draws."""
        cfg = self.config
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")

        trace = ChainTrace(n_intervals=initial_tree.n_tips - 1)
        theta_samples: list[float] = []

        tree = initial_tree
        # Engines may be shared across runs; report per-run deltas.
        evals_before = self.engine.n_evaluations
        loglik = self.engine.evaluate(tree)
        theta = self.initial_theta

        n_iterations = cfg.burn_in + cfg.n_samples * cfg.thin
        n_moves = 0
        start = time.perf_counter()
        for step in range(1, n_iterations + 1):
            tree, loglik, moved = self._genealogy_step(tree, loglik, theta, rng)
            if moved:
                n_moves += 1
            theta = self.prior.sample_conditional(tree, rng)
            if step > cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
                theta_samples.append(theta)
                trace.record(
                    intervals=tree.interval_representation(),
                    log_likelihood=loglik,
                    height=tree.tree_height(),
                )
        elapsed = time.perf_counter() - start

        chain = ChainResult(
            trace=trace,
            driving_theta=self.initial_theta,
            n_proposal_sets=n_iterations,
            n_accepted=n_moves,
            n_decisions=n_iterations,
            n_likelihood_evaluations=self.engine.n_evaluations - evals_before,
            wall_time_seconds=elapsed,
            extras={"n_proposals": cfg.n_proposals, "burn_in": cfg.burn_in},
        )
        return BayesianResult(
            theta_samples=np.asarray(theta_samples),
            chain=chain,
            prior=self.prior,
            extras={"initial_theta": self.initial_theta},
        )
