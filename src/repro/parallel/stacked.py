"""Stacked cross-chain execution: K chains lock-step through one engine.

The process-pool multichain baseline buys wall-clock speed with OS
processes — every chain gets its own interpreter, its own engine, its own
caches.  On a single device that layout wastes exactly the thing the fused
engine is good at: batch width.  Each chain evaluates one candidate per
step, so the device kernel launches K times per round with one tree each
instead of once with K trees.

:class:`StackedMultiChain` inverts the layout.  All K chains live in one
process and advance in lock-step rounds:

1. every running chain proposes one candidate through the *stage-separated*
   stack kernel (:meth:`~repro.proposals.neighborhood.NeighborhoodResimulator.
   propose_random_stack`): all target choices, then all set contexts, then
   one proposal set of one per chain;
2. all K candidates go through **one** ``evaluate_stacked`` call on a
   single shared engine — one stacked sweep over the whole stack,
   transition matrices deduplicated across chains, one partials arena warm
   for every chain's neighbourhood;
3. each chain applies its own Metropolis-Hastings decision from its own
   named stream.

Because chain ``i`` consumes only its private stream ``("chain", i)`` — in
exactly the order the solo :class:`~repro.baselines.lamarc.LamarcSampler`
would — and engine values are bitwise independent of batch composition
(the pinned engine-equivalence property), every chain's trajectory is
bit-identical to its solo run regardless of K, and the pooled trace is
bit-identical to the process-pool and sequential multichain runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..backend.rng_registry import derive_master_seed, named_stream
from ..core.config import SamplerConfig
from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from ..proposals.neighborhood import NeighborhoodResimulator

__all__ = ["StackedMultiChain"]


@dataclass
class _ChainState:
    """One chain's private state between lock-step rounds."""

    rng: np.random.Generator
    quota: int
    target_steps: int
    current: Genealogy
    current_loglik: float
    trace: ChainTrace
    n_steps: int = 0
    n_accepted: int = 0
    recorded: int = 0


@dataclass
class StackedMultiChain:
    """K lock-step LAMARC-style chains sharing one batching engine.

    Parameters mirror :class:`~repro.baselines.multichain.MultiChainSampler`
    (same quotas, same per-chain named streams, same pooling order, same
    extras layout) so the two are drop-in interchangeable — the multichain
    sampler's ``mode="stacked"`` simply delegates here.  The differences are
    execution-shape only:

    * ``engine_factory`` is called **once**; all chains evaluate through the
      shared engine, so ``n_likelihood_evaluations`` reports the measured
      shared-engine delta (1 initial evaluation + 1 per step — the K−1
      duplicate initial evaluations of the independent layout never happen).
    * no processes are involved, so the factory need not be picklable.
    """

    engine_factory: Callable[[], LikelihoodEngine]
    theta: float
    n_chains: int
    config: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")

    def chain_quotas(self) -> list[int]:
        """Per-chain sample quotas summing exactly to ``config.n_samples``."""
        base, remainder = divmod(self.config.n_samples, self.n_chains)
        return [base + (1 if i < remainder else 0) for i in range(self.n_chains)]

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run all chains to their quotas and pool the post-burn-in samples.

        A chain's step count is a pure function of its quota —
        ``burn_in + quota * thin`` steps, after which it drops out of the
        lock-step rounds — so the stack narrows deterministically as the
        uneven-quota chains finish.  Pooling happens in chain-index order,
        exactly as the process-pool sampler pools, so the result is
        bit-identical to the sequential run.
        """
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")
        cfg = self.config
        quotas = self.chain_quotas()

        engine = self.engine_factory()
        resimulator = NeighborhoodResimulator(self.theta)
        evals_before = engine.n_evaluations
        counters_before = resimulator.counters()

        # Same stream naming as MultiChainSampler: chain i's stream is a pure
        # function of (master, i), independent of execution topology.
        master = derive_master_seed(rng)

        start = time.perf_counter()
        # One evaluation of the shared starting state serves every chain —
        # engine values do not depend on evaluation history, so this is the
        # same number each solo chain would compute for itself.
        initial_loglik = float(engine.evaluate(initial_tree))

        states: dict[int, _ChainState] = {}
        for i, quota in enumerate(quotas):
            if quota == 0:
                continue
            states[i] = _ChainState(
                rng=named_stream(master, "chain", i),
                quota=quota,
                target_steps=cfg.burn_in + quota * cfg.thin,
                current=initial_tree,
                current_loglik=initial_loglik,
                trace=ChainTrace(n_intervals=initial_tree.n_tips - 1),
            )

        rounds = 0
        running = sorted(states)
        # An incremental engine keeps only the running chains' current
        # partials (its working set); full-pruning engines have no ``retain``.
        retain = getattr(engine, "retain", None)
        while running:
            rounds += 1
            stack = [states[i] for i in running]
            if retain is not None:
                retain([st.current for st in stack])
            outcomes = resimulator.propose_random_stack(
                [st.current for st in stack], [st.rng for st in stack]
            )
            # One batched call for the whole round: the fused engine sees all
            # chains' candidates in one stacked sweep.
            values = engine.evaluate_stacked([[o.tree] for o in outcomes])
            for st, outcome, vals in zip(stack, outcomes, values):
                proposal_loglik = float(vals[0])
                st.n_steps += 1
                log_ratio = proposal_loglik - st.current_loglik
                if log_ratio >= 0.0 or st.rng.random() < np.exp(log_ratio):
                    st.current = outcome.tree
                    st.current_loglik = proposal_loglik
                    st.n_accepted += 1
                if st.n_steps > cfg.burn_in and (st.n_steps - cfg.burn_in) % cfg.thin == 0:
                    st.trace.record(
                        intervals=st.current.interval_representation(),
                        log_likelihood=st.current_loglik,
                        height=st.current.tree_height(),
                    )
                    st.recorded += 1
            running = [i for i in running if states[i].n_steps < states[i].target_steps]
        wall = time.perf_counter() - start

        pooled = ChainTrace(n_intervals=initial_tree.n_tips - 1)
        total_steps = 0
        total_accepted = 0
        per_chain_steps: list[int] = []
        boundaries: list[tuple[int, int]] = []
        for i in range(self.n_chains):
            st = states.get(i)
            if st is None:
                per_chain_steps.append(0)
                boundaries.append((len(pooled), len(pooled)))
                continue
            per_chain_steps.append(st.n_steps)
            begin = len(pooled)
            for row, loglik, height in zip(
                st.trace.interval_matrix, st.trace.log_likelihoods, st.trace.heights
            ):
                pooled.record(row, loglik, height)
            boundaries.append((begin, len(pooled)))
            total_steps += st.n_steps
            total_accepted += st.n_accepted

        from ..baselines.multichain import AmdahlModel

        extras = {
            "n_chains": self.n_chains,
            "n_workers": 1,
            "per_chain_steps": per_chain_steps,
            "per_chain_samples": quotas,
            "chain_boundaries": boundaries,
            "ideal_parallel_steps": float(
                AmdahlModel(cfg.burn_in, cfg.n_samples).multichain_steps(self.n_chains)
            ),
            "serial_steps_equivalent": cfg.burn_in + cfg.n_samples,
            "parallel_wall_seconds": wall,
            "execution_mode": "stacked",
            "lockstep_rounds": rounds,
            "proposal_counters": {
                key: value - counters_before[key]
                for key, value in resimulator.counters().items()
            },
        }
        dedup = getattr(engine, "pmat_dedup_ratio", None)
        if dedup:
            # Cross-chain transition-matrix reuse inside the fused engine's
            # stacked sweep (requests per matrix built); absent elsewhere.
            extras["pmat_dedup_ratio"] = float(dedup)
        return ChainResult(
            trace=pooled,
            driving_theta=self.theta,
            n_proposal_sets=total_steps,
            n_accepted=total_accepted,
            n_decisions=total_steps,
            n_likelihood_evaluations=engine.n_evaluations - evals_before,
            wall_time_seconds=wall,
            extras=extras,
        )
