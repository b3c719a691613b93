"""Stacked cross-chain execution: K chains lock-step through one engine.

The process-pool multichain baseline buys wall-clock speed with OS
processes — every chain gets its own interpreter, its own engine, its own
caches.  On a single device that layout wastes exactly the thing the fused
engine is good at: batch width.  Each chain evaluates one candidate per
step, so the device kernel launches K times per round with one tree each
instead of once with K trees.

:class:`StackedMultiChain` inverts the layout: the K chains are K states of
the single-proposal core (:func:`~repro.baselines.lamarc.run_lockstep`) in
one process, each on its private stream ``("chain", i)``.  Every round
proposes all K candidates as **one** array program
(:meth:`~repro.proposals.neighborhood.NeighborhoodResimulator.propose_random_stack`:
one set context, one forward block and one stitch for the K chains) and
scores them through **one** ``evaluate_batch`` call on a single shared
engine — one stacked sweep, transition matrices deduplicated across
chains, one partials arena warm for every chain's neighbourhood.  A solo
:class:`~repro.baselines.lamarc.LamarcSampler` is the same core with one
state, so each chain's trajectory is bit-identical to its solo run for any
K, and the pooled result is bit-identical to the process-pool mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.lamarc import ChainState, run_lockstep
from ..baselines.multichain import MultiChainSampler
from ..core.config import SamplerConfig
from ..diagnostics.traces import ChainResult
from ..genealogy.tree import Genealogy
from ..proposals.neighborhood import NeighborhoodResimulator

__all__ = ["StackedMultiChain"]


@dataclass
class StackedMultiChain(MultiChainSampler):
    """K lock-step LAMARC-style chains sharing one batching engine.

    The stacked execution mode of
    :class:`~repro.baselines.multichain.MultiChainSampler` (whose
    ``mode="stacked"`` delegates here): same quotas, streams, pooling and
    extras layout.  The differences are execution-shape only:

    * ``engine_factory`` is called **once**; all chains evaluate through the
      shared engine, so ``n_likelihood_evaluations`` reports the measured
      shared-engine delta (1 initial evaluation + 1 per step — the K−1
      duplicate initial evaluations of the independent layout never happen).
    * no processes are involved, so the factory need not be picklable.
    """

    config: SamplerConfig = field(default_factory=SamplerConfig)
    # One process, stacked: fixed, not constructor options.
    n_workers: int = field(default=1, init=False)
    mode: str = field(default="stacked", init=False)

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run all chains to their quotas and pool the post-burn-in samples.

        A chain takes ``burn_in + quota * thin`` steps and then drops out of
        the lock-step rounds, so the stack narrows deterministically as the
        uneven-quota chains finish.
        """
        if initial_tree.n_tips < 3:
            raise ValueError("the sampler requires at least three sequences")
        engine = self.engine_factory()
        resimulator = NeighborhoodResimulator(self.theta)
        evals_before = engine.n_evaluations
        counters_before = resimulator.counters()
        active, streams = self._chain_streams(rng)

        start = time.perf_counter()
        # One evaluation of the shared starting state serves every chain —
        # engine values do not depend on evaluation history, so this is the
        # same number each solo chain would compute for itself.
        initial_loglik = float(engine.evaluate(initial_tree))
        states = {
            i: ChainState.start(streams[i], initial_tree, initial_loglik, self.config, quota)
            for i, quota in active
        }
        rounds = run_lockstep(engine, resimulator, list(states.values()), self.config)
        wall = time.perf_counter() - start

        extras = {
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
        return self._pool(
            {i: (st.trace, st.n_steps, st.n_accepted) for i, st in states.items()},
            parallel_wall=wall,
            n_likelihood_evaluations=engine.n_evaluations - evals_before,
            wall_time_seconds=wall,
            **extras,
        )
