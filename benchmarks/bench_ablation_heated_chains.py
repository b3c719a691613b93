"""Ablation — Metropolis-coupled heating vs. plain single-proposal MH.

The production LAMARC package mitigates slow mixing with heated chains
(Metropolis coupling): hot chains cross likelihood valleys easily and feed
states to the cold chain through swaps.  Heating is *within-step* work — all
rungs advance in lock-step and only the cold chain's samples count — so it
multiplies the likelihood evaluations per step by the number of rungs
without touching the serial burn-in bottleneck of Section 3.  The wall clock
grows less: each sweep proposes all rungs in one pass and scores them in one
batched call of the fused engine.  This ablation measures that trade-off at
reproduction scale: mixing (effective sample size of the data log-likelihood
trace), total likelihood evaluations and wall-clock time for plain MH vs. a
four-rung MC³ ladder, for the same number of retained cold-chain samples.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.heated import HeatedChainSampler, default_temperatures
from repro.baselines.lamarc import LamarcSampler
from repro.core.config import SamplerConfig
from repro.diagnostics.convergence import effective_sample_size
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.fused import FusedEngine
from repro.likelihood.mutation_models import Felsenstein81

from conftest import make_dataset


def _run(sampler_factory, dataset, seed):
    model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
    engine = FusedEngine(alignment=dataset.alignment, model=model)
    tree = upgma_tree(dataset.alignment, 1.0)
    sampler = sampler_factory(engine)
    result = sampler.run(tree, np.random.default_rng(seed))
    return {
        "ess": effective_sample_size(result.trace.log_likelihoods),
        "acceptance_rate": result.acceptance_rate,
        "likelihood_evaluations": result.n_likelihood_evaluations,
        "wall_seconds": result.wall_time_seconds,
        "extras": {k: v for k, v in result.extras.items() if k != "per_chain_acceptance"},
    }


def test_ablation_heated_chains(benchmark, record):
    dataset = make_dataset(n_sequences=10, n_sites=200, true_theta=1.0, seed=29)
    cfg = SamplerConfig(n_samples=150, burn_in=50)

    def make_plain(eng):
        return LamarcSampler(eng, 1.0, cfg)

    def make_heated(eng):
        return HeatedChainSampler(eng, 1.0, default_temperatures(4), cfg)

    plain = _run(make_plain, dataset, seed=5)
    heated = _run(make_heated, dataset, seed=5)
    # One pair of ~0.2 s runs cannot tell 1x from 1.4x on a shared machine:
    # the wall-clock ratio is the median over five pairs, alternating order.
    ratios = []
    for i in range(5):
        walls = {}
        for make in (make_plain, make_heated)[:: 1 if i % 2 else -1]:
            walls[make] = _run(make, dataset, seed=5)["wall_seconds"]
        ratios.append(walls[make_heated] / walls[make_plain])

    # The benchmarked unit is one heated sweep cycle (all rungs + swap),
    # measured on a fresh short run to keep pytest-benchmark's timing loop cheap.
    model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
    engine = FusedEngine(alignment=dataset.alignment, model=model)
    tree = upgma_tree(dataset.alignment, 1.0)
    tiny = SamplerConfig(n_samples=5, burn_in=0)

    def one_short_heated_run():
        HeatedChainSampler(engine, 1.0, default_temperatures(4), tiny).run(
            tree, np.random.default_rng(1)
        )

    benchmark(one_short_heated_run)

    record(
        "ablation_heated_chains",
        {
            "plain_mh": plain,
            "heated_mc3": heated,
            "evaluation_overhead_factor": heated["likelihood_evaluations"]
            / max(plain["likelihood_evaluations"], 1),
            "wall_clock_overhead_factor": float(np.median(ratios)),
            "paper": "heating multiplies likelihood evaluations per step by the rung count "
            "without removing burn-in",
        },
    )

    # Shape: the MC3 ladder performs ~n_chains times more likelihood
    # evaluations for the same number of retained cold-chain samples, and
    # both samplers produce usable (finite, positive) ESS.
    assert heated["likelihood_evaluations"] > 3 * plain["likelihood_evaluations"]
    assert plain["ess"] > 0 and heated["ess"] > 0
    assert 0.0 < heated["acceptance_rate"] <= 1.0
