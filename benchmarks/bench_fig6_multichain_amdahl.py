"""Figure 6 / Eq. 27 — the burn-in bottleneck of the multiple-chains approach.

The paper's Fig. 6 illustrates why running P independent chains stops
scaling: every chain repeats the B-step burn-in, so the per-processor step
count is B + N/P and efficiency collapses toward B as P grows (Amdahl's
law), whereas the GMH sampler parallelizes the burn-in too.  This benchmark
measures the *actual* total work (likelihood evaluations) of the multi-chain
baseline at several chain counts on a real dataset, confirming the redundant
burn-in, and tabulates the step-count model across processor counts.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.multichain import AmdahlModel, MultiChainSampler
from repro.core.config import SamplerConfig
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import VectorizedEngine
from repro.likelihood.mutation_models import Felsenstein81

from conftest import make_dataset

N_SAMPLES = 48
BURN_IN = 24
CHAIN_COUNTS = (1, 2, 4, 8)
MODEL_PROCESSORS = (1, 2, 4, 8, 16, 64, 256, 1024)


def _run_multichain(dataset, n_chains: int, seed: int):
    model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
    tree = upgma_tree(dataset.alignment, 1.0)
    sampler = MultiChainSampler(
        engine_factory=lambda: VectorizedEngine(alignment=dataset.alignment, model=model),
        theta=1.0,
        n_chains=n_chains,
        config=SamplerConfig(n_samples=N_SAMPLES, burn_in=BURN_IN),
    )
    return sampler.run(tree, np.random.default_rng(seed))


def test_fig6_multichain_burn_in_overhead(benchmark, record):
    dataset = make_dataset(n_sequences=8, n_sites=150, true_theta=1.0, seed=66)

    measured = []
    for n_chains in CHAIN_COUNTS:
        result = _run_multichain(dataset, n_chains, seed=5)
        measured.append(
            {
                "n_chains": n_chains,
                "total_steps": result.n_proposal_sets,
                "total_likelihood_evaluations": result.n_likelihood_evaluations,
                "ideal_parallel_steps": result.extras["ideal_parallel_steps"],
            }
        )

    benchmark.pedantic(_run_multichain, args=(dataset, 2, 5), rounds=1, iterations=1)

    amdahl = AmdahlModel(burn_in=BURN_IN, n_samples=N_SAMPLES)
    model_rows = [
        {
            "P": int(p),
            "multichain_steps": float(amdahl.multichain_steps(p)),
            "gmh_steps": float(amdahl.gmh_steps(p)),
            "multichain_efficiency": float(amdahl.multichain_efficiency(p)),
            "gmh_efficiency": float(amdahl.gmh_efficiency(p)),
        }
        for p in MODEL_PROCESSORS
    ]

    record(
        "fig6_multichain_amdahl",
        {
            "measured": measured,
            "step_model": model_rows,
            "multichain_speedup_limit": amdahl.multichain_speedup_limit(),
            "paper": "Eq. 27: lim P->inf of B + N/P = B; GMH removes the burn-in bottleneck",
        },
    )

    # Measured shape: total work grows with the chain count because every
    # chain repeats the burn-in...
    total_work = np.array([m["total_steps"] for m in measured], dtype=float)
    assert np.all(np.diff(total_work) > 0)
    # ...and the idealized per-processor time saturates at the burn-in cost
    # while GMH keeps improving.
    assert model_rows[-1]["multichain_steps"] < BURN_IN * 1.1
    assert model_rows[-1]["gmh_steps"] < model_rows[-1]["multichain_steps"] / 10
