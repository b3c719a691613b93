"""Cross-module integration tests: the experiments of Section 6 in miniature."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lamarc import LamarcSampler
from repro.core.config import MPCGSConfig, SamplerConfig
from repro.core.estimator import RelativeLikelihood, maximize_theta
from repro.core.mpcgs import MPCGS
from repro.core.sampler import MultiProposalSampler
from repro.diagnostics.accuracy import pearson_correlation
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import BatchedEngine, VectorizedEngine
from repro.likelihood.mutation_models import Felsenstein81
from repro.simulate.datasets import synthesize_dataset


def estimate_with_baseline(alignment, theta0, rng, n_samples=150, burn_in=50, em_iters=3):
    """Run the LAMARC-style single-proposal sampler through the same EM loop."""
    model = Felsenstein81(alignment.base_frequencies(pseudocount=1.0))
    theta = theta0
    tree = upgma_tree(alignment, theta0)
    for _ in range(em_iters):
        engine = VectorizedEngine(alignment=alignment, model=model)
        chain = LamarcSampler(engine, theta, SamplerConfig(n_samples=n_samples, burn_in=burn_in)).run(
            tree, rng
        )
        theta = maximize_theta(RelativeLikelihood(chain.interval_matrix, theta), theta).theta
    return theta


def estimate_with_mpcgs(alignment, theta0, rng, n_samples=150, burn_in=50, em_iters=3):
    cfg = MPCGSConfig(
        sampler=SamplerConfig(n_proposals=8, n_samples=n_samples, burn_in=burn_in),
        n_em_iterations=em_iters,
    )
    return MPCGS(alignment, cfg).run(theta0=theta0, rng=rng).theta


@pytest.mark.slow
class TestAccuracyExperiment:
    """A scaled-down Table 1: both samplers track the true theta across a sweep.

    The estimates of the 1.0 and 2.0 cells differ by about 0.45 (means near
    1.8 and 2.25), while one 150-sample chain gives the 2.0 cell's estimate
    a Monte Carlo spread of 0.25-0.3, so with 150-sample chains the
    assertions failed for 8 of 60 independent chain seeds on these
    datasets.  With 600-sample chains (spread about 0.2) none of 30 failed.
    """

    def test_samplers_agree_and_track_truth(self):
        true_thetas = [0.5, 1.0, 2.0]
        baseline_estimates = []
        mpcgs_estimates = []
        chain = {"n_samples": 600, "burn_in": 100}
        for i, true_theta in enumerate(true_thetas):
            rng = np.random.default_rng(100 + i)
            data = synthesize_dataset(n_sequences=8, n_sites=250, true_theta=true_theta, rng=rng)
            baseline_estimates.append(
                estimate_with_baseline(data.alignment, theta0=0.5 * true_theta, rng=rng, **chain)
            )
            mpcgs_estimates.append(
                estimate_with_mpcgs(data.alignment, theta0=0.5 * true_theta, rng=rng, **chain)
            )
        baseline = np.array(baseline_estimates)
        mpcgs = np.array(mpcgs_estimates)
        # Both estimators increase with the true theta.
        assert np.all(np.diff(baseline) > 0)
        assert np.all(np.diff(mpcgs) > 0)
        # And they correlate strongly with each other (paper: r = 0.905).
        r = pearson_correlation(baseline, mpcgs)
        assert r > 0.8


class TestSamplerEquivalence:
    """Both samplers target the same posterior: their sampled summaries agree."""

    @pytest.mark.slow
    def test_posterior_means_agree(self, rng):
        data = synthesize_dataset(n_sequences=8, n_sites=200, true_theta=1.0, rng=rng)
        model = Felsenstein81(data.alignment.base_frequencies(pseudocount=1.0))
        tree = upgma_tree(data.alignment, 1.0)

        gmh_engine = BatchedEngine(alignment=data.alignment, model=model)
        gmh_chain = MultiProposalSampler(
            gmh_engine, theta=1.0, config=SamplerConfig(n_proposals=8, n_samples=600, burn_in=200)
        ).run(tree, rng)

        mh_engine = VectorizedEngine(alignment=data.alignment, model=model)
        mh_chain = LamarcSampler(
            mh_engine, theta=1.0, config=SamplerConfig(n_samples=600, burn_in=200)
        ).run(tree, rng)

        gmh_height = gmh_chain.trace.heights.mean()
        mh_height = mh_chain.trace.heights.mean()
        assert gmh_height == pytest.approx(mh_height, rel=0.2)

        gmh_ll = gmh_chain.trace.log_likelihoods.mean()
        mh_ll = mh_chain.trace.log_likelihoods.mean()
        assert gmh_ll == pytest.approx(mh_ll, rel=0.02)


class TestWorkAccounting:
    def test_gmh_does_more_evaluations_but_fewer_sets(self, small_dataset, uniform_model, rng):
        tree = upgma_tree(small_dataset.alignment, 1.0)
        n_samples, burn_in, n_prop = 64, 16, 8

        gmh_engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        gmh = MultiProposalSampler(
            gmh_engine, 1.0, SamplerConfig(n_proposals=n_prop, n_samples=n_samples, burn_in=burn_in)
        ).run(tree, rng)

        mh_engine = VectorizedEngine(alignment=small_dataset.alignment, model=uniform_model)
        mh = LamarcSampler(
            mh_engine, 1.0, SamplerConfig(n_samples=n_samples, burn_in=burn_in)
        ).run(tree, rng)

        # The GMH sampler amortizes: it generates far fewer proposal sets
        # than the baseline has steps, because each set yields many samples.
        assert gmh.n_proposal_sets < mh.n_proposal_sets
        # Its evaluations per retained sample are bounded by ~ (N+1)/samples_per_set + 1.
        per_sample = gmh.n_likelihood_evaluations / gmh.n_samples
        assert per_sample < (n_prop + 1)
