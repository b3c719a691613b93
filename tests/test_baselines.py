"""Tests for the baseline samplers (single-proposal MH and multiple chains)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.lamarc import LamarcSampler
from repro.baselines.multichain import (
    AmdahlModel,
    MultiChainSampler,
    gmh_parallel_time,
    multichain_parallel_time,
)
from repro.core.config import SamplerConfig
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import VectorizedEngine
from repro.simulate.coalescent_sim import expected_tmrca, simulate_genealogy


@pytest.fixture
def seed_tree(small_dataset):
    return upgma_tree(small_dataset.alignment, driving_theta=1.0)


def make_engine(small_dataset, uniform_model):
    return VectorizedEngine(alignment=small_dataset.alignment, model=uniform_model)


class TestLamarcSampler:
    def test_records_requested_samples(self, small_dataset, uniform_model, seed_tree, rng):
        cfg = SamplerConfig(n_samples=25, burn_in=10)
        sampler = LamarcSampler(make_engine(small_dataset, uniform_model), 1.0, cfg)
        result = sampler.run(seed_tree, rng)
        assert result.n_samples == 25
        assert result.n_proposal_sets >= 35
        assert result.n_likelihood_evaluations == result.n_proposal_sets + 1

    def test_acceptance_rate_strictly_between_zero_and_one(
        self, small_dataset, uniform_model, seed_tree, rng
    ):
        cfg = SamplerConfig(n_samples=60, burn_in=10)
        result = LamarcSampler(make_engine(small_dataset, uniform_model), 1.0, cfg).run(
            seed_tree, rng
        )
        assert 0.0 < result.acceptance_rate <= 1.0

    def test_reproducible_with_seed(self, small_dataset, uniform_model, seed_tree):
        cfg = SamplerConfig(n_samples=15, burn_in=5)
        a = LamarcSampler(make_engine(small_dataset, uniform_model), 1.0, cfg).run(
            seed_tree, np.random.default_rng(9)
        )
        b = LamarcSampler(make_engine(small_dataset, uniform_model), 1.0, cfg).run(
            seed_tree, np.random.default_rng(9)
        )
        assert np.allclose(a.interval_matrix, b.interval_matrix)

    def test_requires_three_tips(self, small_dataset, uniform_model, rng):
        from repro.genealogy.tree import Genealogy

        sampler = LamarcSampler(make_engine(small_dataset, uniform_model), 1.0)
        with pytest.raises(ValueError):
            sampler.run(Genealogy.from_times_and_topology([(0, 1)], [0.4]), rng)

    def test_invalid_theta(self, small_dataset, uniform_model):
        with pytest.raises(ValueError):
            LamarcSampler(make_engine(small_dataset, uniform_model), 0.0)

    @pytest.mark.slow
    def test_constant_likelihood_samples_the_prior(self, rng):
        """With a constant data term the posterior *is* the coalescent prior.

        Driving the single-proposal sampler with :class:`ConstantEngine`
        makes every acceptance ratio exactly one, so the chain's stationary
        distribution is the conditional-coalescent proposal's target — the
        prior P(G | θ).  The sampled mean TMRCA must then match coalescent
        theory, which is a direct correctness check of the neighbourhood
        resimulation machinery.
        """
        from repro.likelihood.engines import ConstantEngine
        from repro.likelihood.mutation_models import JukesCantor69
        from repro.sequences.alignment import Alignment

        n_tips, theta = 6, 1.0
        aln = Alignment.from_sequences({f"s{i}": "ACGTACGTAC" for i in range(n_tips)})
        engine = ConstantEngine(alignment=aln, model=JukesCantor69())
        tree = simulate_genealogy(n_tips, theta, rng, tip_names=aln.names)
        cfg = SamplerConfig(n_samples=3000, burn_in=500, thin=2)
        result = LamarcSampler(engine, theta, cfg).run(tree, rng)
        mean_height = result.trace.heights.mean()
        assert result.acceptance_rate == pytest.approx(1.0)
        assert mean_height == pytest.approx(expected_tmrca(n_tips, theta), rel=0.2)


class TestMultiChain:
    def test_pools_samples_across_chains(self, small_dataset, uniform_model, seed_tree, rng):
        cfg = SamplerConfig(n_samples=20, burn_in=5)
        sampler = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=4,
            config=cfg,
        )
        result = sampler.run(seed_tree, rng)
        assert result.n_samples >= 20
        assert result.extras["n_chains"] == 4
        assert len(result.extras["per_chain_steps"]) == 4
        # Every chain pays its own burn-in: total steps exceed the serial equivalent.
        assert result.n_proposal_sets > cfg.burn_in + cfg.n_samples

    def test_pools_exactly_the_configured_total(
        self, small_dataset, uniform_model, seed_tree, rng
    ):
        """Regression: ceil-splitting 100 samples over 3 chains pooled 102.

        The pooled count must equal ``config.n_samples`` exactly, with the
        remainder of the even split distributed across the leading chains.
        """
        cfg = SamplerConfig(n_samples=100, burn_in=2)
        sampler = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=3,
            config=cfg,
        )
        assert sampler.chain_quotas() == [34, 33, 33]
        result = sampler.run(seed_tree, rng)
        assert result.n_samples == 100
        # ...and the serial-equivalent accounting now matches the actual pool.
        assert result.extras["serial_steps_equivalent"] == 2 + 100

    def test_chain_boundaries_partition_the_pooled_trace(
        self, small_dataset, uniform_model, seed_tree, rng
    ):
        cfg = SamplerConfig(n_samples=10, burn_in=2)
        sampler = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=3,
            config=cfg,
        )
        result = sampler.run(seed_tree, rng)
        boundaries = result.extras["chain_boundaries"]
        assert result.extras["per_chain_samples"] == [4, 3, 3]
        assert boundaries == [(0, 4), (4, 7), (7, 10)]
        assert boundaries[-1][1] == result.n_samples

    def test_more_chains_than_samples_skips_surplus_chains(
        self, small_dataset, uniform_model, seed_tree, rng
    ):
        cfg = SamplerConfig(n_samples=2, burn_in=1)
        sampler = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=4,
            config=cfg,
        )
        result = sampler.run(seed_tree, rng)
        assert result.n_samples == 2
        assert result.extras["per_chain_samples"] == [1, 1, 0, 0]
        assert result.extras["chain_boundaries"] == [(0, 1), (1, 2), (2, 2), (2, 2)]
        # Surplus chains are not run; their step counts stay index-aligned at 0.
        steps = result.extras["per_chain_steps"]
        assert len(steps) == 4
        assert steps[2:] == [0, 0] and all(s > 0 for s in steps[:2])

    def test_ideal_parallel_accounting(self, small_dataset, uniform_model, seed_tree, rng):
        cfg = SamplerConfig(n_samples=20, burn_in=10)
        sampler = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=2,
            config=cfg,
        )
        result = sampler.run(seed_tree, rng)
        assert result.extras["ideal_parallel_steps"] == pytest.approx(10 + 20 / 2)
        assert result.extras["serial_steps_equivalent"] == 30

    def test_validation(self, small_dataset, uniform_model):
        with pytest.raises(ValueError):
            MultiChainSampler(
                engine_factory=lambda: make_engine(small_dataset, uniform_model),
                theta=1.0,
                n_chains=0,
                config=SamplerConfig(),
            )
        with pytest.raises(ValueError):
            MultiChainSampler(
                engine_factory=lambda: make_engine(small_dataset, uniform_model),
                theta=-1.0,
                n_chains=2,
                config=SamplerConfig(),
            )


class TestMultiChainWorkers:
    """Process-parallel execution (ISSUE 5): same output, measured wall time."""

    @staticmethod
    def _picklable_factory(small_dataset, uniform_model):
        # Worker processes must be able to pickle the factory; the driver's
        # _EngineBuilder is the production spelling of this.
        from repro.core.mpcgs import _EngineBuilder

        return _EngineBuilder("vectorized", small_dataset.alignment, uniform_model)

    def test_workers_produce_bit_identical_pool(
        self, small_dataset, uniform_model, seed_tree
    ):
        cfg = SamplerConfig(n_samples=24, burn_in=4)
        factory = self._picklable_factory(small_dataset, uniform_model)
        serial = MultiChainSampler(
            engine_factory=factory, theta=1.0, n_chains=3, config=cfg
        ).run(seed_tree, np.random.default_rng(77))
        parallel = MultiChainSampler(
            engine_factory=factory, theta=1.0, n_chains=3, config=cfg, n_workers=3
        ).run(seed_tree, np.random.default_rng(77))
        assert np.array_equal(serial.interval_matrix, parallel.interval_matrix)
        assert np.array_equal(
            np.asarray(serial.trace.log_likelihoods),
            np.asarray(parallel.trace.log_likelihoods),
        )
        assert serial.extras["chain_boundaries"] == parallel.extras["chain_boundaries"]
        assert parallel.extras["n_workers"] == 3
        assert parallel.extras["parallel_wall_seconds"] > 0.0

    def test_unpicklable_factory_raises_helpfully(
        self, small_dataset, uniform_model, seed_tree
    ):
        cfg = SamplerConfig(n_samples=10, burn_in=2)
        sampler = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=2,
            config=cfg,
            n_workers=2,
        )
        with pytest.raises(ValueError, match="picklable"):
            sampler.run(seed_tree, np.random.default_rng(5))

    def test_worker_validation(self, small_dataset, uniform_model):
        with pytest.raises(ValueError, match="n_workers"):
            MultiChainSampler(
                engine_factory=lambda: make_engine(small_dataset, uniform_model),
                theta=1.0,
                n_chains=2,
                config=SamplerConfig(),
                n_workers=0,
            )


class TestStackedMultiChain:
    """Lock-step cross-chain execution (stacked mode): same output, one engine."""

    @staticmethod
    def _factory(small_dataset, uniform_model, engine_name="vectorized"):
        from repro.core.mpcgs import _EngineBuilder

        return _EngineBuilder(engine_name, small_dataset.alignment, uniform_model)

    @pytest.mark.parametrize("n_chains", [1, 2, 4, 8])
    def test_stacked_is_bit_identical_to_serial(
        self, small_dataset, uniform_model, seed_tree, n_chains
    ):
        # n_samples=12 over 8 chains exercises the uneven quotas (and, with
        # burn_in + quota*thin varying per chain, the narrowing stack).
        cfg = SamplerConfig(n_samples=12, burn_in=3, thin=2)
        factory = self._factory(small_dataset, uniform_model)
        serial = MultiChainSampler(
            engine_factory=factory, theta=1.0, n_chains=n_chains, config=cfg
        ).run(seed_tree, np.random.default_rng(77))
        stacked = MultiChainSampler(
            engine_factory=factory,
            theta=1.0,
            n_chains=n_chains,
            config=cfg,
            mode="stacked",
        ).run(seed_tree, np.random.default_rng(77))
        assert np.array_equal(serial.interval_matrix, stacked.interval_matrix)
        assert np.array_equal(
            np.asarray(serial.trace.log_likelihoods),
            np.asarray(stacked.trace.log_likelihoods),
        )
        assert np.array_equal(
            np.asarray(serial.trace.heights), np.asarray(stacked.trace.heights)
        )
        assert serial.extras["chain_boundaries"] == stacked.extras["chain_boundaries"]
        assert serial.extras["per_chain_steps"] == stacked.extras["per_chain_steps"]
        assert stacked.extras["execution_mode"] == "stacked"
        # The lock-step loop runs as many rounds as the longest chain has steps.
        assert stacked.extras["lockstep_rounds"] == max(
            stacked.extras["per_chain_steps"]
        )

    @pytest.mark.parametrize("engine_name", ["batched", "fused"])
    def test_stacked_batching_engines_match_serial(
        self, small_dataset, uniform_model, seed_tree, engine_name
    ):
        """The K·1-tree fused/batched rounds reproduce the solo chains' bits.

        This is the strong form of the contract: engine values must be
        bitwise independent of batch composition, so pushing four chains'
        candidates through one workspace changes nothing but the wall clock.
        """
        cfg = SamplerConfig(n_samples=12, burn_in=3)
        factory = self._factory(small_dataset, uniform_model, engine_name)
        serial = MultiChainSampler(
            engine_factory=factory, theta=1.0, n_chains=4, config=cfg
        ).run(seed_tree, np.random.default_rng(77))
        stacked = MultiChainSampler(
            engine_factory=factory, theta=1.0, n_chains=4, config=cfg, mode="stacked"
        ).run(seed_tree, np.random.default_rng(77))
        assert np.array_equal(serial.interval_matrix, stacked.interval_matrix)
        assert np.array_equal(
            np.asarray(serial.trace.log_likelihoods),
            np.asarray(stacked.trace.log_likelihoods),
        )
        if engine_name == "fused":
            # The shared workspace deduplicates transition matrices across
            # chains, so more matrices are requested than built.
            assert stacked.extras["pmat_dedup_ratio"] > 1.0

    def test_stacked_counts_shared_engine_evaluations(
        self, small_dataset, uniform_model, seed_tree
    ):
        """One engine, one initial evaluation: K−1 duplicate evals are saved."""
        cfg = SamplerConfig(n_samples=12, burn_in=3)
        factory = self._factory(small_dataset, uniform_model)
        stacked = MultiChainSampler(
            engine_factory=factory, theta=1.0, n_chains=4, config=cfg, mode="stacked"
        ).run(seed_tree, np.random.default_rng(77))
        assert stacked.n_likelihood_evaluations == stacked.n_proposal_sets + 1

    def test_stacked_accepts_unpicklable_factory(
        self, small_dataset, uniform_model, seed_tree
    ):
        # No processes, no pickling: a closure factory is fine in stacked mode.
        cfg = SamplerConfig(n_samples=6, burn_in=2)
        result = MultiChainSampler(
            engine_factory=lambda: make_engine(small_dataset, uniform_model),
            theta=1.0,
            n_chains=2,
            config=cfg,
            mode="stacked",
        ).run(seed_tree, np.random.default_rng(5))
        assert result.n_samples == 6

    def test_surplus_chains_are_skipped(self, small_dataset, uniform_model, seed_tree):
        cfg = SamplerConfig(n_samples=2, burn_in=1)
        result = MultiChainSampler(
            engine_factory=self._factory(small_dataset, uniform_model),
            theta=1.0,
            n_chains=4,
            config=cfg,
            mode="stacked",
        ).run(seed_tree, np.random.default_rng(5))
        assert result.extras["per_chain_samples"] == [1, 1, 0, 0]
        assert result.extras["chain_boundaries"] == [(0, 1), (1, 2), (2, 2), (2, 2)]
        assert result.extras["per_chain_steps"][2:] == [0, 0]

    def test_unknown_mode_is_rejected(self, small_dataset, uniform_model):
        with pytest.raises(ValueError, match="mode"):
            MultiChainSampler(
                engine_factory=self._factory(small_dataset, uniform_model),
                theta=1.0,
                n_chains=2,
                config=SamplerConfig(),
                mode="threads",
            )


class TestStepCountHelpers:
    def test_multichain_steps(self):
        assert multichain_parallel_time(100, 1000, 1) == 1100
        assert multichain_parallel_time(100, 1000, 10) == 200
        assert multichain_parallel_time(100, 1000, 10**6) == pytest.approx(100, rel=1e-2)

    def test_gmh_steps(self):
        assert gmh_parallel_time(100, 1000, 1) == 1100
        assert gmh_parallel_time(100, 1000, 10) == 110

    def test_gmh_scales_better_than_multichain(self):
        for p in (2, 8, 64, 512):
            assert gmh_parallel_time(100, 1000, p) < multichain_parallel_time(100, 1000, p)

    def test_validation(self):
        with pytest.raises(ValueError):
            multichain_parallel_time(10, 10, 0)
        with pytest.raises(ValueError):
            gmh_parallel_time(10, 10, 0)


class TestAmdahlModel:
    def test_matches_paper_equation(self):
        model = AmdahlModel(burn_in=4, n_samples=4)
        # Fig. 6: with B = N = 4, four chains each do 4 + 1 = 5 steps.
        assert model.multichain_steps(4) == pytest.approx(5.0)
        assert model.gmh_steps(4) == pytest.approx(2.0)

    def test_limit_is_burn_in(self):
        model = AmdahlModel(burn_in=100, n_samples=10_000)
        assert model.multichain_steps(10**9) == pytest.approx(100, rel=1e-3)
        assert model.multichain_speedup_limit() == pytest.approx(101.0)

    def test_gmh_speedup_is_ideal_without_serial_fraction(self):
        model = AmdahlModel(burn_in=50, n_samples=500)
        ps = np.array([1, 2, 8, 64])
        assert np.allclose(model.gmh_speedup(ps), ps)
        assert np.allclose(model.gmh_efficiency(ps), 1.0)

    def test_multichain_efficiency_decays(self):
        model = AmdahlModel(burn_in=50, n_samples=500)
        eff = model.multichain_efficiency(np.array([1, 4, 16, 64, 256]))
        assert np.all(np.diff(eff) < 0)

    def test_serial_fraction_caps_gmh_speedup(self):
        model = AmdahlModel(burn_in=50, n_samples=500)
        capped = model.gmh_speedup(10**6, serial_fraction=0.02)
        assert capped == pytest.approx(50.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            AmdahlModel(burn_in=-1, n_samples=10)
        model = AmdahlModel(burn_in=1, n_samples=10)
        with pytest.raises(ValueError):
            model.multichain_steps(0)
        with pytest.raises(ValueError):
            model.gmh_steps(4, serial_fraction=1.5)
