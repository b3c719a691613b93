"""Tests for the Metropolis-coupled (heated chains) baseline sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.heated import HeatedChainSampler, default_temperatures
from repro.baselines.lamarc import LamarcSampler
from repro.core.config import SamplerConfig
from repro.demography.models import ExponentialDemography
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import ConstantEngine, VectorizedEngine
from repro.simulate.coalescent_sim import expected_tmrca, simulate_genealogy


def make_engine(small_dataset, uniform_model):
    return VectorizedEngine(alignment=small_dataset.alignment, model=uniform_model)


class TestTemperatureLadder:
    def test_default_ladder(self):
        temps = default_temperatures(4, increment=0.5)
        assert temps[0] == 1.0
        assert temps == (1.0, 1.0 / 1.5, 1.0 / 2.0, 1.0 / 2.5)
        assert all(temps[i] > temps[i + 1] for i in range(3))

    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            default_temperatures(0)
        with pytest.raises(ValueError):
            default_temperatures(3, increment=0.0)


class TestConstruction:
    def test_cold_chain_must_come_first(self, small_dataset, uniform_model):
        engine = make_engine(small_dataset, uniform_model)
        with pytest.raises(ValueError, match="cold chain"):
            HeatedChainSampler(engine, 1.0, temperatures=(0.5, 1.0))

    def test_temperatures_must_be_in_unit_interval(self, small_dataset, uniform_model):
        engine = make_engine(small_dataset, uniform_model)
        with pytest.raises(ValueError):
            HeatedChainSampler(engine, 1.0, temperatures=(1.0, 1.5))
        with pytest.raises(ValueError):
            HeatedChainSampler(engine, 1.0, temperatures=(1.0, 0.0))

    def test_other_validation(self, small_dataset, uniform_model):
        engine = make_engine(small_dataset, uniform_model)
        with pytest.raises(ValueError):
            HeatedChainSampler(engine, 0.0)
        with pytest.raises(ValueError):
            HeatedChainSampler(engine, 1.0, swap_interval=0)
        with pytest.raises(ValueError):
            HeatedChainSampler(engine, 1.0, temperatures=())


class TestRun:
    def test_records_requested_cold_samples(self, small_dataset, uniform_model, rng):
        engine = make_engine(small_dataset, uniform_model)
        tree = upgma_tree(small_dataset.alignment, 1.0)
        cfg = SamplerConfig(n_samples=30, burn_in=10)
        result = HeatedChainSampler(engine, 1.0, config=cfg).run(tree, rng)
        assert result.n_samples == 30
        assert result.extras["temperatures"][0] == 1.0
        assert len(result.extras["per_chain_acceptance"]) == 4
        # Every sweep advances every chain, so total proposals exceed the
        # single-chain equivalent by the chain count.
        assert result.n_proposal_sets == result.n_decisions * 4

    def test_swap_bookkeeping(self, small_dataset, uniform_model, rng):
        engine = make_engine(small_dataset, uniform_model)
        tree = upgma_tree(small_dataset.alignment, 1.0)
        cfg = SamplerConfig(n_samples=25, burn_in=5)
        result = HeatedChainSampler(engine, 1.0, config=cfg, swap_interval=2).run(tree, rng)
        assert result.extras["swap_attempts"] >= 1
        assert 0 <= result.extras["swap_accepts"] <= result.extras["swap_attempts"]

    def test_single_temperature_behaves_like_plain_mh(self, small_dataset, uniform_model):
        """A one-rung heated chain is the LAMARC chain, bit for bit, on the
        same stream: constant, conditional and corrected demographies."""
        tree = upgma_tree(small_dataset.alignment, 1.0)
        cfg = SamplerConfig(n_samples=25, burn_in=5)
        cases = {
            "constant": {},
            "conditional": {"demography": ExponentialDemography(growth=2.0)},
            "corrected": {
                "demography": ExponentialDemography(growth=2.0),
                "importance_correction": True,
            },
        }
        for name, options in cases.items():
            result = HeatedChainSampler(
                make_engine(small_dataset, uniform_model),
                1.0,
                temperatures=(1.0,),
                config=cfg,
                **options,
            ).run(tree, np.random.default_rng(8))
            plain = LamarcSampler(
                make_engine(small_dataset, uniform_model), 1.0, cfg, **options
            ).run(tree, np.random.default_rng(8))
            assert result.n_samples == 25, name
            assert result.extras["swap_attempts"] == 0, name
            assert 0.0 < result.acceptance_rate <= 1.0, name
            assert np.array_equal(result.interval_matrix, plain.interval_matrix), name
            assert np.array_equal(result.trace.log_likelihoods, plain.trace.log_likelihoods), name
            assert result.n_accepted == plain.n_accepted, name

    def test_requires_three_tips(self, small_dataset, uniform_model, rng):
        from repro.genealogy.tree import Genealogy

        engine = make_engine(small_dataset, uniform_model)
        sampler = HeatedChainSampler(engine, 1.0)
        with pytest.raises(ValueError):
            sampler.run(Genealogy.from_times_and_topology([(0, 1)], [0.2]), rng)

    def test_reproducible_with_seed(self, small_dataset, uniform_model):
        tree = upgma_tree(small_dataset.alignment, 1.0)
        cfg = SamplerConfig(n_samples=15, burn_in=5)
        a = HeatedChainSampler(make_engine(small_dataset, uniform_model), 1.0, config=cfg).run(
            tree, np.random.default_rng(4)
        )
        b = HeatedChainSampler(make_engine(small_dataset, uniform_model), 1.0, config=cfg).run(
            tree, np.random.default_rng(4)
        )
        assert np.allclose(a.interval_matrix, b.interval_matrix)

    @pytest.mark.slow
    def test_constant_likelihood_cold_chain_samples_the_prior(self, rng):
        """All tempered targets coincide when the likelihood is constant, so
        swaps are always accepted and the cold chain must reproduce prior
        statistics — the heated machinery must not distort the target."""
        from repro.likelihood.mutation_models import JukesCantor69
        from repro.sequences.alignment import Alignment

        n_tips, theta = 6, 1.0
        aln = Alignment.from_sequences({f"s{i}": "ACGTACGTAC" for i in range(n_tips)})
        engine = ConstantEngine(alignment=aln, model=JukesCantor69())
        tree = simulate_genealogy(n_tips, theta, rng, tip_names=aln.names)
        cfg = SamplerConfig(n_samples=1500, burn_in=300, thin=2)
        result = HeatedChainSampler(
            engine, theta, temperatures=(1.0, 0.8, 0.6), config=cfg
        ).run(tree, rng)
        assert result.extras["swap_accepts"] == result.extras["swap_attempts"]
        assert result.trace.heights.mean() == pytest.approx(expected_tmrca(n_tips, theta), rel=0.2)
