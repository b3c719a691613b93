"""Tests for the Experiment facade, run specs, and config serialization."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Experiment, RunReport, RunSpec, run_experiment
from repro.core.config import EstimatorConfig, MPCGSConfig, SamplerConfig
from repro.core.mpcgs import MPCGS, MPCGSResult
from repro.sequences.phylip import write_phylip
from repro.simulate.datasets import synthesize_dataset

FAST = MPCGSConfig(
    sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=5),
    n_em_iterations=2,
)


@pytest.fixture
def dataset(rng):
    return synthesize_dataset(n_sequences=6, n_sites=60, true_theta=1.0, rng=rng)


class TestConfigSerialization:
    def test_sampler_config_round_trip(self):
        cfg = SamplerConfig(n_proposals=8, samples_per_set=3, n_samples=77, burn_in=9, thin=2)
        assert SamplerConfig.from_dict(cfg.to_dict()) == cfg

    def test_batch_proposals_is_a_serialized_constant(self):
        """The key that once chose the kernel is always written as true, read
        as true or absent, and rejected as false, naming the test oracle."""
        cfg = SamplerConfig(n_proposals=8, n_samples=77)
        doc = cfg.to_dict()
        assert doc["batch_proposals"] is True
        assert SamplerConfig.from_dict(doc) == cfg
        doc.pop("batch_proposals")
        assert SamplerConfig.from_dict(doc) == cfg
        with pytest.raises(ValueError, match="test oracle"):
            SamplerConfig.from_dict({**doc, "batch_proposals": False})
        spec = MPCGSConfig(sampler=cfg).to_dict()
        assert MPCGSConfig.from_dict(spec).sampler == cfg
        spec["chain"]["batch_proposals"] = False
        with pytest.raises(ValueError, match="reference_kernel"):
            MPCGSConfig.from_dict(spec)

    def test_estimator_config_round_trip(self):
        cfg = EstimatorConfig(gradient_delta=1e-3, max_iterations=10)
        assert EstimatorConfig.from_dict(cfg.to_dict()) == cfg

    def test_mpcgs_config_round_trip(self):
        cfg = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=8, n_samples=50, burn_in=10),
            estimator=EstimatorConfig(max_iterations=33),
            n_em_iterations=3,
            likelihood_engine="serial",
            mutation_model="K80",
            sampler_name="heated",
            sampler_options={"n_chains": 3},
        )
        assert MPCGSConfig.from_dict(cfg.to_dict()) == cfg

    def test_json_round_trip(self):
        cfg = MPCGSConfig(sampler_name="multichain", sampler_options={"n_chains": 2})
        text = cfg.to_json()
        assert json.loads(text)["sampler"] == "multichain"
        assert MPCGSConfig.from_json(text) == cfg

    def test_serialized_sampler_key_is_the_name(self):
        data = MPCGSConfig().to_dict()
        assert data["sampler"] == "gmh"
        assert data["chain"]["n_proposals"] == 32

    def test_from_dict_accepts_constructor_layout(self):
        cfg = MPCGSConfig.from_dict(
            {"sampler": {"n_proposals": 4}, "sampler_name": "lamarc", "n_em_iterations": 2}
        )
        assert cfg.sampler.n_proposals == 4
        assert cfg.sampler_name == "lamarc"

    def test_sampler_as_string_selects_the_name(self):
        cfg = MPCGSConfig(sampler="lamarc")
        assert cfg.sampler_name == "lamarc"
        assert cfg.sampler == SamplerConfig()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown SamplerConfig keys"):
            SamplerConfig.from_dict({"n_proposals": 4, "proposals": 4})
        with pytest.raises(ValueError, match="unknown MPCGSConfig keys"):
            MPCGSConfig.from_dict({"n_em_iters": 3})

    def test_with_sampler(self):
        cfg = FAST.with_sampler("multichain", n_chains=4)
        assert cfg.sampler_name == "multichain"
        assert cfg.sampler_options == {"n_chains": 4}
        assert cfg.sampler == FAST.sampler


class TestRunSpec:
    def test_round_trip(self):
        spec = RunSpec(config=FAST, sequence_file="data.phy", theta0=0.5, seed=11)
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_flat_document_is_a_valid_spec(self):
        spec = RunSpec.from_dict(
            {"sequence_file": "d.phy", "sampler": "lamarc", "n_em_iterations": 2}
        )
        assert spec.sequence_file == "d.phy"
        assert spec.config.sampler_name == "lamarc"
        assert spec.config.n_em_iterations == 2

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = RunSpec(config=FAST, sequence_file="x.phy", seed=3)
        spec.save(path)
        assert RunSpec.load(path) == spec

    def test_invalid_theta0_rejected(self):
        with pytest.raises(ValueError, match="theta0 must be positive"):
            RunSpec(theta0=-1.0)

    def test_engine_is_serialized_only_off_the_default(self):
        assert "likelihood_engine" not in MPCGSConfig().to_dict()
        assert MPCGSConfig.from_dict(MPCGSConfig().to_dict()).likelihood_engine == "fused"
        batched = MPCGSConfig(likelihood_engine="batched")
        assert batched.to_dict()["likelihood_engine"] == "batched"
        assert MPCGSConfig.from_dict(batched.to_dict()) == batched

    def test_spec_naming_batched_keeps_its_pre_fused_content_hash(self):
        """Every spec written while ``batched`` was the default names it, so it
        still addresses the result it committed back then."""
        config = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=5),
            n_em_iterations=2,
            likelihood_engine="batched",
        )
        spec = RunSpec(config=config, theta0=0.5, seed=3)
        assert spec.content_hash(data_digest="0" * 64) == (
            "874b0748199e7e2a134066fb33007f8eb31bfc08625d17752319f40f09d2c769"
        )
        fused = RunSpec(config=replace(config, likelihood_engine="fused"), theta0=0.5, seed=3)
        assert fused.content_hash(data_digest="0" * 64) != spec.content_hash(
            data_digest="0" * 64
        )


class TestExperimentFacade:
    def test_reproduces_mpcgs_bit_for_bit(self, dataset):
        reference = MPCGS(dataset.alignment, FAST).run(
            theta0=0.5, rng=np.random.default_rng(42)
        )
        report = run_experiment(dataset.alignment, FAST, theta0=0.5, seed=42)
        assert report.theta == reference.theta
        np.testing.assert_array_equal(report.theta_trajectory, reference.theta_trajectory)

    def test_report_structure(self, dataset):
        report = run_experiment(dataset.alignment, FAST, theta0=0.5, seed=42)
        assert isinstance(report, RunReport)
        assert report.sampler == "gmh"
        assert isinstance(report.result, MPCGSResult)
        assert report.n_samples == report.result.total_samples
        assert report.diagnostics["mode"] == "maximum_likelihood"
        assert len(report.diagnostics["iterations"]) == report.diagnostics["n_em_iterations"]
        payload = json.loads(report.to_json())
        assert payload["theta"] == report.theta
        assert payload["config"]["sampler"] == "gmh"

    def test_accepts_dataset_and_path(self, dataset, tmp_path):
        path = tmp_path / "seqs.phy"
        write_phylip(dataset.alignment, path)
        from_obj = run_experiment(dataset, FAST, theta0=0.5, seed=1)
        from_path = run_experiment(str(path), FAST, theta0=0.5, seed=1)
        assert from_obj.theta == from_path.theta

    def test_rejects_unknown_data(self):
        with pytest.raises(TypeError, match="data must be"):
            run_experiment(12345, FAST)

    def test_theta0_defaults_to_watterson(self, dataset):
        experiment = Experiment(dataset, FAST, seed=0)
        assert experiment.theta0 == pytest.approx(dataset.alignment.watterson_theta())

    def test_non_gmh_sampler_runs_end_to_end(self, dataset):
        report = run_experiment(
            dataset, FAST, theta0=0.5, seed=2, sampler="multichain", n_chains=2
        )
        assert report.sampler == "multichain"
        assert report.theta > 0
        assert report.diagnostics["mode"] == "maximum_likelihood"

    def test_bayesian_sampler_reports_posterior(self, dataset):
        report = run_experiment(dataset, FAST, theta0=0.5, seed=2, sampler="bayesian")
        assert report.sampler == "bayesian"
        assert report.diagnostics["mode"] == "bayesian"
        lo, hi = report.diagnostics["credible_95"]
        assert lo < report.diagnostics["posterior_median"] < hi
        assert report.theta == pytest.approx(report.diagnostics["posterior_mean"])
        assert len(report.theta_trajectory) == report.n_samples

    def test_unknown_sampler_fails_fast(self, dataset):
        with pytest.raises(ValueError, match="unknown sampler"):
            Experiment(dataset, MPCGSConfig(sampler_name="nope"))

    def test_heated_spec_with_conflicting_chain_count_fails(self, dataset):
        config = FAST.with_sampler("heated", n_chains=2, temperatures=[1.0, 0.8, 0.6, 0.4])
        with pytest.raises(ValueError, match="n_chains=2 but 4 temperatures"):
            Experiment(dataset, config, theta0=0.5, seed=0).run()

    def test_from_spec_and_spec_round_trip(self, dataset, tmp_path):
        path = tmp_path / "seqs.phy"
        write_phylip(dataset.alignment, path)
        spec = RunSpec(config=FAST, sequence_file=str(path), theta0=0.5, seed=42)
        spec_path = tmp_path / "spec.json"
        spec.save(spec_path)

        experiment = Experiment.from_spec(spec_path)
        assert experiment.theta0 == 0.5
        assert experiment.spec(sequence_file=str(path)) == spec

        report = experiment.run()
        direct = run_experiment(dataset.alignment, FAST, theta0=0.5, seed=42)
        assert report.theta == direct.theta

    def test_from_spec_requires_data(self):
        with pytest.raises(ValueError, match="names no sequence_file"):
            Experiment.from_spec(RunSpec(config=FAST))

    def test_seeded_runs_are_reproducible(self, dataset):
        a = run_experiment(dataset, FAST, theta0=0.5, seed=9)
        b = run_experiment(dataset, FAST, theta0=0.5, seed=9)
        assert a.theta == b.theta


class TestSamplerSwitchHygiene:
    """Switching samplers must not leak the old sampler's options (review fix)."""

    def test_with_sampler_drops_stale_options_on_switch(self):
        cfg = FAST.with_sampler("multichain", n_chains=2)
        switched = cfg.with_sampler("gmh")
        assert switched.sampler_options == {}
        kept = cfg.with_sampler("multichain")
        assert kept.sampler_options == {"n_chains": 2}

    def test_run_experiment_survives_sampler_override(self, dataset):
        bayes_cfg = FAST.with_sampler("bayesian", prior_shape=2.0, prior_scale=1.0)
        report = run_experiment(dataset, bayes_cfg, theta0=0.5, seed=1, sampler="gmh")
        assert report.sampler == "gmh"
        assert report.diagnostics["mode"] == "maximum_likelihood"

    def test_sampler_name_is_case_normalized(self, dataset):
        cfg = MPCGSConfig(sampler_name="Bayesian")
        assert cfg.sampler_name == "bayesian"
        report = run_experiment(dataset, cfg.with_sampler("GMH"), theta0=0.5, seed=1)
        assert report.sampler == "gmh"
