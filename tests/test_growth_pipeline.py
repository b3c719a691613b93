"""End-to-end tests for the exponential-growth workload: joint (θ, g) estimation.

Covers the whole vertical slice the growth demography cuts through the
stack: the config field and its serialization, the joint (θ, g) maximizer
(``maximize_demography`` with the exponential demography), the
growth-targeted GMH chain (prior-adjusted index weights), the single- and
multi-locus EM drivers, the API report, and the CLI path — plus the
guarantee that the constant-demography path is untouched.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Experiment, RunSpec, run_experiment
from repro.cli import main
from repro.core.config import EstimatorConfig, MPCGSConfig, SamplerConfig
from repro.core.estimator import maximize_demography
from repro.core.mpcgs import MPCGS, run_multilocus
from repro.core.sampler import MultiProposalSampler
from repro.demography import ExponentialDemography
from repro.likelihood.demography_prior import (
    CombinedDemographyLikelihood,
    DemographyPooledLikelihood,
)
from repro.likelihood.mutation_models import F84
from repro.sequences.evolve import evolve_sequences
from repro.sequences.phylip import write_phylip
from repro.simulate.coalescent_sim import simulate_genealogy
from repro.simulate.growth_sim import simulate_growth_genealogy, simulate_growth_intervals

TRUE_THETA = 1.0
TRUE_GROWTH = 2.0


def growth_dataset(n_tips=10, n_sites=200, seed=7):
    """One alignment evolved over a genealogy simulated under growth."""
    rng = np.random.default_rng(seed)
    tree = simulate_growth_genealogy(n_tips, TRUE_THETA, TRUE_GROWTH, rng)
    return evolve_sequences(tree, n_sites, F84(), rng, scale=1.0)


def growth_config(**overrides):
    defaults = dict(
        sampler=SamplerConfig(n_proposals=6, n_samples=60, burn_in=20),
        n_em_iterations=2,
        demography="growth",
        growth0=0.0,
    )
    defaults.update(overrides)
    return MPCGSConfig(**defaults)


class TestConfigSerialization:
    def test_constant_vs_growth_round_trip(self):
        constant = MPCGSConfig()
        growth = MPCGSConfig(demography="growth", growth0=1.5)
        assert constant.demography == "constant"
        assert MPCGSConfig.from_dict(constant.to_dict()) == constant
        assert MPCGSConfig.from_dict(growth.to_dict()) == growth
        assert MPCGSConfig.from_json(growth.to_json()) == growth
        assert json.loads(growth.to_json())["demography"] == "growth"

    def test_demography_validation_and_canonicalization(self):
        assert MPCGSConfig(demography="GROWTH").demography == "growth"
        # Since the demography layer, "bottleneck" is a registered model.
        assert MPCGSConfig(demography="bottleneck").demography == "bottleneck"
        with pytest.raises(ValueError, match="demography"):
            MPCGSConfig(demography="piecewise-mystery")

    def test_growth0_requires_growth_demography(self):
        """A stray growth0 under the constant demography is rejected at
        config construction — spec files and the library, not just the CLI."""
        with pytest.raises(ValueError, match="growth0"):
            MPCGSConfig(growth0=2.0)
        assert MPCGSConfig(demography="growth", growth0=2.0).growth0 == 2.0

    def test_legacy_documents_without_demography_still_load(self):
        doc = MPCGSConfig().to_dict()
        del doc["demography"]
        del doc["growth0"]
        cfg = MPCGSConfig.from_dict(doc)
        assert cfg.demography == "constant"
        assert cfg.growth0 == 0.0

    def test_runspec_round_trip_carries_demography(self):
        spec = RunSpec(config=growth_config(), theta0=0.7, seed=3)
        loaded = RunSpec.from_json(spec.to_json())
        assert loaded == spec
        assert loaded.config.demography == "growth"


class TestMaximizeJoint:
    def test_recovers_pooled_simulated_parameters(self):
        rng = np.random.default_rng(3)
        mat = np.vstack(
            [
                simulate_growth_intervals(12, TRUE_THETA, TRUE_GROWTH, rng)
                for _ in range(500)
            ]
        )
        est = maximize_demography(
            DemographyPooledLikelihood(mat, ExponentialDemography()),
            TRUE_THETA / 2.0,
            ExponentialDemography(growth=0.0),
        )
        assert est.converged
        assert est.theta == pytest.approx(TRUE_THETA, rel=0.25)
        assert est.growth == pytest.approx(TRUE_GROWTH, abs=0.75)

    def test_zero_growth_data_estimates_near_zero_growth(self):
        rng = np.random.default_rng(5)
        mat = np.vstack(
            [
                simulate_growth_intervals(12, TRUE_THETA, 0.0, rng)
                for _ in range(500)
            ]
        )
        est = maximize_demography(
            DemographyPooledLikelihood(mat, ExponentialDemography()),
            0.8,
            ExponentialDemography(growth=0.0),
        )
        assert abs(est.growth) < 1.0
        assert est.theta == pytest.approx(TRUE_THETA, rel=0.25)

    def test_trust_region_bounds_one_maximization(self):
        rng = np.random.default_rng(3)
        mat = np.vstack(
            [simulate_growth_intervals(10, 4.0, 0.0, rng) for _ in range(200)]
        )
        cfg = EstimatorConfig(max_theta_step_factor=2.0, max_growth_step=0.5)
        # Truth (theta=4) lies outside the trust region of theta0=1.
        est = maximize_demography(
            DemographyPooledLikelihood(mat, ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=0.0),
            cfg,
        )
        assert est.theta <= 2.0 + 1e-9
        assert abs(est.growth) <= 0.5 + 1e-9

    def test_validation(self):
        mat = np.ones((3, 4))
        with pytest.raises(ValueError):
            maximize_demography(
                DemographyPooledLikelihood(mat, ExponentialDemography()),
                -1.0,
                ExponentialDemography(growth=0.0),
            )
        with pytest.raises(ValueError):
            EstimatorConfig(max_theta_step_factor=1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(max_growth_step=0.0)

    def test_ascent_escapes_the_overflow_cliff(self):
        """Regression: a driving point just below the growth prior's -inf
        cliff made the finite-difference gradient -inf (one probe falls off),
        every halved step stayed infeasible, and the ascent falsely reported
        convergence at the degenerate start.  A region-scale fallback step
        toward the finite side must escape."""
        lik = DemographyPooledLikelihood(np.array([[280.0, 10.0]]), ExponentialDemography())
        est = maximize_demography(lik, 1.0, ExponentialDemography(growth=2.4137))
        # Off the cliff (log-likelihood ~ -1e303 at the start) and into the
        # sane region of the surface.
        assert est.log_relative_likelihood > -1e6
        assert est.growth < 1.0

    def test_degenerate_start_reports_not_converged(self):
        """A -inf surface at the driving point must not claim convergence."""
        est = maximize_demography(
            DemographyPooledLikelihood(np.array([[300.0, 10.0]]), ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=5.0),
        )
        assert not est.converged
        assert est.n_iterations == 0
        assert est.theta == 1.0 and est.growth == 5.0
        assert est.log_relative_likelihood == -np.inf

    def test_overflowing_growth_prior_is_minus_inf_not_uphill(self):
        """Regression: clamping e^{g t} to a finite plateau made the log-prior
        *increase* with g beyond the overflow point (the +g·Σt event term kept
        growing while the exposure term froze), inviting runaway ascent.
        Saturated exposure must drive the log-prior to exactly −inf."""
        from repro.likelihood.growth_prior import log_growth_prior

        intervals = np.array([300.0, 10.0])
        assert log_growth_prior(intervals, 1.0, 5.0) == -np.inf
        # Still -inf (not climbing) as g grows further into the capped regime.
        assert log_growth_prior(intervals, 1.0, 8.0) == -np.inf
        # Finite, sane values below the cap.
        assert np.isfinite(log_growth_prior(intervals, 1.0, 1.0))


class _FlatEngine:
    """Uniform data likelihood: the chain then samples the genealogy prior."""

    n_evaluations = 0

    def evaluate(self, tree):
        self.n_evaluations += 1
        return 0.0

    def evaluate_batch(self, trees):
        self.n_evaluations += len(trees)
        return np.zeros(len(trees))


class TestGrowthTargetedChain:
    def test_flat_likelihood_chain_samples_the_growth_prior(self):
        """With no data signal the adjusted chain must target P(G | θ, g):
        the pooled MLE over its samples recovers the driving pair."""
        seed_tree = simulate_genealogy(10, 1.0, np.random.default_rng(0))
        cfg = SamplerConfig(n_proposals=8, n_samples=2500, burn_in=300, thin=2)
        sampler = MultiProposalSampler(
            _FlatEngine(),
            1.0,
            cfg,
            demography=ExponentialDemography(growth=TRUE_GROWTH),
            importance_correction=True,
        )
        chain = sampler.run(seed_tree, np.random.default_rng(42))
        assert chain.extras["demography"]["params"]["growth"] == TRUE_GROWTH
        assert chain.extras["proposal_kernel"] == "constant+correction"
        est = maximize_demography(
            DemographyPooledLikelihood(chain.interval_matrix, ExponentialDemography()),
            1.0,
            ExponentialDemography(growth=TRUE_GROWTH),
        )
        assert est.theta == pytest.approx(1.0, rel=0.3)
        assert est.growth == pytest.approx(TRUE_GROWTH, abs=0.8)

    def test_constant_chain_records_no_driving_growth(self, small_dataset, rng):
        from repro.likelihood.engines import BatchedEngine
        from repro.likelihood.mutation_models import Felsenstein81
        from repro.genealogy.upgma import upgma_tree

        engine = BatchedEngine(
            alignment=small_dataset.alignment, model=Felsenstein81()
        )
        cfg = SamplerConfig(n_proposals=4, n_samples=20, burn_in=5)
        chain = MultiProposalSampler(engine, 1.0, cfg).run(
            upgma_tree(small_dataset.alignment, 1.0), rng
        )
        assert "driving_growth" not in chain.extras
        assert "demography" not in chain.extras


class TestGrowthEMDriver:
    def test_growth_run_estimates_both_parameters(self):
        alignment = growth_dataset()
        driver = MPCGS(alignment, growth_config())
        result = driver.run(theta0=0.5, rng=np.random.default_rng(1))
        assert result.growth is not None
        assert result.theta > 0
        assert np.isfinite(result.growth)
        assert len(result.growth_trajectory) == len(result.theta_trajectory)
        assert result.growth_trajectory[0] == 0.0
        assert result.growth_trajectory[-1] == result.growth
        # Growth-mode iterations carry joint estimates.
        assert all(hasattr(it.estimate, "growth") for it in result.iterations)

    def test_growth_requires_a_growth_aware_sampler(self):
        alignment = growth_dataset(n_tips=6, n_sites=80)
        config = growth_config(sampler_name="multichain")
        with pytest.raises(ValueError, match="growth-aware"):
            MPCGS(alignment, config).run(theta0=0.5, rng=np.random.default_rng(1))

    def test_lamarc_and_heated_are_growth_aware(self):
        """The demography layer extends growth beyond gmh (ROADMAP item):
        the capability check must accept the corrected baselines."""
        from repro.core.registry import require_demography_support

        for sampler in ("lamarc", "heated"):
            require_demography_support(growth_config(sampler_name=sampler))

    def test_constant_run_has_no_growth(self, small_dataset, rng):
        config = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=10),
            n_em_iterations=2,
        )
        result = MPCGS(small_dataset.alignment, config).run(theta0=0.5, rng=rng)
        assert result.growth is None
        assert np.all(result.growth_trajectory == 0.0)

    def test_constant_path_bit_identical_to_pre_growth_driver(self, monkeypatch):
        """The growth wiring must not perturb the constant-demography chain.

        The expected trajectory was recorded on the pre-growth driver with
        the same dataset, config, and seed; any change to the constant
        path's RNG consumption or arithmetic shows up here.  The reference
        (per-proposal) kernel is the one whose stream matches that driver —
        the batched kernel draws the same distribution but consumes the RNG
        in a different order, so it has its own pinned trajectory below.
        The reference kernel is the test oracle, routed into the GMH
        sampler that ``run_experiment`` builds.
        """
        from reference_kernel import ReferenceResimulator
        from repro.simulate.datasets import synthesize_dataset

        monkeypatch.setattr("repro.core.sampler.NeighborhoodResimulator", ReferenceResimulator)
        dataset = synthesize_dataset(8, 120, 1.0, np.random.default_rng(11))
        config = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=6, n_samples=40, burn_in=10),
            n_em_iterations=3,
        )
        report = run_experiment(dataset.alignment, config, theta0=0.8, seed=5)
        expected = [0.8, 0.49013438982567703, 0.5445355423541716, 0.5210107508882609]
        assert [float(x) for x in report.theta_trajectory] == pytest.approx(
            expected, rel=1e-12
        )

    def test_batched_kernel_fixed_seed_trajectory(self):
        """Pin the default (batched-kernel) fixed-seed trajectory.

        Re-anchored when propose_set became the default proposal path, and
        again when the set became one array program drawing one uniform
        block per set: batched draws consume the PCG64 stream in a different
        order than the sequential reference kernel (same target distribution
        — see the distributional-equivalence tests in test_proposals.py).
        """
        from repro.simulate.datasets import synthesize_dataset

        dataset = synthesize_dataset(8, 120, 1.0, np.random.default_rng(11))
        config = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=6, n_samples=40, burn_in=10),
            n_em_iterations=3,
        )
        report = run_experiment(dataset.alignment, config, theta0=0.8, seed=5)
        expected = [0.8, 0.6171651054373286, 0.6269753547487376, 0.5948507941416658]
        assert [float(x) for x in report.theta_trajectory] == pytest.approx(
            expected, rel=1e-12
        )


class TestMultiLocus:
    def test_combined_likelihood_sums_components(self):
        rng = np.random.default_rng(3)
        mats = [
            np.vstack(
                [simulate_growth_intervals(8, 1.0, 1.0, rng) for _ in range(20)]
            )
            for _ in range(3)
        ]
        parts = [DemographyPooledLikelihood(m, ExponentialDemography()) for m in mats]
        combined = CombinedDemographyLikelihood(parts)
        assert combined.n_loci == 3
        # Pooled components enter as their summed (mean x count) log-likelihood.
        expected = sum(p.n_samples * p.log_likelihood(0.9, [1.2]) for p in parts)
        assert combined.log_likelihood(0.9, [1.2]) == pytest.approx(expected)
        with pytest.raises(ValueError):
            CombinedDemographyLikelihood([])

    def test_combined_pooled_weighting_is_split_invariant(self):
        """Splitting one genealogy pool across components must not change
        the combined likelihood (each observed genealogy keeps equal weight)."""
        rng = np.random.default_rng(11)
        mat = np.vstack(
            [simulate_growth_intervals(8, 1.0, 1.0, rng) for _ in range(30)]
        )
        exponential = ExponentialDemography()
        whole = CombinedDemographyLikelihood([DemographyPooledLikelihood(mat, exponential)])
        split = CombinedDemographyLikelihood(
            [
                DemographyPooledLikelihood(mat[:5], exponential),
                DemographyPooledLikelihood(mat[5:], exponential),
            ]
        )
        assert split.log_likelihood(0.9, [1.2]) == pytest.approx(
            whole.log_likelihood(0.9, [1.2])
        )

    def test_multilocus_run_returns_joint_estimates(self):
        loci = [growth_dataset(n_tips=8, n_sites=100, seed=s) for s in (1, 2)]
        config = growth_config(
            sampler=SamplerConfig(n_proposals=4, n_samples=40, burn_in=10)
        )
        result = run_multilocus(loci, config, theta0=0.5, rng=np.random.default_rng(9))
        assert result.n_loci == 2
        assert result.theta > 0
        assert np.isfinite(result.growth)
        assert result.trajectory[0] == (0.5, 0.0)
        assert result.trajectory[-1] == (result.theta, result.growth)
        assert result.n_iterations == len(result.trajectory) - 1
        assert result.total_samples == 2 * 40 * result.n_iterations
        assert result.total_likelihood_evaluations > 0

    def test_multilocus_validation(self):
        locus = growth_dataset(n_tips=6, n_sites=80)
        with pytest.raises(ValueError, match="alignment"):
            run_multilocus([], growth_config(), theta0=0.5, rng=np.random.default_rng(0))
        incapable = growth_config(sampler_name="multichain")
        with pytest.raises(ValueError, match="demography"):
            run_multilocus([locus], incapable, theta0=0.5, rng=np.random.default_rng(0))


class TestApiAndCli:
    def test_experiment_report_carries_growth(self):
        alignment = growth_dataset(n_tips=8, n_sites=120)
        report = Experiment(
            alignment, growth_config(), theta0=0.5, seed=2
        ).run()
        assert report.growth is not None
        doc = json.loads(report.to_json())
        assert doc["growth"] == report.growth
        assert doc["config"]["demography"] == "growth"
        assert doc["diagnostics"]["demography"] == "growth"
        assert len(doc["diagnostics"]["growth_trajectory"]) == len(
            doc["theta_trajectory"]
        )
        for it in doc["diagnostics"]["iterations"]:
            assert "driving_growth" in it and "growth_estimate" in it

    def test_constant_report_growth_is_none(self, small_dataset):
        config = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=10),
            n_em_iterations=2,
        )
        report = Experiment(small_dataset.alignment, config, theta0=0.5, seed=2).run()
        assert report.growth is None
        doc = report.to_dict()
        assert doc["growth"] is None
        assert "growth_trajectory" not in doc["diagnostics"]

    def test_bayesian_sampler_rejects_growth_demography(self, small_dataset):
        config = growth_config(sampler_name="bayesian")
        with pytest.raises(ValueError, match="bayesian"):
            Experiment(small_dataset.alignment, config, theta0=0.5, seed=2)

    def test_non_growth_aware_sampler_rejected_at_construction(self, small_dataset):
        config = growth_config(sampler_name="multichain")
        with pytest.raises(ValueError, match="growth-aware"):
            Experiment(small_dataset.alignment, config, theta0=0.5, seed=2)

    def test_cli_growth_with_non_growth_sampler_is_a_usage_error(self, tmp_path, capsys):
        alignment = growth_dataset(n_tips=6, n_sites=100)
        path = tmp_path / "growth.phy"
        write_phylip(alignment, path)
        with pytest.raises(SystemExit):
            main(
                [
                    "run",
                    str(path),
                    "0.5",
                    "--demography",
                    "growth",
                    "--sampler",
                    "multichain",
                ]
            )
        err = capsys.readouterr().err
        assert "growth-aware" in err
        assert "error reading" not in err

    def test_cli_bayes_rejects_growth_spec(self, tmp_path, capsys):
        alignment = growth_dataset(n_tips=6, n_sites=100)
        path = tmp_path / "growth.phy"
        spec_path = tmp_path / "spec.json"
        RunSpec(config=growth_config(), sequence_file=str(path)).save(spec_path)
        write_phylip(alignment, path)
        with pytest.raises(SystemExit):
            main(["bayes", "--config", str(spec_path)])
        assert "mpcgs run --demography growth" in capsys.readouterr().err

    def test_cli_growth_run_prints_both_estimates(self, tmp_path, capsys):
        alignment = growth_dataset(n_tips=6, n_sites=100)
        path = tmp_path / "growth.phy"
        write_phylip(alignment, path)
        code = main(
            [
                "run",
                str(path),
                "0.5",
                "--demography",
                "growth",
                "--samples",
                "30",
                "--burn-in",
                "10",
                "--proposals",
                "4",
                "--em-iterations",
                "2",
                "--seed",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "demography=growth" in out
        assert "theta estimate:" in out
        assert "growth estimate:" in out

    def test_cli_growth0_without_growth_demography_is_an_error(self, tmp_path, capsys):
        alignment = growth_dataset(n_tips=6, n_sites=100)
        path = tmp_path / "growth.phy"
        write_phylip(alignment, path)
        with pytest.raises(SystemExit):
            main(["run", str(path), "0.5", "--growth0", "1.5"])
        assert "demography='growth'" in capsys.readouterr().err

    def test_cli_save_config_round_trips_demography(self, tmp_path, capsys):
        alignment = growth_dataset(n_tips=6, n_sites=100)
        path = tmp_path / "growth.phy"
        spec_path = tmp_path / "spec.json"
        write_phylip(alignment, path)
        code = main(
            [
                "run",
                str(path),
                "0.5",
                "--demography",
                "growth",
                "--growth0",
                "0.5",
                "--samples",
                "30",
                "--burn-in",
                "10",
                "--proposals",
                "4",
                "--em-iterations",
                "2",
                "--seed",
                "3",
                "--quiet",
                "--save-config",
                str(spec_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        spec = RunSpec.load(spec_path)
        assert spec.config.demography == "growth"
        assert spec.config.growth0 == 0.5
