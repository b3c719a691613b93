"""Tests for the top-level MPCGS driver (the Fig. 11 program flow)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import MPCGSConfig, SamplerConfig
from repro.core.mpcgs import MPCGS


@pytest.fixture
def quick_config():
    return MPCGSConfig(
        sampler=SamplerConfig(n_proposals=6, n_samples=60, burn_in=20),
        n_em_iterations=3,
    )


class TestConfig:
    def test_defaults(self):
        cfg = MPCGSConfig()
        assert cfg.likelihood_engine == "fused"
        assert cfg.n_em_iterations >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MPCGSConfig(n_em_iterations=0)
        with pytest.raises(ValueError):
            MPCGSConfig(theta_convergence_tol=0.0)


class TestDriver:
    def test_initial_tree_is_valid_and_scaled(self, small_dataset):
        driver = MPCGS(small_dataset.alignment)
        small = driver.initial_tree(0.2)
        large = driver.initial_tree(2.0)
        small.validate()
        large.validate()
        assert large.tree_height() == pytest.approx(10.0 * small.tree_height())

    def test_run_produces_positive_theta_and_history(self, small_dataset, quick_config, rng):
        driver = MPCGS(small_dataset.alignment, quick_config)
        result = driver.run(theta0=0.3, rng=rng)
        assert result.theta > 0
        assert 1 <= len(result.iterations) <= quick_config.n_em_iterations
        assert result.theta_trajectory[0] == pytest.approx(0.3)
        assert result.theta_trajectory[-1] == pytest.approx(result.theta)
        assert result.total_samples == sum(it.chain.n_samples for it in result.iterations)
        assert result.total_likelihood_evaluations > 0
        assert result.wall_time_seconds > 0

    def test_em_iterations_improve_towards_truth(self, small_dataset, quick_config, rng):
        """Starting from a driving value far below the truth, successive EM
        iterations must move the estimate upward (the likelihood-curve
        mechanism of Fig. 5)."""
        driver = MPCGS(small_dataset.alignment, quick_config)
        result = driver.run(theta0=0.05, rng=rng)
        trajectory = result.theta_trajectory
        assert trajectory[-1] > trajectory[0]
        assert trajectory[1] > trajectory[0]

    def test_invalid_theta0(self, small_dataset, quick_config, rng):
        driver = MPCGS(small_dataset.alignment, quick_config)
        with pytest.raises(ValueError):
            driver.run(theta0=0.0, rng=rng)

    def test_explicit_initial_tree_used(self, small_dataset, quick_config, rng):
        from repro.simulate.coalescent_sim import simulate_genealogy

        driver = MPCGS(small_dataset.alignment, quick_config)
        tree = simulate_genealogy(
            small_dataset.alignment.n_sequences, 1.0, rng, tip_names=small_dataset.alignment.names
        )
        result = driver.run(theta0=0.5, rng=rng, initial_tree=tree)
        assert result.theta > 0

    def test_serial_engine_configuration(self, small_dataset, rng):
        cfg = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=2, n_samples=10, burn_in=2),
            n_em_iterations=1,
            likelihood_engine="vectorized",
        )
        result = MPCGS(small_dataset.alignment, cfg).run(theta0=0.5, rng=rng)
        assert result.theta > 0


class TestSamplerFactory:
    """The driver builds the sampler the config names, once per EM iteration."""

    def test_explicit_sampler_factory_is_used(self, small_dataset, quick_config, rng):
        from repro.baselines.lamarc import LamarcSampler

        config = replace(quick_config, sampler_name="lamarc")
        driver = MPCGS(small_dataset.alignment, config)
        built = []
        build = driver.demography_iteration_sampler

        def recording_build(*args, **kwargs):
            sampler = build(*args, **kwargs)
            built.append(sampler)
            return sampler

        driver.demography_iteration_sampler = recording_build
        result = driver.run(theta0=0.5, rng=rng)
        assert result.theta > 0
        assert built and all(isinstance(s, LamarcSampler) for s in built)
        # Each EM iteration builds a fresh sampler at the current driving theta.
        assert len(built) == len(result.iterations)
        assert [s.theta for s in built] == [it.driving_theta for it in result.iterations]
        assert built[0].theta == 0.5

    def test_config_sampler_name_selects_the_chain(self, small_dataset, rng):
        config = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=2, n_samples=30, burn_in=10),
            n_em_iterations=2,
            sampler_name="multichain",
            sampler_options={"n_chains": 2},
        )
        result = MPCGS(small_dataset.alignment, config).run(theta0=0.5, rng=rng)
        assert result.theta > 0
        assert result.iterations[0].chain.extras["n_chains"] == 2

    def test_reseed_tree_handles_tied_interior_times(self):
        """Regression: argsort on tied times could rank a parent before its child.

        Floating-point collapse in the proposal rebuild can leave a parent
        and child at exactly the same time.  The old time-argsort reseed
        then assigned the parent the smaller cumsum time (argsort ties break
        by index, and the parent's index can be lower), so ``validate``
        raised mid-EM.  The topological reseed must retime such a tree
        into a valid genealogy.
        """
        from repro.diagnostics.traces import ChainResult, ChainTrace
        from repro.genealogy.tree import Genealogy

        # Node 4 is the *parent* of node 5 yet shares its time (the
        # collapsed state) and has the smaller index: a plain time sort
        # ranks 4 first and retimes it younger than its child.
        tied = Genealogy(
            times=np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5, 1.0]),
            parent=np.array([5, 5, 4, 6, 6, 4, -1]),
            children=np.array(
                [[-1, -1], [-1, -1], [-1, -1], [-1, -1], [5, 2], [0, 1], [4, 3]]
            ),
        )
        trace = ChainTrace(n_intervals=3)
        trace.record(np.array([0.2, 0.3, 0.4]), log_likelihood=-1.0, height=0.9)
        chain = ChainResult(trace=trace, driving_theta=1.0)

        reseeded = MPCGS._reseed_tree(tied, chain)
        reseeded.validate()  # would raise under the argsort reseed
        # Child node 5 must end up strictly younger than its parent node 4.
        assert reseeded.times[5] < reseeded.times[4]
        assert reseeded.times[6] == pytest.approx(0.9)

    def test_reseed_tree_handles_zero_length_recorded_interval(self, small_dataset):
        """A degenerate sample row (zero-length interval) must not abort EM:
        tied cumsum times are nudged strictly increasing before assignment."""
        from repro.diagnostics.traces import ChainResult, ChainTrace
        from repro.genealogy.upgma import upgma_tree

        tree = upgma_tree(small_dataset.alignment, driving_theta=1.0)
        n_intervals = tree.n_tips - 1
        intervals = np.full(n_intervals, 0.1)
        intervals[1] = 0.0  # collapsed event
        trace = ChainTrace(n_intervals=n_intervals)
        trace.record(intervals, log_likelihood=-1.0, height=float(intervals.sum()))
        chain = ChainResult(trace=trace, driving_theta=1.0)

        reseeded = MPCGS._reseed_tree(tree, chain)
        reseeded.validate()  # strictly increasing times despite the tie

    def test_reseed_tree_preserves_event_order_without_ties(self, small_dataset):
        """With distinct times the topological reseed equals the old time sort."""
        from repro.diagnostics.traces import ChainResult, ChainTrace
        from repro.genealogy.upgma import upgma_tree

        tree = upgma_tree(small_dataset.alignment, driving_theta=1.0)
        n_intervals = tree.n_tips - 1
        trace = ChainTrace(n_intervals=n_intervals)
        intervals = np.linspace(0.1, 0.4, n_intervals)
        trace.record(intervals, log_likelihood=-1.0, height=float(intervals.sum()))
        chain = ChainResult(trace=trace, driving_theta=1.0)

        reseeded = MPCGS._reseed_tree(tree, chain)
        reseeded.validate()
        # The ranking of interior nodes by time is unchanged; only the times move.
        old_order = np.argsort(tree.times[tree.n_tips :], kind="stable")
        new_order = np.argsort(reseeded.times[tree.n_tips :], kind="stable")
        assert np.array_equal(old_order, new_order)
        assert reseeded.times[tree.n_tips :].max() == pytest.approx(intervals.sum())
