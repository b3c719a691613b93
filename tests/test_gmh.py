"""Tests for the Generalized Metropolis-Hastings machinery (Section 4.1, 4.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.rng_registry import named_stream
from repro.core.gmh import GeneralizedMetropolisHastings, ProposalSet
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import BatchedEngine
from repro.proposals.neighborhood import NeighborhoodResimulator


@pytest.fixture
def gmh(small_dataset, uniform_model):
    engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
    return GeneralizedMetropolisHastings(
        engine=engine,
        resimulator=NeighborhoodResimulator(1.0),
        n_proposals=6,
    )


@pytest.fixture
def seed_tree(small_dataset):
    return upgma_tree(small_dataset.alignment, driving_theta=1.0)


class TestProposalSet:
    def test_set_size_and_generator_position(self, gmh, seed_tree, rng):
        pset = gmh.build_proposal_set(seed_tree, None, rng)
        assert pset.size == 7  # N proposals + the current state
        assert pset.generator_index == 6
        assert pset.trees[pset.generator_index] is seed_tree

    def test_weights_normalized_and_proportional_to_likelihood(self, gmh, seed_tree, rng):
        pset = gmh.build_proposal_set(seed_tree, None, rng)
        probs = np.exp(pset.log_weights)
        assert probs.sum() == pytest.approx(1.0)
        # Weights must be a monotone transform of the data likelihoods (Eq. 31).
        order_w = np.argsort(pset.log_weights)
        order_l = np.argsort(pset.log_data_likelihoods)
        assert np.array_equal(order_w, order_l)

    def test_supplied_current_likelihood_is_reused(self, gmh, seed_tree, rng):
        current_ll = gmh.engine.evaluate(seed_tree)
        gmh.engine.reset_counters()
        pset = gmh.build_proposal_set(seed_tree, current_ll, rng)
        # Only the N proposals should have been evaluated, not the generator.
        assert gmh.engine.n_evaluations == gmh.n_proposals
        assert pset.log_data_likelihoods[pset.generator_index] == pytest.approx(current_ll)

    def test_all_proposals_share_the_target_neighbourhood(self, gmh, seed_tree, rng):
        pset = gmh.build_proposal_set(seed_tree, None, rng)
        target, parent = pset.target, int(seed_tree.parent[pset.target])
        for tree in pset.trees[:-1]:
            for node in seed_tree.internal_nodes():
                if node not in (target, parent):
                    assert tree.times[node] == pytest.approx(seed_tree.times[node])

    def test_explicit_target_respected(self, gmh, seed_tree, rng):
        from repro.proposals.neighborhood import eligible_targets

        target = int(eligible_targets(seed_tree)[0])
        pset = gmh.build_proposal_set(seed_tree, None, rng, target=target)
        assert pset.target == target


class TestIndexSampling:
    def test_sample_index_distribution_matches_weights(self, rng):
        logw = np.log(np.array([0.7, 0.2, 0.1]))
        pset = ProposalSet(
            trees=(None, None, None),  # type: ignore[arg-type]
            log_data_likelihoods=logw.copy(),
            log_weights=logw,
            target=0,
            generator_index=2,
        )
        draws = np.array([pset.sample_index(rng) for _ in range(6000)])
        freqs = np.bincount(draws, minlength=3) / draws.size
        assert np.allclose(freqs, [0.7, 0.2, 0.1], atol=0.03)

    def test_cumulative_weights_computed_once_and_reused(self, rng):
        logw = np.log(np.array([0.5, 0.3, 0.2]))
        pset = ProposalSet(
            trees=(None, None, None),  # type: ignore[arg-type]
            log_data_likelihoods=logw.copy(),
            log_weights=logw,
            target=0,
            generator_index=2,
        )
        first = pset.cumulative_weights
        pset.sample_index(rng)
        assert pset.cumulative_weights is first  # cached, not recomputed per draw
        assert first[-1] == pytest.approx(1.0)
        assert np.all(np.diff(first) >= 0)

    def test_all_minus_inf_weights_raise_a_clear_error(self, rng):
        """Regression: an all-(-inf) weight set used to cascade NaNs silently."""
        logw = np.full(3, -np.inf)
        pset = ProposalSet(
            trees=(None, None, None),  # type: ignore[arg-type]
            log_data_likelihoods=logw.copy(),
            log_weights=logw,
            target=0,
            generator_index=2,
        )
        with pytest.raises(ValueError, match="log-weights"):
            pset.sample_index(rng)

    def test_degenerate_weights_always_pick_the_peak(self, rng):
        logw = np.array([0.0, -500.0, -500.0])
        logw = logw - np.log(np.sum(np.exp(logw - logw.max()))) - logw.max()
        pset = ProposalSet(
            trees=(None, None, None),  # type: ignore[arg-type]
            log_data_likelihoods=logw.copy(),
            log_weights=np.log(np.array([1.0, 1e-300, 1e-300])),
            target=0,
            generator_index=0,
        )
        assert all(pset.sample_index(rng) == 0 for _ in range(50))


class TestPriorAdjustment:
    def test_adjustment_shifts_the_index_weights(
        self, small_dataset, uniform_model, seed_tree, rng
    ):
        """The hook adds a per-candidate log-term on top of the data likelihood."""
        engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        plain = GeneralizedMetropolisHastings(
            engine=engine, resimulator=NeighborhoodResimulator(1.0), n_proposals=4
        )
        # Penalize tall genealogies: candidates are re-weighted, data
        # likelihoods are untouched.  The hook receives the whole batch.
        adjusted = GeneralizedMetropolisHastings(
            engine=engine,
            resimulator=NeighborhoodResimulator(1.0),
            n_proposals=4,
            log_prior_adjustment=lambda trees: -5.0
            * np.array([t.tree_height() for t in trees]),
        )
        pset_adj = adjusted.build_proposal_set(seed_tree, None, np.random.default_rng(3))
        pset_ref = plain.build_proposal_set(seed_tree, None, np.random.default_rng(3))
        assert np.allclose(pset_adj.log_data_likelihoods, pset_ref.log_data_likelihoods)
        heights = np.array([t.tree_height() for t in pset_adj.trees])
        scores = pset_adj.log_data_likelihoods - 5.0 * heights
        expected = scores - np.log(np.sum(np.exp(scores - scores.max()))) - scores.max()
        assert np.allclose(pset_adj.log_weights, expected)

    def test_no_adjustment_matches_pure_likelihood_weights(
        self, small_dataset, uniform_model, seed_tree
    ):
        engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        gmh = GeneralizedMetropolisHastings(
            engine=engine, resimulator=NeighborhoodResimulator(1.0), n_proposals=4
        )
        pset = gmh.build_proposal_set(seed_tree, None, np.random.default_rng(3))
        ll = pset.log_data_likelihoods
        expected = ll - np.log(np.sum(np.exp(ll - ll.max()))) - ll.max()
        assert np.allclose(pset.log_weights, expected)


class TestIterate:
    def test_iterate_returns_requested_draws(self, gmh, seed_tree, rng):
        pset, draws = gmh.iterate(seed_tree, None, 5, rng)
        assert len(draws) == 5
        assert all(0 <= d < pset.size for d in draws)

    def test_iterate_rejects_zero_draws(self, gmh, seed_tree, rng):
        with pytest.raises(ValueError):
            gmh.iterate(seed_tree, None, 0, rng)

    def test_n_proposals_validation(self, gmh):
        with pytest.raises(ValueError):
            GeneralizedMetropolisHastings(
                engine=gmh.engine, resimulator=gmh.resimulator, n_proposals=0
            )

    def test_single_proposal_reduces_to_two_candidates(self, small_dataset, uniform_model, seed_tree, rng):
        engine = BatchedEngine(alignment=small_dataset.alignment, model=uniform_model)
        single = GeneralizedMetropolisHastings(
            engine=engine, resimulator=NeighborhoodResimulator(1.0), n_proposals=1
        )
        pset, _ = single.iterate(seed_tree, None, 1, rng)
        assert pset.size == 2


class TestBlockIndexDraws:
    """A set's ``n_draws`` indices come from one ``rng.random(n_draws)`` block."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("set_size", [2, 5, 17])
    @pytest.mark.parametrize("n_draws", [1, 3, 16])
    @pytest.mark.parametrize("stream", ["pcg64", "philox"])
    def test_block_draws_equal_the_per_draw_loop(self, seed, set_size, n_draws, stream):
        def make_rng():
            if stream == "pcg64":
                return np.random.default_rng(seed)
            return named_stream(seed, "gmh", "index")

        logw = np.random.default_rng(seed + 100).normal(scale=3.0, size=set_size)
        logw -= np.log(np.exp(logw).sum())
        pset = ProposalSet(
            trees=(None,) * set_size,  # type: ignore[arg-type]
            log_data_likelihoods=logw.copy(),
            log_weights=logw,
            target=0,
            generator_index=set_size - 1,
        )
        block_rng, loop_rng = make_rng(), make_rng()
        block = pset.sample_indices(block_rng, n_draws)
        # The per-draw loop ``iterate`` ran before: one scalar uniform each.
        cum = pset.cumulative_weights
        loop = [
            int(np.searchsorted(cum, loop_rng.random(), side="right").clip(0, set_size - 1))
            for _ in range(n_draws)
        ]
        assert block == loop
        assert all(type(i) is int for i in block)
        # Both generators end in the same state.
        assert block_rng.random() == loop_rng.random()
