"""Units for the fused sparse-batched engine and its supporting plumbing (ISSUE 5).

Value-level equivalence with the other engines lives in
``test_engine_equivalence.py`` and the in-sampler bit-for-bit regressions in
``test_statistical_correctness.py``; this file covers the fused engine's own
mechanics — workspace reuse, counters, the fully-cached fast path, warm-up —
plus the hoisted site data and the registry/driver integration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MPCGSConfig, SamplerConfig
from repro.core.mpcgs import MPCGS
from repro.core.registry import available_engines
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import BatchedEngine, VectorizedEngine
from repro.likelihood.felsenstein import SiteData, batched_log_likelihood
from repro.likelihood.fused import FusedEngine
from repro.likelihood.incremental import CachedEngine
from repro.likelihood.mutation_models import make_model
from repro.proposals.neighborhood import NeighborhoodResimulator
from repro.simulate.coalescent_sim import simulate_genealogy
from repro.simulate.datasets import synthesize_dataset


@pytest.fixture(scope="module")
def instance():
    dataset = synthesize_dataset(8, 90, true_theta=1.0, rng=np.random.default_rng(31))
    model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
    return dataset, model


def _trees(dataset, n, seed):
    rng = np.random.default_rng(seed)
    return [
        simulate_genealogy(
            dataset.alignment.n_sequences, 1.0, rng, tip_names=dataset.alignment.names
        )
        for _ in range(n)
    ]


def _sibling_set(dataset, current, n, seed):
    rng = np.random.default_rng(seed)
    resim = NeighborhoodResimulator(1.0)
    target = resim.choose_target(current, rng)
    return [resim.propose(current, target, rng).tree for _ in range(n)]


class TestFusedEngineMechanics:
    def test_registered_everywhere(self, instance):
        dataset, model = instance
        assert "fused" in available_engines()
        from repro.likelihood.engines import make_engine

        assert isinstance(make_engine("fused", dataset.alignment, model), FusedEngine)

    def test_empty_batch(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        assert engine.evaluate_batch([]).shape == (0,)
        assert engine.n_evaluations == 0

    def test_mismatched_tip_count_raises(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        other = synthesize_dataset(5, 40, true_theta=1.0, rng=np.random.default_rng(1))
        wrong = _trees(other, 1, seed=2)
        with pytest.raises(ValueError, match="tip count"):
            engine.evaluate_batch(wrong)

    def test_workspace_is_reused_across_batches(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=3)[0]
        engine.prepare(current)
        engine.evaluate_batch(_sibling_set(dataset, current, 6, seed=4))
        buffer_before = engine._work
        engine.evaluate_batch(_sibling_set(dataset, current, 6, seed=5))
        # Same preallocated workspace object: no reallocation between
        # same-shaped proposal sets.
        assert engine._work is buffer_before

    def test_workspace_grows_for_larger_batches(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=6)[0]
        engine.prepare(current)
        engine.evaluate_batch(_sibling_set(dataset, current, 2, seed=7))
        small = engine._work.shape[0]
        engine.clear_cache()  # forces full-depth dirty paths on the next batch
        engine.evaluate_batch(_trees(dataset, 12, seed=8))
        assert engine._work.shape[0] >= small

    def test_fully_cached_batch_fast_path(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        tree = _trees(dataset, 1, seed=9)[0]
        first = engine.evaluate(tree)
        pruned_before = engine.n_nodes_pruned
        again = engine.evaluate_batch([tree, tree])
        # No new dirty work, values unchanged, evaluations still counted.
        assert engine.n_nodes_pruned == pruned_before
        assert np.array_equal(again, [first, first])
        assert first == pytest.approx(oracle.evaluate(tree), rel=1e-10)
        assert engine.n_evaluations == 3

    def test_prepare_warms_the_sibling_batch(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=10)[0]
        engine.prepare(current)
        engine.reset_counters()
        siblings = _sibling_set(dataset, current, 8, seed=11)
        engine.evaluate_batch(siblings)
        n_internal = dataset.alignment.n_sequences - 1
        # Warmed frontier: far less than a full re-pruning per sibling.
        assert engine.n_nodes_pruned < len(siblings) * n_internal
        assert 0.0 < engine.workspace_occupancy <= 1.0
        assert engine.n_stacked_steps >= 1

    def test_reset_counters_clears_stacked_counters(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        engine.evaluate_batch(_trees(dataset, 3, seed=12))
        assert engine.n_padded_items > 0
        engine.reset_counters()
        assert engine.n_stacked_steps == 0
        assert engine.n_workspace_items == 0
        assert engine.n_padded_items == 0
        assert engine.workspace_occupancy == 0.0

    def test_intra_batch_signature_overlap_matches_cached_exactly(self, instance):
        """Duplicated candidates in one cold batch: the shared dirty subtree is
        computed once (per-tree fallback), with counters identical to the
        cached engine — the stacked schedule would have double-counted it."""
        dataset, model = instance
        fused = FusedEngine(alignment=dataset.alignment, model=model)
        cached = CachedEngine(alignment=dataset.alignment, model=model)
        tree = _trees(dataset, 1, seed=23)[0]
        batch = [tree.copy(), tree.copy()]
        vf = fused.evaluate_batch(batch)
        vc = cached.evaluate_batch(batch)
        assert np.array_equal(vf, vc)
        assert fused.n_nodes_pruned == cached.n_nodes_pruned
        assert fused.n_tree_site_products == cached.n_tree_site_products
        assert fused.n_cache_hits == cached.n_cache_hits
        assert fused.n_cache_misses == cached.n_cache_misses

    def test_work_accounting_matches_cached(self, instance):
        dataset, model = instance
        fused = FusedEngine(alignment=dataset.alignment, model=model)
        cached = CachedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=13)[0]
        for seed in (14, 15, 16):
            fused.prepare(current)
            cached.prepare(current)
            siblings = _sibling_set(dataset, current, 5, seed=seed)
            fused.evaluate_batch(siblings)
            cached.evaluate_batch(siblings)
            current = siblings[0]
        assert fused.n_nodes_pruned == cached.n_nodes_pruned
        assert fused.n_tree_site_products == cached.n_tree_site_products
        assert fused.n_cache_hits == cached.n_cache_hits
        assert fused.n_cache_misses == cached.n_cache_misses

    def test_eviction_pressure_stays_exact_with_bounded_counter_drift(self, instance):
        """With a tiny LRU cap the two engines' eviction timelines diverge
        (fused refreshes/evicts once per batch, cached once per tree), so
        exact counter parity gives way to a small drift in either direction —
        while the returned values stay exact and the cap is honoured."""
        dataset, model = instance
        fused = FusedEngine(alignment=dataset.alignment, model=model, max_entries=16)
        cached = CachedEngine(alignment=dataset.alignment, model=model, max_entries=16)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=27)[0]
        for seed in range(28, 28 + 8):
            fused.prepare(current)
            cached.prepare(current)
            siblings = _sibling_set(dataset, current, 6, seed=seed)
            vf = fused.evaluate_batch(siblings)
            cached.evaluate_batch(siblings)
            singles = np.array([oracle.evaluate(t) for t in siblings])
            assert np.allclose(vf, singles, rtol=1e-10, atol=1e-9)
            current = siblings[0]
        drift = abs(fused.n_nodes_pruned - cached.n_nodes_pruned)
        assert drift <= 0.1 * cached.n_nodes_pruned
        assert fused.cache_size <= 16
        assert cached.cache_size <= 16

    def test_engine_factory_shares_fused_cache_across_iterations(self, instance):
        dataset, _ = instance
        config = MPCGSConfig(likelihood_engine="fused")
        driver = MPCGS(dataset.alignment, config)
        factory = driver._engine_factory(share_cache=True)
        first, second = factory(), factory()
        assert first is second
        assert isinstance(first, FusedEngine)


class TestSiteDataHoisting:
    def test_site_data_computed_once_per_engine(self, instance):
        dataset, model = instance
        engine = BatchedEngine(alignment=dataset.alignment, model=model)
        assert engine.site_data is engine.site_data
        trees = _trees(dataset, 2, seed=17)
        engine.evaluate_batch(trees)
        engine.evaluate(trees[0])
        assert engine._site_data is engine.site_data

    def test_site_data_matches_alignment(self, instance):
        dataset, _ = instance
        data = SiteData.from_alignment(dataset.alignment)
        patterns, weights = dataset.alignment.site_patterns()
        assert np.array_equal(data.codes, patterns)
        assert np.array_equal(data.weights, weights)
        assert data.tips.shape == (dataset.alignment.n_sequences, data.n_cols, 4)
        assert data.patterned

    def test_unpatterned_site_data(self, instance):
        dataset, model = instance
        data = SiteData.from_alignment(dataset.alignment, use_patterns=False)
        assert not data.patterned
        assert data.n_cols == dataset.alignment.n_sites
        tree = _trees(dataset, 1, seed=18)[0]
        with_patterns = batched_log_likelihood([tree], dataset.alignment, model)
        without = batched_log_likelihood(
            [tree], dataset.alignment, model, use_patterns=False
        )
        assert with_patterns[0] == pytest.approx(without[0], rel=1e-10)

    def test_batched_dedup_preserves_values(self, instance):
        """Unique-branch-length dedup in batched_log_likelihood is value-exact."""
        dataset, model = instance
        trees = _trees(dataset, 4, seed=19)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        batched = batched_log_likelihood(trees, dataset.alignment, model)
        singles = np.array([oracle.evaluate(t) for t in trees])
        assert np.allclose(batched, singles, rtol=1e-10, atol=1e-9)


class TestSamplerIntegration:
    def test_gmh_chain_with_fused_engine_runs(self, instance):
        dataset, model = instance
        from repro.core.sampler import MultiProposalSampler

        engine = FusedEngine(alignment=dataset.alignment, model=model)
        cfg = SamplerConfig(n_proposals=4, n_samples=20, burn_in=5)
        tree = upgma_tree(dataset.alignment, 1.0)
        result = MultiProposalSampler(engine, 1.0, cfg).run(tree, np.random.default_rng(3))
        assert result.n_samples == 20
        # The prepare warm-up makes the per-set dirty work sparse: far fewer
        # node prunings than full batched pruning would have paid.
        full = engine.n_evaluations * (dataset.alignment.n_sequences - 1)
        assert engine.n_nodes_pruned < full
