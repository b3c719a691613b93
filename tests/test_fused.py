"""Units for the fused sparse engine and its supporting plumbing.

Value-level equivalence with the other engines lives in
``test_engine_equivalence.py`` and the in-sampler bit-for-bit regressions in
``test_statistical_correctness.py``; this file covers the fused engine's own
mechanics — the partials arena's lifecycle, its plan against the top-down
walk it replaced, counters, the fully-cached fast path, warm-up — plus the
hoisted site data and the registry/driver integration.
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
        computed once (consecutive batches of one), with counters identical to
        the per-tree cached walk — the stacked schedule would have
        double-counted it."""
        dataset, model = instance
        fused = FusedEngine(alignment=dataset.alignment, model=model)
        cached = FusedEngine(alignment=dataset.alignment, model=model)
        tree = _trees(dataset, 1, seed=23)[0]
        batch = [tree.copy(), tree.copy()]
        vf = fused.evaluate_batch(batch)
        vc = [cached.evaluate(t) for t in batch]
        assert np.array_equal(vf, vc)
        assert fused.n_nodes_pruned == cached.n_nodes_pruned == tree.n_internal
        assert fused.n_tree_site_products == cached.n_tree_site_products
        assert fused.n_cache_hits == cached.n_cache_hits
        assert fused.n_cache_misses == cached.n_cache_misses

    def test_work_accounting_matches_cached(self, instance):
        """Stacked sibling sets do the work of the per-tree cached walk."""
        dataset, model = instance
        fused = FusedEngine(alignment=dataset.alignment, model=model)
        cached = FusedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=13)[0]
        for seed in (14, 15, 16):
            fused.prepare(current)
            cached.prepare(current)
            siblings = _sibling_set(dataset, current, 5, seed=seed)
            fused.evaluate_batch(siblings)
            for tree in siblings:
                cached.evaluate(tree)
            current = siblings[0]
        assert fused.n_nodes_pruned == cached.n_nodes_pruned
        assert fused.n_tree_site_products == cached.n_tree_site_products
        assert fused.n_cache_hits == cached.n_cache_hits
        assert fused.n_cache_misses == cached.n_cache_misses

    def test_engine_factory_shares_fused_cache_across_iterations(self, instance):
        dataset, _ = instance
        config = MPCGSConfig(likelihood_engine="fused")
        driver = MPCGS(dataset.alignment, config)
        factory = driver._engine_factory(share_cache=True)
        first, second = factory(), factory()
        assert first is second
        assert isinstance(first, FusedEngine)


def _walk(tree, sigs, cached):
    """The top-down walk the arena plan replaced: (dirty nodes, cache hits).

    Walks down from the root, stopping at tips and at cached nodes (each
    cached node met is one hit); every node it enters is dirty.
    """
    plan, hits, stack = [], 0, [tree.root]
    while stack:
        node = stack.pop()
        if node < tree.n_tips:
            continue
        if int(sigs[node]) in cached:
            hits += 1
            continue
        plan.append(node)
        stack.extend(int(child) for child in tree.children[node])
    return plan, hits


def _walk_plan(trees, sigs, cached):
    """Dirty signatures and hits of one batch as the walk-based engine planned it:
    every tree against the batch-start cache, or — when two trees share an
    uncached subtree — one tree at a time, each seeing the ones before it."""
    walks = [_walk(tree, s, cached) for tree, s in zip(trees, sigs)]
    dirty = [int(s[node]) for (plan, _), s in zip(walks, sigs) for node in plan]
    if len(set(dirty)) == len(dirty):
        return set(dirty), sum(hits for _, hits in walks)
    seen, total = set(cached), 0
    for tree, s in zip(trees, sigs):
        plan, hits = _walk(tree, s, seen)
        seen |= {int(s[node]) for node in plan}
        total += hits
    return seen - set(cached), total


class WalkCheckedEngine(FusedEngine):
    """Checks every batch's plan against the walk, and the arena's closure."""

    def __post_init__(self):
        super().__post_init__()
        self.children_of = {}  # interior signature -> its children's signatures
        self.n_checked = 0

    def _live(self):
        if not self._ready:
            return set()
        return set(self._sig_of_row[self._sig_of_row >= 0].tolist())

    def _evaluate(self, trees, counted=True):
        generation = self._interner.generation
        sigs = [tree.subtree_signatures(self._interner) for tree in trees]
        before = self._live()
        hits, misses = self.n_cache_hits, self.n_cache_misses
        values = super()._evaluate(trees, counted)
        assert self._interner.generation == generation  # no clear: plan comparable
        dirty, walk_hits = _walk_plan(trees, sigs, before)
        live = self._live()
        assert live == before | dirty and not before & dirty
        assert self.n_cache_hits - hits == walk_hits
        assert self.n_cache_misses - misses == len(dirty)
        for tree, s in zip(trees, sigs):
            for node in range(tree.n_tips, tree.n_nodes):
                self.children_of[int(s[node])] = [int(s[c]) for c in tree.children[node]]
        tips = set(sigs[0][: trees[0].n_tips].tolist())
        for sig in live:
            assert all(c in tips or c in live for c in self.children_of[sig])
        self.n_checked += 1
        return values


class TestArenaPlanMatchesWalk:
    """The arena's gather-based plan equals the top-down walk, batch by batch."""

    @pytest.mark.parametrize("growth", [None, 2.0])
    def test_gmh_chain(self, instance, growth):
        from repro.core.sampler import MultiProposalSampler
        from repro.demography.models import ExponentialDemography

        dataset, model = instance
        engine = WalkCheckedEngine(alignment=dataset.alignment, model=model)
        demography = ExponentialDemography(growth=growth) if growth else None
        cfg = SamplerConfig(n_proposals=4, n_samples=190, burn_in=10, samples_per_set=1)
        start = _trees(dataset, 1, seed=60)[0]
        MultiProposalSampler(engine, 1.0, cfg, demography=demography).run(
            start, np.random.default_rng(61)
        )
        assert engine.n_checked >= 2 * 200  # prepare plus the set, per set

    def test_stacked_multichain(self, instance):
        from repro.parallel.stacked import StackedMultiChain

        dataset, model = instance
        engine = WalkCheckedEngine(alignment=dataset.alignment, model=model)
        cfg = SamplerConfig(n_proposals=1, n_samples=240, burn_in=40)
        start = _trees(dataset, 1, seed=62)[0]
        StackedMultiChain(lambda: engine, 1.0, 4, cfg).run(start, np.random.default_rng(63))
        assert engine.n_checked >= 60  # one round of K = 4 chains per batch


class TestArenaLifecycle:
    def test_freed_rows_are_reused_so_capacity_stays_bounded(self, instance):
        dataset, model = instance
        n_proposals = 6
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        rng = np.random.default_rng(50)
        current = _trees(dataset, 1, seed=49)[0]
        bound = current.n_internal * (1 + n_proposals)
        capacities = []
        for _ in range(100):
            engine.prepare(current)
            assert engine.cache_size == current.n_internal
            target = resim.choose_target(current, rng)
            outcomes = resim.propose_set(current, target, n_proposals, rng)
            candidates = [current] + [o.tree for o in outcomes]
            engine.evaluate_batch(candidates)
            assert engine.cache_size <= bound
            capacities.append(engine._arena.shape[0])
            current = candidates[int(rng.integers(len(candidates)))]
        # Geometric growth up to the working set, then freed rows serve
        # every later set: a handful of regrowths, however long the chain.
        assert len(set(capacities)) <= 2
        assert capacities[-1] <= 2 * (current.n_tips + bound)
        assert engine.n_workspace_items > 10 * capacities[-1]

    def test_interrupted_sweep_leaves_no_unwritten_rows(self, instance, monkeypatch):
        import repro.likelihood.fused as fused_module

        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        tree = _trees(dataset, 1, seed=70)[0]

        def interrupted(xp, vec):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(fused_module, "_state_peak", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            engine.evaluate(tree)
        monkeypatch.undo()
        assert engine.cache_size == 0
        assert engine.evaluate(tree) == pytest.approx(oracle.evaluate(tree), rel=1e-10)

    def test_max_entries_cap_clears_the_arena_and_stays_exact(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model, max_entries=16)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=27)[0]
        clears = 0
        for seed in range(28, 28 + 8):
            generation = engine._interner.generation
            engine.prepare(current)
            siblings = _sibling_set(dataset, current, 6, seed=seed)
            items = engine.n_workspace_items
            values = engine.evaluate_batch(siblings)
            singles = np.array([oracle.evaluate(t) for t in siblings])
            assert np.allclose(values, singles, rtol=1e-10, atol=1e-9)
            assert engine.cache_size <= 16 + engine.n_workspace_items - items
            clears += engine._interner.generation != generation
            current = siblings[0]
        assert clears > 0  # the cap did bind


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
