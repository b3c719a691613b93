"""Tests for incremental partial-likelihood caching.

Covers the subtree-signature reference walk and the arena rows a proposal
inherits, both exposed by :mod:`repro.genealogy.tree`; the cache behaviour
and work counters of the sparse :class:`~repro.likelihood.fused.FusedEngine`
when it is fed one tree at a time (the per-tree cached walk); and the
proposal-set reuse threaded through the GMH transition and the EM driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MPCGSConfig, SamplerConfig
from repro.core.gmh import GeneralizedMetropolisHastings
from repro.core.mpcgs import MPCGS
from repro.genealogy.tree import ArenaRows, Genealogy
from repro.likelihood.engines import BatchedEngine
from repro.likelihood.fused import FusedEngine
from repro.likelihood.mutation_models import Felsenstein81
from repro.proposals.neighborhood import NeighborhoodResimulator
from repro.simulate.coalescent_sim import simulate_genealogy


@pytest.fixture
def model(small_dataset):
    return Felsenstein81(small_dataset.alignment.base_frequencies(pseudocount=1.0))


@pytest.fixture
def tree(rng, small_dataset):
    return simulate_genealogy(8, 1.0, rng, tip_names=small_dataset.alignment.names)


class TestSubtreeSignatures:
    def test_identical_trees_share_all_signatures(self, tree):
        table = {}
        a = tree.subtree_signatures(table)
        b = tree.copy().subtree_signatures(table)
        assert np.array_equal(a, b)

    def test_signatures_are_per_node_unique_within_a_tree(self, tree):
        sigs = tree.subtree_signatures()
        assert len(set(sigs.tolist())) == tree.n_nodes

    def test_branch_length_change_flips_path_to_root(self, tree):
        edited = tree.copy()
        node = int(edited.internal_nodes()[0])
        # Stay strictly between the node's children and its parent.
        edited.times[node] += 1e-6
        edited.validate()
        dirty = edited.dirty_nodes(tree)
        assert node in dirty
        assert edited.root in dirty
        # Everything dirty must be the edited node or one of its ancestors.
        ancestors = {node}
        walk = node
        while edited.parent[walk] >= 0:
            walk = int(edited.parent[walk])
            ancestors.add(walk)
        assert set(dirty.tolist()) <= ancestors

    def test_proposal_dirty_set_is_region_plus_ancestors(self, tree, rng):
        resim = NeighborhoodResimulator(1.0)
        outcome = resim.propose_random(tree, rng)
        dirty = set(outcome.tree.dirty_nodes(tree).tolist())
        assert outcome.region.target in dirty or outcome.region.parent in dirty
        for node in dirty:
            assert not outcome.tree.is_tip(node)

    def test_interner_is_exact_not_hash_based(self):
        t1 = Genealogy.from_times_and_topology([(0, 1), (2, 3), (4, 5)], [0.1, 0.2, 0.5])
        # A representable perturbation (well above ulp(0.2)) is a new key.
        t2 = Genealogy.from_times_and_topology([(0, 1), (2, 3), (4, 5)], [0.1, 0.2 + 1e-12, 0.5])
        table = {}
        a = t1.subtree_signatures(table)
        b = t2.subtree_signatures(table)
        assert np.array_equal(a[:5], b[:5])  # the tips and the untouched cherry
        assert a[5] != b[5] and a[6] != b[6]
        assert len(table) == t1.n_nodes + 2

    def test_child_order_is_canonicalized(self):
        # Same subtree built with swapped merge argument order must intern equal.
        t1 = Genealogy.from_times_and_topology([(0, 1), (2, 3), (4, 5)], [0.1, 0.2, 0.5])
        t2 = Genealogy.from_times_and_topology([(1, 0), (3, 2), (5, 4)], [0.1, 0.2, 0.5])
        table = {}
        assert np.array_equal(t1.subtree_signatures(table), t2.subtree_signatures(table))

    @pytest.mark.parametrize("batch_proposals", [True, False])
    @pytest.mark.parametrize("growth", [None, 5.0])
    def test_derived_signatures_match_the_full_walk(self, batch_proposals, growth):
        """Proposals inherit their generator's rows except at the nodes they
        rewrote; those must be exactly the nodes the signature walk finds
        dirty, across bounded and root-level regions and both kernels.  A
        generator without rows (every 25th) hands none on."""
        from repro.demography import make_demography

        demography = make_demography("exponential", {"growth": growth}) if growth else None
        resim = NeighborhoodResimulator(
            1.0, demography=demography, batch_proposals=batch_proposals
        )
        rng = np.random.default_rng(12)
        current = simulate_genealogy(10, 1.0, rng)
        derived = 0
        for step in range(60):
            bare = step % 25 == 24
            if not bare:
                current.arena_rows = ArenaRows(
                    None,
                    current._structure_key(),
                    np.arange(current.n_nodes),
                    np.zeros(current.n_nodes, dtype=np.int64),
                )
            target = resim.choose_target(current, rng)
            outcomes = resim.propose_set(current, target, 4, rng)
            for outcome in outcomes:
                record = outcome.tree.arena_rows
                if bare:
                    assert record is None
                    continue
                assert record.key == outcome.tree._structure_key()
                rows = record.rows
                kept = rows >= 0
                assert np.array_equal(rows[kept], np.flatnonzero(kept))
                assert np.array_equal(np.flatnonzero(~kept), outcome.tree.dirty_nodes(current))
                derived += 1
            current = outcomes[step % 4].tree.copy()
        assert derived == 58 * 4


class TestCachedEngineBehaviour:
    """The engine's cache, driven one tree at a time through ``evaluate``."""

    def test_second_evaluation_is_all_hits(self, small_dataset, model, tree):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        engine.evaluate(tree)
        pruned_first = engine.n_nodes_pruned
        assert pruned_first == tree.n_internal
        value = engine.evaluate(tree)
        assert engine.n_nodes_pruned == pruned_first  # zero fresh work
        assert engine.n_evaluations == 2
        assert np.isfinite(value)

    def test_sibling_proposals_reuse_shared_subtrees(self, small_dataset, model, tree, rng):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        engine.evaluate(tree)
        target = resim.choose_target(tree, rng)
        siblings = [resim.propose(tree, target, rng).tree for _ in range(6)]
        before = engine.n_nodes_pruned
        engine.evaluate_batch(siblings)
        fresh = engine.n_nodes_pruned - before
        # Each sibling re-prunes strictly less than a full tree.
        assert fresh < len(siblings) * tree.n_internal

    def test_strictly_fewer_site_products_than_batched_on_local_moves(
        self, small_dataset, model, tree, rng
    ):
        cached = FusedEngine(alignment=small_dataset.alignment, model=model)
        batched = BatchedEngine(alignment=small_dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        current = tree
        for engine in (cached, batched):
            engine.evaluate(current)
        for _ in range(20):
            current = resim.propose_random(current, rng).tree
            cached.evaluate(current)
            batched.evaluate(current)
        assert cached.n_tree_site_products < batched.n_tree_site_products
        assert cached.n_nodes_pruned < batched.n_nodes_pruned
        assert cached.n_evaluations == batched.n_evaluations

    def test_counters_monotone_and_reset(self, small_dataset, model, tree, rng):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        current = tree
        snapshots = []
        for _ in range(10):
            engine.evaluate(current)
            snapshots.append(
                (engine.n_evaluations, engine.n_nodes_pruned, engine.n_tree_site_products)
            )
            current = resim.propose_random(current, rng).tree
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert all(b >= a for a, b in zip(earlier, later))
        engine.evaluate(current)  # warm the final state before resetting
        engine.reset_counters()
        assert engine.n_evaluations == 0
        assert engine.n_nodes_pruned == 0
        assert engine.n_tree_site_products == 0
        assert engine.n_cache_hits == 0 and engine.n_cache_misses == 0
        assert engine.hit_rate == 0.0
        # Counter reset must not wipe the cache: re-evaluating is free.
        engine.evaluate(current)
        assert engine.n_nodes_pruned == 0

    def test_clear_cache_forces_full_recompute(self, small_dataset, model, tree):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        first = engine.evaluate(tree)
        engine.clear_cache()
        assert engine.cache_size == 0
        again = engine.evaluate(tree)
        assert again == first
        assert engine.n_nodes_pruned == 2 * tree.n_internal

    def test_hit_rate_and_cache_size_reporting(self, small_dataset, model, tree):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        assert engine.hit_rate == 0.0
        engine.evaluate(tree)
        engine.evaluate(tree)
        assert 0.0 < engine.hit_rate <= 0.5
        assert engine.cache_size == tree.n_internal

    def test_mismatched_tip_count_raises(self, small_dataset, model, rng):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        wrong = simulate_genealogy(5, 1.0, rng)
        with pytest.raises(ValueError, match="tip count"):
            engine.evaluate(wrong)

    def test_max_entries_validation(self, small_dataset, model):
        with pytest.raises(ValueError, match="max_entries"):
            FusedEngine(alignment=small_dataset.alignment, model=model, max_entries=2)

    def test_empty_batch(self, small_dataset, model):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        assert engine.evaluate_batch([]).size == 0
        assert engine.n_evaluations == 0

    def test_fractional_site_products_never_stuck_at_zero(self, small_dataset, model, rng):
        """Tiny per-call fractions must accumulate, not round away (carry)."""
        from repro.sequences.alignment import Alignment

        # 10 sites, 8 tips: one dirty node contributes 10/7 < 2 per call.
        tiny = Alignment.from_codes(
            small_dataset.alignment.names, small_dataset.alignment.codes[:, :10]
        )
        engine = FusedEngine(alignment=tiny, model=model)
        tree = simulate_genealogy(8, 1.0, rng, tip_names=tiny.names)
        resim = NeighborhoodResimulator(1.0)
        engine.evaluate(tree)
        engine.reset_counters()
        current = tree
        for _ in range(30):
            current = resim.propose_random(current, rng).tree
            engine.evaluate(current)
        expected = tiny.n_sites * engine.n_nodes_pruned / tree.n_internal
        assert engine.n_tree_site_products > 0
        assert engine.n_tree_site_products == pytest.approx(expected, abs=1.0)

    def test_default_cache_cap_derived_from_byte_budget(self, small_dataset, model, tree):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        assert engine.max_entries is None
        engine.evaluate(tree)  # _ensure_ready resolves the cap
        n_patterns = small_dataset.alignment.site_patterns()[0].shape[1]
        expected = max(1024, FusedEngine.DEFAULT_CACHE_BYTES // (40 * n_patterns))
        assert engine.max_entries == expected


class TestProposalSetReuse:
    def test_gmh_prepare_warms_generator_partials(self, small_dataset, model, tree, rng):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        gmh = GeneralizedMetropolisHastings(
            engine=engine, resimulator=NeighborhoodResimulator(1.0), n_proposals=4
        )
        # Pass a known log-likelihood so the generator itself is never
        # evaluated; prepare() must still have cached its subtrees.
        loglik = engine.evaluate(tree)
        engine.clear_cache()
        proposal_set = gmh.build_proposal_set(tree, loglik, rng)
        assert proposal_set.size == 5
        # The generator's entries were warmed: re-evaluating it is free.
        pruned = engine.n_nodes_pruned
        assert engine.evaluate(tree) == loglik
        assert engine.n_nodes_pruned == pruned

    def test_prepare_cuts_the_cache_to_the_generator(self, small_dataset, model, tree, rng):
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        engine.prepare(tree)
        assert engine.cache_size == tree.n_internal
        siblings = resim.propose_set(tree, resim.choose_target(tree, rng), 6, rng)
        engine.evaluate_batch([o.tree for o in siblings])
        assert engine.cache_size > tree.n_internal
        chosen = siblings[2].tree
        engine.prepare(chosen)
        assert engine.cache_size == chosen.n_internal
        # The kept entries are exactly the chosen state's: re-evaluating it
        # is free.
        pruned = engine.n_nodes_pruned
        engine.evaluate(chosen)
        assert engine.n_nodes_pruned == pruned

    @pytest.mark.parametrize("engine_cls", ["cached", "fused"])
    def test_working_set_does_the_work_of_an_unbounded_cache(
        self, small_dataset, model, engine_cls
    ):
        """A GMH chain on the working-set cache prunes exactly the nodes, and
        visits exactly the states, of the same chain on a cache that never
        drops anything — while holding a fraction of the entries.  ``cached``
        is the per-tree walk: the engine fed each proposal set one tree at a
        time."""
        from repro.core.sampler import MultiProposalSampler

        class PerTree(FusedEngine):
            def evaluate_batch(self, trees):
                return np.array([self.evaluate(tree) for tree in trees])

        base = PerTree if engine_cls == "cached" else FusedEngine

        class KeepEverything(base):
            def retain(self, trees):
                pass

        cfg = SamplerConfig(n_proposals=6, n_samples=120, burn_in=20)
        start = simulate_genealogy(
            8, 1.0, np.random.default_rng(2), tip_names=small_dataset.alignment.names
        )
        engines, chains = [], []
        for cls in (base, KeepEverything):
            engine = cls(alignment=small_dataset.alignment, model=model)
            chains.append(
                MultiProposalSampler(engine, 1.0, cfg).run(start, np.random.default_rng(9))
            )
            engines.append(engine)
        working, unbounded = engines
        assert np.array_equal(chains[0].trace.heights, chains[1].trace.heights)
        assert working.n_nodes_pruned == unbounded.n_nodes_pruned
        assert working.n_cache_hits == unbounded.n_cache_hits
        assert working.cache_size <= start.n_internal * (1 + cfg.n_proposals)
        assert unbounded.cache_size > 2 * working.cache_size

    @pytest.mark.parametrize("sampler", ["lamarc", "heated", "stacked"])
    def test_single_proposal_samplers_keep_a_working_set(self, small_dataset, model, sampler):
        from repro.baselines.heated import HeatedChainSampler
        from repro.baselines.lamarc import LamarcSampler
        from repro.parallel.stacked import StackedMultiChain

        cfg = SamplerConfig(n_proposals=1, n_samples=150, burn_in=10)
        start = simulate_genealogy(
            8, 1.0, np.random.default_rng(3), tip_names=small_dataset.alignment.names
        )
        engine = FusedEngine(alignment=small_dataset.alignment, model=model)
        if sampler == "lamarc":
            LamarcSampler(engine, 1.0, cfg).run(start, np.random.default_rng(1))
            live = 2  # the current state plus the last proposal
        elif sampler == "heated":
            HeatedChainSampler(engine, 1.0, (1.0, 0.7, 0.4), cfg).run(
                start, np.random.default_rng(1)
            )
            live = 2 * 3
        else:
            StackedMultiChain(lambda: engine, 1.0, 3, cfg).run(
                start, np.random.default_rng(1)
            )
            live = 2 * 3
        assert engine.n_evaluations > 100
        assert engine.cache_size <= live * start.n_internal

    def test_mpcgs_shares_cached_engine_across_iterations(self, small_dataset):
        cfg = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=4, n_samples=30, burn_in=10),
            n_em_iterations=2,
            likelihood_engine="fused",
        )
        driver = MPCGS(small_dataset.alignment, cfg)
        factory = driver._engine_factory(share_cache=True)
        assert factory() is factory()  # one shared caching engine
        result = driver.run(1.0, np.random.default_rng(4))
        assert result.theta > 0
        # Per-iteration evaluation counts stay per-run despite the shared engine.
        for it in result.iterations:
            assert 0 < it.chain.n_likelihood_evaluations <= 10_000

    def test_mpcgs_stateless_engines_stay_fresh(self, small_dataset):
        cfg = MPCGSConfig(likelihood_engine="batched")
        driver = MPCGS(small_dataset.alignment, cfg)
        assert driver._engine_factory()() is not driver._engine_factory()()
        # share_cache only applies to engines that actually carry a cache.
        shared = driver._engine_factory(share_cache=True)
        assert shared() is not shared()

    def test_multichain_keeps_fresh_engine_per_chain(self, small_dataset):
        """The Fig. 6 baseline must pay every chain's pruning independently."""
        cfg = MPCGSConfig(
            sampler=SamplerConfig(n_proposals=1, n_samples=12, burn_in=4),
            n_em_iterations=1,
            likelihood_engine="fused",
            sampler_name="multichain",
            sampler_options={"n_chains": 2},
        )
        driver = MPCGS(small_dataset.alignment, cfg)
        seen = []
        original = driver._engine_factory

        def spying_factory(share_cache=False):
            assert not share_cache  # multichain must never share the cache
            inner = original(share_cache=share_cache)

            def build():
                engine = inner()
                seen.append(engine)
                return engine

            return build

        driver._engine_factory = spying_factory
        driver.run(1.0, np.random.default_rng(6))
        assert len(seen) >= 2
        assert len(set(map(id, seen))) == len(seen)  # all distinct instances
