"""Units for the fused sparse engine and its supporting plumbing.

Value-level equivalence with the other engines lives in
``test_engine_equivalence.py`` and the in-sampler bit-for-bit regressions in
``test_statistical_correctness.py``; this file covers the fused engine's own
mechanics — the partials arena's lifecycle, the rows that travel with each
tree and their stale-row guards, the dirty sets of row ownership against the
signature walk over a sampler × demography grid, counters, the fully-cached
fast path, warm-up — plus the hoisted site data and the registry/driver
integration.
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


SAMPLERS = ("gmh", "lamarc", "heated", "multichain")
DEMOGRAPHIES = ("constant", "exponential")


def pytest_generate_tests(metafunc):
    """One cell per sampler × demography for the row-ownership oracle."""
    if "sampler_cell" in metafunc.fixturenames:
        cells = [(s, d) for s in SAMPLERS for d in DEMOGRAPHIES]
        metafunc.parametrize("sampler_cell", cells, ids=[f"{s}-{d}" for s, d in cells])


def _cold_values(engine, trees):
    """Each tree's value pruned in full from the tip rows.

    ``engine`` evaluates a copy of each tree (a copy carries no rows) and
    then frees everything.  It is the bitwise reference: the batched engine
    agrees with the fused one only to accumulation order.
    """
    values = np.array([engine.evaluate(tree.copy()) for tree in trees])
    engine.retain([])
    return values


def _reference_dirty(tree, held):
    """Interior nodes of ``tree`` that no ``held`` tree has, by the signature walk."""
    dirty = np.arange(tree.n_tips, tree.n_nodes)
    for other in held:
        dirty = np.intersect1d(dirty, tree.dirty_nodes(other))
    return dirty


class RowRecordingEngine(FusedEngine):
    """Remembers, for every row it records, the rows of the node's children."""

    def __post_init__(self):
        super().__post_init__()
        self.row_children = {}

    def _record(self, trees, keys, rows):
        for tree, tree_rows in zip(trees, rows):
            for node in range(tree.n_tips, tree.n_nodes):
                self.row_children[int(tree_rows[node])] = [
                    int(tree_rows[c]) for c in tree.children[node]
                ]
        super()._record(trees, keys, rows)

    def assert_closed(self):
        """Every live row's children are tips or live rows."""
        n_tips = self.alignment.n_sequences
        free = set(self._free.tolist())
        for row in range(n_tips, self._arena.shape[0]):
            if row not in free:
                assert all(c < n_tips or c not in free for c in self.row_children[row])


class WalkCheckedEngine(RowRecordingEngine):
    """Checks every batch against the content-addressed reference walk.

    The reference is the signature cache the arena rows replaced: a node is
    cached when a tree the engine holds — those of the last ``retain``, plus
    every tree evaluated since — has a bitwise-equal subtree
    (:meth:`~repro.genealogy.tree.Genealogy.dirty_nodes`).  Each batch's
    dirty set must equal it node for node, hits and misses must equal a
    top-down walk's over it, values must equal a cold evaluation's bitwise
    (and the batched engine's to accumulation order), and every live row's
    children must be tips or live rows.
    """

    def __post_init__(self):
        super().__post_init__()
        self.held = []
        self.cold = FusedEngine(alignment=self.alignment, model=self.model)
        self.batched = BatchedEngine(alignment=self.alignment, model=self.model)
        self.n_checked = 0

    def _evaluate(self, trees, counted=True):
        self._ensure_ready()
        n_tips = trees[0].n_tips
        assert self.cache_size <= self.max_entries  # no clear: the reference holds
        engine_dirty, reference, walk_hits = [], [], 0
        for tree in trees:
            rows, versions = self._recorded_rows(tree, tree._structure_key())
            engine_dirty.append(np.flatnonzero(~self._live_mask(rows, versions)[n_tips:]) + n_tips)
            dirty = _reference_dirty(tree, self.held)
            reference.append(dirty)
            walk_hits += int(tree.root not in dirty) + sum(
                int(c >= n_tips and c not in dirty) for d in dirty for c in tree.children[d]
            )
        hits, misses = self.n_cache_hits, self.n_cache_misses
        values = super()._evaluate(trees, counted)
        for mine, ref in zip(engine_dirty, reference):
            assert np.array_equal(mine, ref)
        assert self.n_cache_hits - hits == walk_hits
        assert self.n_cache_misses - misses == sum(len(ref) for ref in reference)
        assert np.array_equal(values, _cold_values(self.cold, trees))
        assert np.allclose(values, self.batched.evaluate_batch(trees), rtol=1e-12, atol=0.0)
        self.held.extend(trees)
        self.assert_closed()
        self.n_checked += 1
        return values

    def prepare(self, tree):
        """A prepare that skips its sweep must find nothing dirty by the walk.

        A sweeping prepare goes through :meth:`_evaluate` and is checked
        there; a skip counts exactly the one cached root and no miss.
        """
        reference = _reference_dirty(tree, self.held)
        checked, hits, misses = self.n_checked, self.n_cache_hits, self.n_cache_misses
        super().prepare(tree)
        if self.n_checked == checked:
            assert len(reference) == 0
            assert self.n_cache_hits - hits == 1
            assert self.n_cache_misses == misses
            self.n_checked += 1

    def retain(self, trees):
        trees = list(trees)
        super().retain(trees)
        self.held = trees


class TestArenaPlanMatchesWalk:
    """Row ownership finds exactly the dirty sets of the signature walk."""

    def test_sampler_grid(self, instance, sampler_cell, monkeypatch):
        from functools import partial

        import repro.parallel.stacked as stacked
        from repro.baselines.heated import HeatedChainSampler
        from repro.baselines.lamarc import LamarcSampler
        from repro.core.sampler import MultiProposalSampler
        from repro.demography.models import ExponentialDemography

        sampler, demography_name = sampler_cell
        dataset, model = instance
        engine = WalkCheckedEngine(alignment=dataset.alignment, model=model)
        demography = ExponentialDemography(growth=2.0) if demography_name != "constant" else None
        start = _trees(dataset, 1, seed=60)[0]
        rng = np.random.default_rng(61)
        if sampler == "gmh":
            cfg = SamplerConfig(n_proposals=4, n_samples=90, burn_in=10, samples_per_set=1)
            MultiProposalSampler(engine, 1.0, cfg, demography=demography).run(start, rng)
            minimum = 2 * 100  # prepare plus the set, per set
        elif sampler == "lamarc":
            cfg = SamplerConfig(n_proposals=1, n_samples=150, burn_in=50)
            LamarcSampler(engine, 1.0, cfg, demography=demography).run(start, rng)
            minimum = 200
        elif sampler == "heated":
            cfg = SamplerConfig(n_proposals=1, n_samples=40, burn_in=10)
            HeatedChainSampler(
                engine, 1.0, (1.0, 0.8, 0.6, 0.4), cfg, demography=demography
            ).run(start, rng)
            minimum = 4 * 50
        else:
            # The stacked sampler takes no demography; its proposals are
            # drawn under one all the same, to cover the growth kernel.
            if demography is not None:
                monkeypatch.setattr(
                    stacked,
                    "NeighborhoodResimulator",
                    partial(stacked.NeighborhoodResimulator, demography=demography),
                )
            cfg = SamplerConfig(n_proposals=1, n_samples=160, burn_in=40)
            stacked.StackedMultiChain(lambda: engine, 1.0, 4, cfg).run(start, rng)
            minimum = 60  # one round of K = 4 chains per batch
        assert engine.n_checked >= minimum
        assert engine.n_cache_hits > 0 and engine.n_cache_misses > 0


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

        def interrupted(vec):
            raise RuntimeError("interrupted")

        monkeypatch.setattr(fused_module, "_state_peak", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            engine.evaluate(tree)
        monkeypatch.undo()
        assert engine.cache_size == 0
        assert engine.evaluate(tree) == pytest.approx(oracle.evaluate(tree), rel=1e-10)

    def test_max_entries_cap_clears_the_arena_and_stays_exact(self, instance):
        class CountingClears(FusedEngine):
            n_clears = 0

            def clear_cache(self):
                self.n_clears += 1
                super().clear_cache()

        dataset, model = instance
        engine = CountingClears(alignment=dataset.alignment, model=model, max_entries=16)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        current = _trees(dataset, 1, seed=27)[0]
        clears = 0
        for seed in range(28, 28 + 8):
            cleared = engine.n_clears
            engine.prepare(current)
            siblings = _sibling_set(dataset, current, 6, seed=seed)
            items = engine.n_workspace_items
            values = engine.evaluate_batch(siblings)
            singles = np.array([oracle.evaluate(t) for t in siblings])
            assert np.allclose(values, singles, rtol=1e-10, atol=1e-9)
            assert engine.cache_size <= 16 + engine.n_workspace_items - items
            clears += engine.n_clears != cleared
            current = siblings[0]
        assert clears > 0  # the cap did bind


class TestStaleRowGuards:
    """A tree's recorded rows are used only while they still hold its partials.

    Each case is checked bitwise against a cold evaluation (the tree pruned
    in full from the tip rows) and within accumulation order of the batched
    engine.
    """

    @staticmethod
    def _check(engine, trees, values):
        dataset_alignment, model = engine.alignment, engine.model
        cold = FusedEngine(alignment=dataset_alignment, model=model)
        batched = BatchedEngine(alignment=dataset_alignment, model=model)
        assert np.array_equal(values, _cold_values(cold, trees))
        assert np.allclose(values, batched.evaluate_batch(trees), rtol=1e-12, atol=0.0)

    def test_rows_freed_by_retain_then_reused(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        first, second = _trees(dataset, 2, seed=80)
        engine.evaluate(first)
        stale = first.arena_rows.rows.copy()
        engine.retain([])  # frees every row ``first`` records
        engine.evaluate(second)  # ... and this batch reuses them
        assert set(second.arena_rows.rows[first.n_tips :]) == set(stale[first.n_tips :])
        pruned = engine.n_nodes_pruned
        values = engine.evaluate_batch([first, second])
        assert engine.n_nodes_pruned - pruned == first.n_internal  # first, in full
        self._check(engine, [first, second], values)

    def test_in_place_edits_void_the_rows(self, instance):
        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        retimed, rewired = _trees(dataset, 2, seed=81)
        engine.evaluate_batch([retimed, rewired])
        retimed.times[retimed.n_tips :] *= 1.25
        # Exchange two tips of different parents (tips all sit at time 0).
        a = 0
        b = next(t for t in range(1, rewired.n_tips) if rewired.parent[t] != rewired.parent[a])
        pa, pb = int(rewired.parent[a]), int(rewired.parent[b])
        rewired.children[pa][rewired.children[pa] == a] = b
        rewired.children[pb][rewired.children[pb] == b] = a
        rewired.parent[a], rewired.parent[b] = pb, pa
        for tree in (retimed, rewired):
            tree.validate()
            # A proposal from an edited tree inherits none of its rows.
            outcome = NeighborhoodResimulator(1.0).propose_random(tree, np.random.default_rng(5))
            assert outcome.tree.arena_rows is None
        pruned = engine.n_nodes_pruned
        values = engine.evaluate_batch([retimed, rewired])
        assert engine.n_nodes_pruned - pruned == retimed.n_internal + rewired.n_internal
        self._check(engine, [retimed, rewired], values)

    def test_one_tree_twice_in_a_batch_and_its_copy(self, instance):
        dataset, model = instance
        engine = RowRecordingEngine(alignment=dataset.alignment, model=model)
        tree = _trees(dataset, 1, seed=82)[0]
        for _ in range(2):
            batch = [tree, tree, tree.copy()]
            pruned = engine.n_nodes_pruned
            values = engine.evaluate_batch(batch)
            engine.assert_closed()
            self._check(engine, batch, values)
        # Cold, each position is pruned in full; warm, only the copy (which
        # carries no rows) is.
        assert engine.n_nodes_pruned - pruned == tree.n_internal
        assert engine.n_nodes_pruned == 4 * tree.n_internal
        engine.retain([tree])  # frees the copies' and the orphaned position's rows
        assert engine.cache_size == tree.n_internal
        engine.assert_closed()
        pruned = engine.n_nodes_pruned
        assert engine.evaluate(tree) == values[0]
        assert engine.n_nodes_pruned == pruned

    def test_unpickled_or_foreign_rows_are_pruned_in_full(self, instance):
        import pickle

        dataset, model = instance
        engine = FusedEngine(alignment=dataset.alignment, model=model)
        tree = _trees(dataset, 1, seed=83)[0]
        value = engine.evaluate(tree)
        restored = pickle.loads(pickle.dumps(tree))
        assert restored == tree
        assert restored.arena_rows is None
        other = FusedEngine(alignment=dataset.alignment, model=model)
        other.evaluate(_trees(dataset, 1, seed=84)[0])  # its rows hold other partials
        for evaluator, candidate in ((engine, restored), (other, tree)):
            pruned = evaluator.n_nodes_pruned
            assert evaluator.evaluate(candidate) == value
            assert evaluator.n_nodes_pruned - pruned == tree.n_internal
        self._check(engine, [restored, tree], [value, value])


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

    def test_prepare_skip_keeps_values_and_counters(self, instance):
        """A prepare that skips its sweep leaves the chain and every counter as a sweep would."""
        from repro.core.sampler import MultiProposalSampler

        class SweepCounting(FusedEngine):
            n_sweeps = 0

            def _evaluate(self, trees, counted=True):
                self.n_sweeps += 1
                return super()._evaluate(trees, counted)

        class AlwaysSweeping(SweepCounting):
            def prepare(self, tree):
                self._evaluate([tree], counted=False)
                self.retain([tree])

        dataset, model = instance
        cfg = SamplerConfig(n_proposals=4, n_samples=60, burn_in=10)
        runs = []
        for engine_cls in (SweepCounting, AlwaysSweeping):
            engine = engine_cls(alignment=dataset.alignment, model=model)
            tree = upgma_tree(dataset.alignment, 1.0)
            result = MultiProposalSampler(engine, 1.0, cfg).run(tree, np.random.default_rng(5))
            runs.append((engine, np.asarray(result.trace.log_likelihoods)))
        (skipping, values), (sweeping, reference) = runs
        assert np.array_equal(values, reference)
        for counter in (
            "n_evaluations",
            "n_cache_hits",
            "n_cache_misses",
            "n_nodes_pruned",
            "n_tree_site_products",
            "n_stacked_steps",
            "n_workspace_items",
            "n_padded_items",
            "n_pmat_requests",
            "n_pmat_builds",
        ):
            assert getattr(skipping, counter) == getattr(sweeping, counter), counter
        # Both chains sweep the start tree once, then the sweeping one twice
        # per set.  Every generator's rows are live when its set begins (the
        # start tree's from that sweep, later ones kept by the previous
        # set's retain), so every prepare skips.
        n_sets = sweeping.n_sweeps // 2
        assert n_sets > 10
        assert skipping.n_sweeps == n_sets + 1
