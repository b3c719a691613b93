"""Cross-engine golden equivalence suite (satellite of ISSUEs 2 and 5).

Every likelihood engine — serial scalar, site-vectorized, proposal-batched,
and the fused sparse engine over its partials arena — implements the *same*
function log P(D | G).  These tests pin that down over
random genealogies, random alignments, and every registered mutation model
(golden seeds plus a hypothesis sweep), including the failure mode the
caching engines are most at risk of: returning a stale partial after a long
perturb → evaluate sequence.  Fixed-seed chains on the serial and fused
engines reproduce their recorded floats bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SamplerConfig
from repro.core.sampler import MultiProposalSampler
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import (
    BatchedEngine,
    SerialEngine,
    VectorizedEngine,
    make_engine,
)
from repro.likelihood.fused import FusedEngine
from repro.likelihood.mutation_models import Felsenstein81, make_model
from repro.proposals.neighborhood import NeighborhoodResimulator
from repro.simulate.datasets import synthesize_dataset
from repro.simulate.coalescent_sim import simulate_genealogy

ENGINE_CLASSES = (SerialEngine, VectorizedEngine, BatchedEngine, FusedEngine)
MODEL_NAMES = ("F81", "JC69", "K80", "F84", "HKY85")

# The engines differ only in floating-point accumulation order, so their
# log-likelihoods (magnitude ~1e2–1e3) must agree far below statistical
# relevance; 1e-10 relative is the golden bar.
RTOL = 1e-10
ATOL = 1e-9


def _dataset_and_trees(seed: int, n_sequences: int = 8, n_sites: int = 120, n_trees: int = 4):
    rng = np.random.default_rng(seed)
    dataset = synthesize_dataset(n_sequences, n_sites, true_theta=1.0, rng=rng)
    trees = [
        simulate_genealogy(n_sequences, 1.0, rng, tip_names=dataset.alignment.names)
        for _ in range(n_trees)
    ]
    return dataset, trees


def _engines(alignment, model):
    return {cls.__name__: cls(alignment=alignment, model=model) for cls in ENGINE_CLASSES}


class TestGoldenEquivalence:
    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    @pytest.mark.parametrize("seed", (11, 29, 73))
    def test_single_evaluations_agree(self, model_name, seed):
        dataset, trees = _dataset_and_trees(seed)
        model = make_model(model_name, dataset.alignment.base_frequencies(pseudocount=1.0))
        engines = _engines(dataset.alignment, model)
        for tree in trees:
            values = {name: eng.evaluate(tree) for name, eng in engines.items()}
            reference = values["SerialEngine"]
            assert np.isfinite(reference)
            for name, value in values.items():
                assert value == pytest.approx(reference, rel=RTOL, abs=ATOL), (
                    f"{name} disagrees with SerialEngine under {model_name}"
                )

    @pytest.mark.parametrize("model_name", MODEL_NAMES)
    def test_batch_evaluations_agree(self, model_name):
        dataset, trees = _dataset_and_trees(seed=5, n_trees=6)
        model = make_model(model_name, dataset.alignment.base_frequencies(pseudocount=1.0))
        engines = _engines(dataset.alignment, model)
        results = {name: eng.evaluate_batch(trees) for name, eng in engines.items()}
        reference = results["SerialEngine"]
        for name, values in results.items():
            assert np.allclose(values, reference, rtol=RTOL, atol=ATOL), (
                f"{name} batch disagrees with SerialEngine under {model_name}"
            )

    def test_alignment_shapes_are_covered(self):
        """Equivalence holds across tip counts and site counts, not one shape."""
        for n_sequences, n_sites in ((4, 40), (6, 33), (12, 257)):
            dataset, trees = _dataset_and_trees(
                seed=n_sequences * 1000 + n_sites, n_sequences=n_sequences, n_sites=n_sites,
                n_trees=2,
            )
            model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
            engines = _engines(dataset.alignment, model)
            for tree in trees:
                values = [eng.evaluate(tree) for eng in engines.values()]
                assert np.allclose(values, values[0], rtol=RTOL, atol=ATOL)


class TestCacheStalenessRegression:
    """The sparse engine's arena must stay exact through long perturbation histories."""

    def test_long_perturb_evaluate_sequence(self):
        dataset, (tree, *_ ) = _dataset_and_trees(seed=17, n_sequences=10, n_sites=90, n_trees=1)
        model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
        cached = FusedEngine(alignment=dataset.alignment, model=model)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        rng = np.random.default_rng(1234)

        history = [tree]
        current = tree
        for step in range(150):
            current = resim.propose_random(current, rng).tree
            history.append(current)
            assert cached.evaluate(current) == pytest.approx(
                oracle.evaluate(current), rel=RTOL, abs=ATOL
            ), f"stale cache entry surfaced at step {step}"
            # Periodically re-evaluate an older state: its entries may have
            # been partially evicted or overlap newer subtrees — the value
            # must not drift either way.
            if step % 25 == 0:
                old = history[int(rng.integers(len(history)))]
                assert cached.evaluate(old) == pytest.approx(
                    oracle.evaluate(old), rel=RTOL, abs=ATOL
                )

    def test_in_place_time_mutation_is_detected(self):
        """Branch-length edits (no topology change) must invalidate the cache."""
        dataset, (tree, *_ ) = _dataset_and_trees(seed=3, n_sequences=6, n_sites=60, n_trees=1)
        model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
        cached = FusedEngine(alignment=dataset.alignment, model=model)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        assert cached.evaluate(tree) == pytest.approx(oracle.evaluate(tree), rel=RTOL, abs=ATOL)

        stretched = tree.copy()
        stretched.times[stretched.n_tips :] *= 1.5  # scale every coalescent time
        assert cached.evaluate(stretched) == pytest.approx(
            oracle.evaluate(stretched), rel=RTOL, abs=ATOL
        )

        nudged = tree.copy()
        root = nudged.root
        nudged.times[root] += 0.125  # exactly representable nudge of one node
        assert cached.evaluate(nudged) == pytest.approx(
            oracle.evaluate(nudged), rel=RTOL, abs=ATOL
        )

    def test_tiny_cache_still_exact(self):
        """Heavy clearing (max_entries at the floor) degrades speed, never values."""
        dataset, (tree, *_ ) = _dataset_and_trees(seed=8, n_sequences=8, n_sites=50, n_trees=1)
        model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
        cached = FusedEngine(alignment=dataset.alignment, model=model, max_entries=16)
        oracle = VectorizedEngine(alignment=dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        rng = np.random.default_rng(9)
        current = tree
        for _ in range(60):
            current = resim.propose_random(current, rng).tree
            assert cached.evaluate(current) == pytest.approx(
                oracle.evaluate(current), rel=RTOL, abs=ATOL
            )
        # The cap is checked at batch start, so one batch of items may sit
        # above it until the next batch clears the arena.
        assert cached.cache_size <= 16 + tree.n_internal

    def test_make_engine_rejects_cached(self):
        """The per-tree ``cached`` engine is gone; its name is an unknown engine."""
        dataset, _ = _dataset_and_trees(seed=2, n_trees=1)
        model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
        with pytest.raises(ValueError, match="unknown engine 'cached'; choose from"):
            make_engine("cached", dataset.alignment, model)

    def test_make_engine_builds_fused(self):
        dataset, _ = _dataset_and_trees(seed=2, n_trees=1)
        model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
        assert isinstance(make_engine("fused", dataset.alignment, model), FusedEngine)
        assert isinstance(make_engine("FUSED", dataset.alignment, model), FusedEngine)


# Golden fixed-seed chain values, re-pinned when the proposal-set kernel
# became one array program (its stream contract draws one uniform block
# per set): the serial and fused engines must reproduce every float
# bit-for-bit.  (ll_first, ll_last, np.sum(lls), n_accepted.)
#
# The fused readout reduces each tree's pattern weights through its own
# 1-D dot, so batch composition cannot move a value's last bit (the
# stacked cross-chain executor's contract).
_GOLDEN = {
    "serial": (-320.29893737330667, -319.32471860331714, -6405.004528696145, 7),
    "fused": (-320.29893737330684, -319.324718603317, -6405.004528696148, 7),
}
_GOLDEN_INTERVAL_SHA = "ae6c5ff65424fa03c31a54222fb10dce46b90ce60b09947431b5ff00afdacec9"


class TestGoldenChainRegression:
    """Fixed-seed chains reproduce their recorded floats exactly."""

    @pytest.fixture(scope="class")
    def instance(self):
        dataset = synthesize_dataset(6, 60, true_theta=1.0, rng=np.random.default_rng(17))
        model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
        tree = upgma_tree(dataset.alignment, 1.0)
        return dataset, model, tree

    @pytest.mark.parametrize("engine_name", sorted(_GOLDEN))
    def test_fixed_seed_chain_is_bit_identical(self, instance, engine_name):
        dataset, model, tree = instance
        engine = make_engine(engine_name, dataset.alignment, model)
        cfg = SamplerConfig(n_proposals=6, n_samples=20, burn_in=5)
        res = MultiProposalSampler(engine, 1.0, cfg).run(tree, np.random.default_rng(31))
        lls = np.asarray(res.trace.log_likelihoods)
        ll_first, ll_last, ll_sum, n_accepted = _GOLDEN[engine_name]
        assert float(lls[0]) == ll_first
        assert float(lls[-1]) == ll_last
        assert float(np.sum(lls)) == ll_sum
        assert res.n_accepted == n_accepted
        sha = hashlib.sha256(
            np.ascontiguousarray(res.trace.interval_matrix).tobytes()
        ).hexdigest()
        assert sha == _GOLDEN_INTERVAL_SHA


class TestHypothesisEquivalence:
    """Property sweep: all engines agree on arbitrary instances and streams."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_sequences=st.sampled_from((4, 6, 9)),
        n_sites=st.integers(min_value=10, max_value=80),
        model_name=st.sampled_from(MODEL_NAMES),
    )
    def test_all_engines_agree(self, seed, n_sequences, n_sites, model_name):
        dataset, trees = _dataset_and_trees(
            seed=seed, n_sequences=n_sequences, n_sites=n_sites, n_trees=3
        )
        model = make_model(model_name, dataset.alignment.base_frequencies(pseudocount=1.0))
        engines = _engines(dataset.alignment, model)
        batch = {name: eng.evaluate_batch(trees) for name, eng in engines.items()}
        reference = batch["SerialEngine"]
        assert np.all(np.isfinite(reference))
        for name, values in batch.items():
            assert np.allclose(values, reference, rtol=RTOL, atol=ATOL), (
                f"{name} disagrees with SerialEngine under {model_name} (seed {seed})"
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_fused_matches_cached_through_proposal_streams(self, seed):
        """A GMH-shaped prepare → sibling-batch stream agrees engine-for-engine.

        ``cached`` is the per-tree walk: the same engine fed one tree at a
        time through ``evaluate``, a batch of one.
        """
        dataset, (tree, *_) = _dataset_and_trees(seed=seed, n_sequences=7, n_sites=60, n_trees=1)
        model = make_model("F81", dataset.alignment.base_frequencies(pseudocount=1.0))
        fused = FusedEngine(alignment=dataset.alignment, model=model)
        cached = FusedEngine(alignment=dataset.alignment, model=model)
        oracle = BatchedEngine(alignment=dataset.alignment, model=model)
        resim = NeighborhoodResimulator(1.0)
        rng = np.random.default_rng(seed)
        current = tree
        for _ in range(4):
            target = resim.choose_target(current, rng)
            siblings = [resim.propose(current, target, rng).tree for _ in range(5)]
            fused.prepare(current)
            cached.prepare(current)
            values = fused.evaluate_batch(siblings)
            # Batch composition never moves a value's last bit.
            assert np.array_equal(values, [cached.evaluate(t) for t in siblings])
            assert np.allclose(values, oracle.evaluate_batch(siblings), rtol=RTOL, atol=ATOL)
            current = siblings[int(rng.integers(len(siblings)))]
        # The stacked plan equals the per-tree walk, so the sparse work
        # accounting must match exactly.
        assert fused.n_nodes_pruned == cached.n_nodes_pruned
        assert fused.n_tree_site_products == cached.n_tree_site_products
        assert fused.n_cache_hits == cached.n_cache_hits
