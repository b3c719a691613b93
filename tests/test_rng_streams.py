"""RNG-stream determinism and independence tests (ISSUE 2 satellite).

Modeled on the RNG-registry test idiom: named/spawned child streams must be
(a) deterministic per seed, (b) pairwise independent, and (c) invariant to
the order in which other streams are created or consumed.  The multi-chain
baseline relies on all three — its per-chain generators come from
``rng.spawn``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.multichain import MultiChainSampler
from repro.core.config import SamplerConfig
from repro.genealogy.upgma import upgma_tree
from repro.likelihood.engines import VectorizedEngine
from repro.likelihood.mutation_models import Felsenstein81
from repro.simulate.datasets import synthesize_dataset

N_CHILDREN = 4


class TestSpawnedStreams:
    def test_children_are_deterministic_per_seed(self):
        a = np.random.default_rng(123).spawn(N_CHILDREN)
        b = np.random.default_rng(123).spawn(N_CHILDREN)
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.random(16), gb.random(16))

    def test_different_seeds_differ(self):
        a = np.random.default_rng(123).spawn(1)[0]
        b = np.random.default_rng(124).spawn(1)[0]
        assert not np.allclose(a.random(16), b.random(16))

    def test_children_are_pairwise_independent(self):
        children = np.random.default_rng(7).spawn(6)
        draws = np.stack([g.random(4096) for g in children])
        corr = np.corrcoef(draws)
        off_diagonal = corr[~np.eye(len(children), dtype=bool)]
        assert np.all(np.abs(off_diagonal) < 0.08)
        # and none of them replicates the parent stream
        parent = np.random.default_rng(7)
        head = parent.random(4096)
        for row in draws:
            assert not np.allclose(row, head)

    def test_consumption_order_is_invariant(self):
        """Drawing from child 3 before child 0 does not change either stream."""
        forward = np.random.default_rng(42).spawn(N_CHILDREN)
        backward = np.random.default_rng(42).spawn(N_CHILDREN)
        forward_draws = [g.random(8) for g in forward]
        backward_draws = [None] * N_CHILDREN
        for i in reversed(range(N_CHILDREN)):
            backward_draws[i] = backward[i].random(8)
        for fwd, bwd in zip(forward_draws, backward_draws):
            assert np.array_equal(fwd, bwd)


class TestMultiChainSamplerStreams:
    @pytest.fixture(scope="class")
    def instance(self):
        dataset = synthesize_dataset(5, 40, true_theta=1.0, rng=np.random.default_rng(2))
        model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
        tree = upgma_tree(dataset.alignment, 1.0)
        return dataset, model, tree

    def _make(self, dataset, model, n_chains=3):
        return MultiChainSampler(
            engine_factory=lambda: VectorizedEngine(alignment=dataset.alignment, model=model),
            theta=1.0,
            n_chains=n_chains,
            config=SamplerConfig(n_samples=24, burn_in=8),
        )

    def test_fixed_seed_runs_are_reproducible(self, instance):
        dataset, model, tree = instance
        r1 = self._make(dataset, model).run(tree, np.random.default_rng(5))
        r2 = self._make(dataset, model).run(tree, np.random.default_rng(5))
        assert np.array_equal(r1.interval_matrix, r2.interval_matrix)
        assert r1.n_accepted == r2.n_accepted

    def test_construction_order_does_not_couple_samplers(self, instance):
        """Building other samplers first must not perturb a sampler's streams."""
        dataset, model, tree = instance
        # Construct A alone.
        alone = self._make(dataset, model).run(tree, np.random.default_rng(5))
        # Construct several unrelated samplers (different shapes) first, then A.
        self._make(dataset, model, n_chains=2)
        self._make(dataset, model, n_chains=5)
        crowded = self._make(dataset, model).run(tree, np.random.default_rng(5))
        assert np.array_equal(alone.interval_matrix, crowded.interval_matrix)

    def test_chains_receive_distinct_streams(self, instance):
        """Per-chain traces must differ: identical streams would mean coupled chains."""
        dataset, model, tree = instance
        result = self._make(dataset, model).run(tree, np.random.default_rng(9))
        per_chain = result.extras["per_chain_steps"]
        assert len(per_chain) == 3
        mat = result.interval_matrix
        third = mat.shape[0] // 3
        assert not np.array_equal(mat[:third], mat[third : 2 * third])
