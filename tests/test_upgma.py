"""Tests for UPGMA starting-tree construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.genealogy.tree import Genealogy
from repro.genealogy.upgma import upgma_from_distances, upgma_tree
from repro.sequences.alignment import Alignment


def _all_pairs_upgma(dist: np.ndarray, min_separation: float = 1e-9) -> Genealogy:
    """Reference UPGMA: rescan every cluster pair's mean distance at every merge."""
    n = dist.shape[0]
    times = np.zeros(2 * n - 1)
    parent = np.full(2 * n - 1, -1, dtype=np.int64)
    children = np.full((2 * n - 1, 2), -1, dtype=np.int64)
    active = {i: [i] for i in range(n)}
    last_height = 0.0
    for node in range(n, 2 * n - 1):
        reps = sorted(active)
        best, best_pair = None, None
        for ai in range(len(reps)):
            for bi in range(ai + 1, len(reps)):
                a, b = reps[ai], reps[bi]
                d = float(dist[np.ix_(active[a], active[b])].mean())
                if best is None or d < best:
                    best, best_pair = d, (a, b)
        a, b = best_pair
        height = best / 2.0
        if height <= last_height:
            height = last_height + min_separation
        last_height = height
        times[node] = height
        children[node] = (a, b)
        parent[a] = parent[b] = node
        active[node] = active.pop(a) + active.pop(b)
    return Genealogy(times=times, parent=parent, children=children)


def _block_gather_upgma(dist: np.ndarray, min_separation: float = 1e-9):
    """Reference UPGMA with one ``np.ix_`` block gather per cluster pair.

    The merge loop the column gather replaced: each new cluster's mean
    distance to every older one is the mean of ``dist[np.ix_(older, new)]``.
    Returns ``(times, children)``.
    """
    n = dist.shape[0]
    n_nodes = 2 * n - 1
    times = np.zeros(n_nodes)
    children = np.full((n_nodes, 2), -1, dtype=np.int64)
    active = {i: [i] for i in range(n)}
    cluster_dist = np.full((n_nodes, n_nodes), np.inf)
    upper = np.triu_indices(n, k=1)
    cluster_dist[upper] = dist[upper]
    last_height = 0.0
    for node in range(n, n_nodes):
        a, b = divmod(int(np.argmin(cluster_dist)), n_nodes)
        height = float(cluster_dist[a, b]) / 2.0
        if height <= last_height:
            height = last_height + min_separation
        last_height = height
        times[node] = height
        children[node] = (a, b)
        active[node] = active.pop(a) + active.pop(b)
        cluster_dist[[a, b], :] = np.inf
        cluster_dist[:, [a, b]] = np.inf
        for c, members_c in active.items():
            if c != node:
                cluster_dist[c, node] = float(dist[np.ix_(members_c, active[node])].mean())
    return times, children


class TestFromDistances:
    def test_three_taxa_known_result(self):
        # a and b are closest (distance 2); c joins them at mean distance 6.
        dist = np.array([[0.0, 2.0, 6.0], [2.0, 0.0, 6.0], [6.0, 6.0, 0.0]])
        tree = upgma_from_distances(dist, tip_names=("a", "b", "c"))
        tree.validate()
        # First merge at height 1 (= 2 / 2), second at height 3 (= 6 / 2).
        assert np.allclose(sorted(tree.times[tree.n_tips :]), [1.0, 3.0])
        assert tree.subtree_tips(3) == [0, 1]

    def test_cluster_distance_is_mean(self):
        # d(a,b)=2; d(a,c)=8, d(b,c)=4 -> after merging (a,b), distance to c
        # is the mean (8+4)/2 = 6, so the root sits at height 3.
        dist = np.array([[0.0, 2.0, 8.0], [2.0, 0.0, 4.0], [8.0, 4.0, 0.0]])
        tree = upgma_from_distances(dist)
        assert tree.tree_height() == pytest.approx(3.0)

    def test_identical_taxa_get_nudged_heights(self):
        dist = np.zeros((4, 4))
        tree = upgma_from_distances(dist)
        tree.validate()
        assert tree.tree_height() > 0

    def test_validation_of_inputs(self):
        with pytest.raises(ValueError, match="square"):
            upgma_from_distances(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            upgma_from_distances(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="non-negative"):
            upgma_from_distances(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="at least two"):
            upgma_from_distances(np.zeros((1, 1)))

    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_the_all_pairs_reference(self, rng, ties):
        """Caching each cluster pair's mean must build the very tree that
        re-averaging every pair at every merge builds — bitwise, ties included
        (the EM golden trajectories start from this tree)."""
        for _ in range(25):
            n = int(rng.integers(2, 20))
            if ties:
                codes = rng.integers(0, 4, size=(n, 5))
                dist = (codes[:, None, :] != codes[None, :, :]).mean(axis=2)
            else:
                pts = rng.random((n, 3))
                dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            got = upgma_from_distances(dist)
            want = _all_pairs_upgma(dist)
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.children, want.children)

    def test_column_gather_matches_the_block_gather(self, rng):
        """Rows of one column gather per merge are each pair's cross-cluster
        block, reduced as the per-pair ``np.ix_`` gather reduced it: heights
        and topology are bitwise those of the block-gather loop, on random
        matrices (half of them rounded, to force ties) and on alignments of
        the benchmark workloads' shapes."""
        from repro.demography import make_demography
        from repro.likelihood.mutation_models import F84
        from repro.sequences.evolve import evolve_sequences
        from repro.simulate.datasets import synthesize_dataset
        from repro.simulate.demography_sim import simulate_demography_genealogy

        matrices = []
        for i in range(200):
            n = int(rng.integers(2, 30))
            pts = rng.random((n, 3))
            dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            matrices.append(np.round(dist, 1) if i % 2 else dist)
        growth = make_demography("exponential", {"growth": 2.0})
        for seed in range(2):
            alignments = [
                synthesize_dataset(16, 2000, 0.3, np.random.default_rng(seed)).alignment,
                evolve_sequences(
                    simulate_demography_genealogy(48, 1.0, growth, np.random.default_rng(seed)),
                    150,
                    F84(),
                    np.random.default_rng(seed),
                ),
            ]
            matrices += [a.pairwise_differences() / a.n_sites for a in alignments]
        for dist in matrices:
            got = upgma_from_distances(dist)
            times, children = _block_gather_upgma(dist)
            assert np.array_equal(got.times, times)
            assert np.array_equal(got.children, children)

    def test_larger_random_matrix_valid(self, rng):
        n = 12
        pts = rng.random((n, 3))
        dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        tree = upgma_from_distances(dist)
        tree.validate()
        assert tree.n_tips == n


class TestFromAlignment:
    def test_tree_matches_alignment(self, tiny_alignment):
        tree = upgma_tree(tiny_alignment, driving_theta=1.0)
        tree.validate()
        assert tree.tip_names == tiny_alignment.names
        assert tree.n_tips == tiny_alignment.n_sequences

    def test_closest_sequences_join_first(self, tiny_alignment):
        # alpha and beta differ at 1 site - the smallest pairwise distance.
        tree = upgma_tree(tiny_alignment, driving_theta=1.0)
        first_merge = int(np.argmin(tree.times[tree.n_tips :]) + tree.n_tips)
        tips = {tiny_alignment.names[i] for i in tree.subtree_tips(first_merge)}
        assert tips == {"alpha", "beta"}

    def test_theta_scaling_scales_height(self, tiny_alignment):
        small = upgma_tree(tiny_alignment, driving_theta=0.5)
        large = upgma_tree(tiny_alignment, driving_theta=2.0)
        assert large.tree_height() == pytest.approx(4.0 * small.tree_height())

    def test_identical_sequences_still_valid(self):
        aln = Alignment.from_sequences({"a": "ACGT", "b": "ACGT", "c": "ACGT"})
        tree = upgma_tree(aln, driving_theta=1.0)
        tree.validate()

    def test_invalid_theta_rejected(self, tiny_alignment):
        with pytest.raises(ValueError):
            upgma_tree(tiny_alignment, driving_theta=0.0)
