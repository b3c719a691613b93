"""UPGMA construction of the starting genealogy.

Following the original LAMARC procedure (Section 5.1.3), the Markov chain is
seeded with the UPGMA tree of the sequence data: leaves and sub-trees are
repeatedly merged in order of smallest average pairwise distance, where the
distance between two sequences is the count of differing base-pair positions
and the distance between clusters is the arithmetic mean over all
cross-cluster pairs.  As in the paper, the resulting branch lengths are
scaled by the driving value of θ so the seed tree's height is commensurate
with the coalescent prior it will be evaluated under.
"""

from __future__ import annotations

import numpy as np

from ..sequences.alignment import Alignment
from .tree import Genealogy

__all__ = ["upgma_tree", "upgma_from_distances"]


def upgma_from_distances(
    distances: np.ndarray,
    tip_names: tuple[str, ...] | None = None,
    *,
    min_separation: float = 1e-9,
) -> Genealogy:
    """Build a UPGMA genealogy from a symmetric distance matrix.

    Parameters
    ----------
    distances:
        ``(n, n)`` symmetric matrix of non-negative distances with a zero
        diagonal.
    tip_names:
        Optional tip labels.
    min_separation:
        Coalescent genealogies need strictly increasing node times; when the
        data contain identical sequences the raw UPGMA heights tie at zero,
        so successive merge heights are nudged up by at least this amount.
    """
    dist = np.asarray(distances, dtype=float)
    n = dist.shape[0]
    if dist.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if n < 2:
        raise ValueError("need at least two taxa")
    if not np.allclose(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    if np.any(dist < 0):
        raise ValueError("distances must be non-negative")

    names = tuple(tip_names) if tip_names else tuple(f"tip{i}" for i in range(n))

    n_nodes = 2 * n - 1
    times = np.zeros(n_nodes)
    parent = np.full(n_nodes, -1, dtype=np.int64)
    children = np.full((n_nodes, 2), -1, dtype=np.int64)

    # Active clusters: map cluster-representative node index -> member tips.
    active: dict[int, list[int]] = {i: [i] for i in range(n)}
    # Mean tip-to-tip distance of every pair of active clusters, stored at
    # [lower rep, higher rep] (inf elsewhere).  Each entry is computed once,
    # when the younger cluster of the pair forms, as the mean over the
    # cross-cluster block — the same reduction, in the same member order, as
    # re-averaging every pair at every merge would give.
    cluster_dist = np.full((n_nodes, n_nodes), np.inf)
    upper = np.triu_indices(n, k=1)
    cluster_dist[upper] = dist[upper]

    next_node = n
    last_height = 0.0
    while len(active) > 1:
        # The closest pair of clusters; argmin's row-major first occurrence
        # breaks ties toward the lowest (lower rep, higher rep) pair.
        flat = int(np.argmin(cluster_dist))
        a, b = divmod(flat, n_nodes)
        best = float(cluster_dist[a, b])
        # UPGMA places the new node at half the cluster distance.
        height = best / 2.0
        if height <= last_height:
            height = last_height + min_separation
        last_height = height

        node = next_node
        next_node += 1
        times[node] = height
        children[node] = (a, b)
        parent[a] = node
        parent[b] = node
        active[node] = active.pop(a) + active.pop(b)
        cluster_dist[[a, b], :] = np.inf
        cluster_dist[:, [a, b]] = np.inf
        # One gather of the new cluster's columns per merge; each older
        # cluster's rows of it are the cross-cluster block, contiguous.
        cols = dist[:, active[node]]
        for c, members_c in active.items():
            if c != node:
                cluster_dist[c, node] = float(cols[members_c].mean())

    tree = Genealogy(times=times, parent=parent, children=children, tip_names=names)
    tree.validate()
    return tree


def upgma_tree(alignment: Alignment, driving_theta: float = 1.0) -> Genealogy:
    """Build the LAMARC-style starting genealogy for ``alignment``.

    Distances are pairwise nucleotide differences *per site* and the
    resulting node heights are scaled by ``driving_theta`` (Section 5.1.3:
    "the branch lengths are scaled by the assumed driving value of θ").
    """
    if driving_theta <= 0:
        raise ValueError("driving_theta must be positive")
    diffs = alignment.pairwise_differences() / alignment.n_sites
    tree = upgma_from_distances(diffs, tip_names=alignment.names)
    # Scale node times (tips stay at zero).
    tree.times *= driving_theta
    # Guard against degenerate zero-height trees (identical sequences).
    if tree.tree_height() <= 0:
        tree.times[tree.n_tips :] += np.linspace(
            driving_theta * 1e-3, driving_theta * 1e-2, tree.n_internal
        )
    tree.validate()
    return tree
