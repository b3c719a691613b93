"""Feasible-interval machinery for neighbourhood resimulation.

Resimulating a neighbourhood (Section 4.2, Figs. 7–9) requires knowing, for
every moment in the affected time range, how many *inactive* lineages — the
branches of the tree that are not being resimulated — are present, because
the conditional coalescent density of the new events depends on both the
active and the inactive lineage counts.  The time range is therefore split
into *feasible intervals* delimited by (a) the times at which an active
lineage appears (the child subtree roots), (b) the times at which the
inactive lineage count changes (fixed coalescent events), and (c) the
ancestor time that bounds the resimulation from above.  Within one feasible
interval both counts are constant except for the stochastic merges being
simulated.

This module computes the inactive-lineage profile and the interval
decomposition; :mod:`repro.proposals.kinetics` supplies the per-interval
transition weights and event-time sampling; :mod:`repro.proposals.neighborhood`
strings everything into the full proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genealogy.tree import Genealogy

__all__ = [
    "Region",
    "FeasibleIntervals",
    "extract_region",
    "build_intervals",
    "rescaled_interval_spans",
]


@dataclass(frozen=True)
class Region:
    """The neighbourhood of resimulation around a target node.

    Attributes
    ----------
    target:
        The targeted non-root interior node (deleted and re-created).
    parent:
        The target's parent (also deleted and re-created).
    ancestor:
        The parent's parent, or ``-1`` when the parent is the root (in which
        case the resimulation is unbounded above).
    ancestor_time:
        Time of the ancestor, or ``inf`` when unbounded.
    child_roots:
        The three subtree roots left dangling by the deletion: the target's
        two children and the target's sibling.
    child_times:
        Times of the three child roots.
    """

    target: int
    parent: int
    ancestor: int
    ancestor_time: float
    child_roots: tuple[int, int, int]
    child_times: tuple[float, float, float]

    @property
    def bounded(self) -> bool:
        """True when an ancestor node caps the resimulation time range."""
        return np.isfinite(self.ancestor_time)


@dataclass(frozen=True)
class FeasibleIntervals:
    """The feasible intervals of one resimulation range, as arrays.

    Entry ``m`` of each array describes interval ``m``, youngest first.

    Attributes
    ----------
    starts, ends:
        Calendar times (backwards from the present) bounding each interval;
        the last ``end`` is ``inf`` for an unbounded (parent-was-root)
        resimulation.
    n_inactive:
        Number of inactive (fixed) lineages present throughout the interval.
    activations:
        Number of active lineages that appear exactly at the interval's
        start (child subtree roots whose time equals it).
    """

    starts: np.ndarray
    ends: np.ndarray
    n_inactive: np.ndarray
    activations: np.ndarray

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Interval lengths (the last may be ``inf``)."""
        return self.ends - self.starts


def extract_region(tree: Genealogy, target: int) -> Region:
    """Identify the neighbourhood of resimulation around ``target``.

    ``target`` must be an interior node other than the root.
    """
    if tree.is_tip(target):
        raise ValueError(f"target {target} is a tip; only interior nodes can be resimulated")
    root = tree.root
    if target == root:
        raise ValueError("the root cannot be targeted for resimulation")
    parent = int(tree.parent[target])
    ancestor = int(tree.parent[parent])
    c0, c1 = (int(c) for c in tree.children[target])
    sibling = tree.sibling(target)
    child_roots = (c0, c1, sibling)
    child_times = tuple(float(tree.times[c]) for c in child_roots)
    ancestor_time = float(tree.times[ancestor]) if ancestor >= 0 else float("inf")
    return Region(
        target=target,
        parent=parent,
        ancestor=ancestor,
        ancestor_time=ancestor_time,
        child_roots=child_roots,
        child_times=child_times,
    )


def _fixed_edges(tree: Genealogy, region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Child and parent times of the fixed (inactive) edges.

    A fixed edge ``child → parent`` is one that does not involve the deleted
    nodes (the target and its parent).
    """
    nodes = np.arange(tree.n_nodes)
    parent = tree.parent
    fixed = (
        (parent >= 0)
        & (nodes != region.target)
        & (nodes != region.parent)
        & (parent != region.target)
        & (parent != region.parent)
    )
    return tree.times[fixed], tree.times[parent[fixed]]


def inactive_lineage_count(tree: Genealogy, region: Region, time: float) -> int:
    """Number of fixed (inactive) lineages crossing ``time``.

    A fixed lineage is an edge ``child → parent`` of the tree that does not
    involve the deleted nodes (the target and its parent) and that spans the
    queried time: ``time(child) <= time < time(parent)``.
    """
    child_times, parent_times = _fixed_edges(tree, region)
    return int(np.count_nonzero((child_times <= time) & (time < parent_times)))


def rescaled_interval_spans(
    intervals: FeasibleIntervals, demography
) -> tuple[np.ndarray, np.ndarray]:
    """Λ-transformed start and span of each feasible interval.

    The demography-conditional kernel works in the *rescaled* time
    τ = Λ(t) (:mod:`repro.demography`): because ν(t) multiplies every
    pairwise coalescent hazard — active–active and active–inactive alike —
    the killed death process of :mod:`repro.proposals.kinetics` has
    *constant* rates in τ, so the constant-size backward/forward machinery
    applies unchanged to the transformed spans and sampled τ-offsets map
    back through Λ⁻¹.  Λ is strictly increasing, so the breakpoints, the
    inactive-lineage counts, and the activation bookkeeping of the feasible
    intervals are untouched by the transformation.

    Returns the arrays ``(tau_starts, tau_spans)``, one entry per interval.  An
    unbounded final interval transforms to span ``Λ(∞) − Λ(start)`` — which
    is *finite* for demographies whose total integrated intensity converges
    (exponential decline), correctly conditioning the resimulation on the
    lineages ever coalescing.
    """
    ends = intervals.ends
    tau_starts = np.asarray(demography.cumulative_intensity(intervals.starts), dtype=float)
    finite = np.isfinite(ends)
    tau_ends = np.full(ends.shape, demography.total_intensity())
    if np.any(finite):
        tau_ends[finite] = np.asarray(
            demography.cumulative_intensity(ends[finite]), dtype=float
        )
    return tau_starts, tau_ends - tau_starts


def build_intervals(tree: Genealogy, region: Region) -> FeasibleIntervals:
    """Split the resimulation range into feasible intervals.

    The range starts at the youngest child-root time and ends at the
    ancestor time (or extends to infinity when the parent was the root).
    Breakpoints are inserted at every child-root time (an active lineage
    appears) and at every fixed-node time strictly inside the range (the
    inactive count changes there).  Every interval's inactive count is read
    at its midpoint, all intervals at once.
    """
    start_time = min(region.child_times)
    end_time = region.ancestor_time
    child_times = np.asarray(region.child_times)

    times = tree.times
    kept = np.ones(tree.n_nodes, dtype=bool)
    kept[[region.target, region.parent]] = False
    inside = kept & (start_time < times) & (times < end_time)
    # Sort and drop equal neighbours instead of np.unique: its masked-array
    # check imports numpy.ma, which costs every process about 1 MiB of
    # resident memory on the first proposal.
    points = np.sort(np.concatenate((child_times, times[inside])))
    points = points[np.concatenate(([True], points[1:] != points[:-1]))]
    if region.bounded:
        if points[-1] < end_time:
            points = np.append(points, end_time)
    else:
        points = np.append(points, np.inf)
    if points.size < 2:
        raise ValueError("resimulation region is empty; the tree is degenerate")

    lo, hi = points[:-1], points[1:]
    midpoints = np.where(np.isfinite(hi), lo + (np.minimum(hi, lo + 1.0) - lo) * 0.5, lo + 0.5)
    # A fixed edge crosses t when child ≤ t < parent; every edge with its
    # parent at or below t has its child there too, so the count is a
    # difference of two sorted counts.
    edge_child, edge_parent = _fixed_edges(tree, region)
    n_inactive = np.searchsorted(np.sort(edge_child), midpoints, side="right") - np.searchsorted(
        np.sort(edge_parent), midpoints, side="right"
    )
    # Each child root activates in exactly one interval: the one whose
    # start equals its time (child times are themselves breakpoints, so
    # exact floating-point equality is the right test here).
    activations = np.count_nonzero(child_times == lo[:, None], axis=1)
    return FeasibleIntervals(starts=lo, ends=hi, n_inactive=n_inactive, activations=activations)


__all__.append("inactive_lineage_count")
