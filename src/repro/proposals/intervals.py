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

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..genealogy.tree import Genealogy

__all__ = [
    "Region",
    "Regions",
    "FeasibleIntervals",
    "IntervalStack",
    "extract_region",
    "extract_regions",
    "build_intervals",
    "build_interval_stack",
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
class Regions:
    """The neighbourhoods of a stack of K equal-sized trees, one target each, as arrays.

    Row ``k`` holds the fields of tree ``k``'s :class:`Region`: ``target``,
    ``parent``, ``ancestor`` and ``ancestor_time`` are ``(K,)``,
    ``child_roots`` and ``child_times`` ``(K, 3)`` (the target's two
    children, then its sibling).
    """

    target: np.ndarray
    parent: np.ndarray
    ancestor: np.ndarray
    ancestor_time: np.ndarray
    child_roots: np.ndarray
    child_times: np.ndarray

    def rows(self) -> list[Region]:
        """Every row as a :class:`Region`, in order."""
        return [
            Region(
                target=target,
                parent=parent,
                ancestor=ancestor,
                ancestor_time=ancestor_time,
                child_roots=tuple(roots),
                child_times=tuple(times),
            )
            for target, parent, ancestor, ancestor_time, roots, times in zip(
                self.target.tolist(),
                self.parent.tolist(),
                self.ancestor.tolist(),
                self.ancestor_time.tolist(),
                self.child_roots.tolist(),
                self.child_times.tolist(),
            )
        ]

    @classmethod
    def of(cls, regions: Sequence[Region]) -> "Regions":
        """The rows of ``regions``, in order."""
        return cls(
            target=np.array([r.target for r in regions], dtype=np.int64),
            parent=np.array([r.parent for r in regions], dtype=np.int64),
            ancestor=np.array([r.ancestor for r in regions], dtype=np.int64),
            ancestor_time=np.array([r.ancestor_time for r in regions], dtype=float),
            child_roots=np.array([r.child_roots for r in regions], dtype=np.int64),
            child_times=np.array([r.child_times for r in regions], dtype=float),
        )


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


@dataclass(frozen=True)
class IntervalStack:
    """The feasible intervals of K resimulation ranges, padded to a common count.

    ``counts[k]`` is range ``k``'s interval count ``M_k``; the other arrays
    are ``(K, P)`` with ``P = max M_k``, row ``k`` holding range ``k``'s
    :class:`FeasibleIntervals` in its first ``M_k`` entries.  The entries
    past ``M_k`` are zero: empty intervals at time 0 with nothing inactive
    and nothing activated.
    """

    starts: np.ndarray
    ends: np.ndarray
    n_inactive: np.ndarray
    activations: np.ndarray
    counts: np.ndarray

    def __getitem__(self, k: int) -> FeasibleIntervals:
        m = int(self.counts[k])
        return FeasibleIntervals(
            starts=self.starts[k, :m],
            ends=self.ends[k, :m],
            n_inactive=self.n_inactive[k, :m],
            activations=self.activations[k, :m],
        )

    @property
    def lengths(self) -> np.ndarray:
        """Interval lengths (a range's last may be ``inf``; padding is 0)."""
        return self.ends - self.starts


def extract_region(tree: Genealogy, target: int) -> Region:
    """Identify the neighbourhood of resimulation around ``target``.

    ``target`` must be an interior node other than the root.
    """
    (region,) = extract_regions(
        tree.times[None], tree.parent[None], tree.children[None], np.array([target])
    ).rows()
    return region


def extract_regions(
    times: np.ndarray, parent: np.ndarray, children: np.ndarray, targets: np.ndarray
) -> Regions:
    """The neighbourhood around ``targets[k]`` in tree ``k`` of a stack, for every ``k``.

    ``times``, ``parent`` and ``children`` are the ``(K, n_nodes)`` (and
    ``(K, n_nodes, 2)``) arrays of K equal-sized trees.  Every target must
    be an interior node other than its tree's root.
    """
    targets = np.asarray(targets, dtype=np.int64)
    lowest = min(targets.tolist())
    if lowest < (times.shape[1] + 1) // 2:
        raise ValueError(f"target {lowest} is a tip; only interior nodes can be resimulated")
    rows = np.arange(targets.shape[0])
    parents = parent[rows, targets]
    if min(parents.tolist()) < 0:
        raise ValueError("the root cannot be targeted for resimulation")
    ancestors = parent[rows, parents]
    child_roots = np.empty((targets.shape[0], 3), dtype=np.int64)
    child_roots[:, :2] = children[rows, targets]
    # The parent's two children are the target and its sibling.
    child_roots[:, 2] = children[rows, parents].sum(axis=1) - targets
    ancestor_time = times[rows, ancestors]
    ancestor_time[ancestors < 0] = np.inf
    return Regions(
        target=targets,
        parent=parents,
        ancestor=ancestors,
        ancestor_time=ancestor_time,
        child_roots=child_roots,
        child_times=times[rows[:, None], child_roots],
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


def _range_keys(rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The ``(row, value)`` pairs, flat, as complex numbers: NumPy orders them by row, then value.

    The parts are assigned, not computed, so every value keeps its bits
    (``1j * inf`` would make a NaN real part).
    """
    keys = np.empty(values.shape, dtype=complex)
    keys.real = rows
    keys.imag = values
    return keys.ravel()


def build_intervals(tree: Genealogy, region: Region) -> FeasibleIntervals:
    """Split the resimulation range of ``region`` into feasible intervals.

    One range of :func:`build_interval_stack`.
    """
    return build_interval_stack(tree.times[None], tree.parent[None], Regions.of([region]))[0]


def build_interval_stack(times: np.ndarray, parent: np.ndarray, regions: Regions) -> IntervalStack:
    """Split the resimulation range of every region of a stack into feasible intervals.

    ``times`` and ``parent`` are the ``(K, n_nodes)`` arrays of K
    equal-sized trees and ``regions`` one region in each.  A range starts
    at the youngest child-root time and ends at the ancestor time (or
    extends to infinity when the parent was the root).  Breakpoints are
    inserted at every child-root time (an active lineage appears) and at
    every fixed-node time strictly inside the range (the inactive count
    changes there).  Every interval's inactive count is read at its
    midpoint.  All ranges are built at once: one sort of every tree's
    candidate breakpoints, one comparison of every midpoint with every
    fixed edge.
    """
    n_ranges, n_nodes = times.shape
    child_times = regions.child_times
    end_time = regions.ancestor_time[:, None]
    target, region_parent = regions.target[:, None], regions.parent[:, None]
    nodes = np.arange(n_nodes)
    kept = (nodes != target) & (nodes != region_parent)
    inside = kept & (times > child_times.min(axis=1, keepdims=True)) & (times < end_time)
    # Candidate breakpoints: the child times, the fixed nodes inside the
    # range and its end (inf when unbounded; never below the other
    # candidates); NaN marks no candidate and sorts last.  Equal
    # neighbours are dropped by masking them to NaN and sorting again.
    points = np.concatenate((child_times, np.where(inside, times, np.nan), end_time), axis=1)
    points.sort(axis=1)
    points[:, 1:][points[:, 1:] == points[:, :-1]] = np.nan
    points.sort(axis=1)
    # The target and its parent are never candidates, so every row has a NaN.
    counts = np.isnan(points).argmax(axis=1) - 1
    if min(counts.tolist()) < 1:
        raise ValueError("resimulation region is empty; the tree is degenerate")
    width = max(counts.tolist())
    real = np.arange(width) < counts[:, None]
    lo = np.where(real, points[:, :width], 0.0)
    hi = np.where(real, points[:, 1 : width + 1], 0.0)

    midpoints = np.where(np.isfinite(hi), lo + (np.minimum(hi, lo + 1.0) - lo) * 0.5, lo + 0.5)
    # A fixed edge (one not involving the deleted target and parent)
    # crosses t when child ≤ t < parent; every edge with its parent at or
    # below t has its child there too, so the count is a difference of two
    # sorted counts.  Other nodes' edges sit at inf and count nowhere.  Each
    # range's counts come from one searchsorted over every range at once:
    # complex keys (range, time) sort by range, then by time.
    rows = np.arange(n_ranges)[:, None]
    fixed = kept & (parent >= 0) & (parent != target) & (parent != region_parent)
    child_side = np.where(fixed, times, np.inf)
    parent_side = np.where(fixed, times[rows, parent], np.inf)
    queries = _range_keys(rows, midpoints)
    n_inactive = (
        np.searchsorted(np.sort(_range_keys(rows, child_side)), queries, side="right")
        - np.searchsorted(np.sort(_range_keys(rows, parent_side)), queries, side="right")
    ).reshape(midpoints.shape)
    # Each child root activates in exactly one interval: the one whose
    # start equals its time (child times are themselves breakpoints, so
    # exact floating-point equality is the right test here).
    activations = (child_times[:, None, :] == lo[:, :, None]).sum(axis=2)
    return IntervalStack(
        starts=lo,
        ends=hi,
        n_inactive=np.where(real, n_inactive, 0),
        activations=np.where(real, activations, 0),
        counts=counts,
    )


__all__.append("inactive_lineage_count")
