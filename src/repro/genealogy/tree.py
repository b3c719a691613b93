"""Genealogical tree (coalescent genealogy) data structure.

A genealogy over ``n`` sampled sequences is a strictly bifurcating rooted
tree with ``n`` tips (the present-day samples, all at time 0) and ``n - 1``
interior nodes (coalescent events) at strictly positive times, measured
backwards into the past.  The root is the most recent common ancestor of all
samples (Section 2.4, Fig. 3).

The representation is array-based so the whole tree can be copied, hashed,
and shipped to the vectorized likelihood kernels cheaply:

* ``times[k]``    — the time of node ``k`` (0.0 for tips),
* ``parent[k]``   — index of the parent node (−1 for the root),
* ``children[k]`` — the two child indices of interior node ``k`` (−1, −1 for
  tips).

Node indices 0..n−1 are tips in the same order as the alignment rows; indices
n..2n−2 are interior nodes.  Because every parent is strictly older than its
children, sorting nodes by time yields a valid post-order (children before
parents), which both the pruning likelihood and the coalescent prior exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["ArenaRows", "Genealogy", "TreeValidationError"]


class TreeValidationError(ValueError):
    """Raised when a genealogy's arrays do not describe a valid coalescent tree."""


class ArenaRows(NamedTuple):
    """Where one likelihood engine holds a genealogy's per-node partials.

    ``rows[k]`` is node ``k``'s row in the engine's partials arena (-1: none)
    and ``versions[k]`` that row's version when it was recorded; the engine
    bumps a row's version whenever it frees the row, so a record naming a
    freed or reused row no longer matches.  ``owner`` is the engine's
    identity token, and ``key`` is the genealogy's
    :meth:`Genealogy._structure_key` at recording time, so an in-place edit
    of ``times`` or ``children`` voids the record.
    """

    owner: object
    key: tuple[bytes, bytes]
    rows: np.ndarray
    versions: np.ndarray


@dataclass
class Genealogy:
    """A rooted, strictly bifurcating, time-stamped genealogy."""

    times: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    tip_names: tuple[str, ...] = field(default=())

    #: Index of the root once :attr:`root` has looked it up (-1: not yet).
    _root: ClassVar[int] = -1
    #: The likelihood engine's rows for this genealogy's partials, once an
    #: engine has evaluated it or a proposal inherited them (see
    #: :meth:`inherit_rows`).  :meth:`copy` and pickling carry none.
    arena_rows: ClassVar[ArenaRows | None] = None

    # ------------------------------------------------------------------ #
    # Construction and validation
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float).copy()
        self.parent = np.asarray(self.parent, dtype=np.int64).copy()
        self.children = np.asarray(self.children, dtype=np.int64).copy()
        if not self.tip_names:
            self.tip_names = tuple(f"tip{i}" for i in range(self.n_tips))
        else:
            self.tip_names = tuple(self.tip_names)

    @property
    def n_nodes(self) -> int:
        """Total node count, ``2 n_tips - 1``."""
        return int(self.times.shape[0])

    @property
    def n_tips(self) -> int:
        """Number of sampled sequences at the tips."""
        return (self.n_nodes + 1) // 2

    @property
    def n_internal(self) -> int:
        """Number of interior (coalescent) nodes."""
        return self.n_tips - 1

    @property
    def root(self) -> int:
        """Index of the root node (the unique node with no parent).

        Found from ``parent`` on first use, then kept and passed on by
        :meth:`copy`.  The proposal machinery rewires copies in place but
        keeps the root's index; code that moves the root must reset
        ``_root`` to -1.  :meth:`validate` checks the kept value.
        """
        if self._root < 0:
            self._root = self._count_root()
        return self._root

    def _count_root(self) -> int:
        """The unique node with no parent, counted from the ``parent`` array."""
        roots = np.flatnonzero(self.parent < 0)
        if roots.size != 1:
            raise TreeValidationError(f"expected exactly one root, found {roots.size}")
        return int(roots[0])

    def is_tip(self, node: int) -> bool:
        """True if ``node`` is a tip (sampled sequence)."""
        return node < self.n_tips

    def internal_nodes(self) -> np.ndarray:
        """Indices of all interior nodes."""
        return np.arange(self.n_tips, self.n_nodes)

    def validate(self) -> None:
        """Check every structural invariant; raise :class:`TreeValidationError` on failure."""
        n = self.n_nodes
        if n < 3 or n % 2 == 0:
            raise TreeValidationError(f"node count must be odd and >= 3, got {n}")
        if self.parent.shape != (n,) or self.times.shape != (n,) or self.children.shape != (n, 2):
            raise TreeValidationError("array shapes are inconsistent")
        if len(self.tip_names) != self.n_tips:
            raise TreeValidationError(
                f"{len(self.tip_names)} tip names for {self.n_tips} tips"
            )
        root = self._count_root()  # from the array: also checks uniqueness
        if self._root >= 0 and self._root != root:
            raise TreeValidationError(f"stored root {self._root} is not the root {root}")

        # Tips: time 0, no children.
        if not np.allclose(self.times[: self.n_tips], 0.0):
            raise TreeValidationError("tips must all be at time 0.0")
        if np.any(self.children[: self.n_tips] != -1):
            raise TreeValidationError("tips must have no children")

        # Interior nodes: strictly positive time, two distinct children whose
        # recorded parent points back, and each strictly younger.
        for node in self.internal_nodes():
            c0, c1 = self.children[node]
            if c0 < 0 or c1 < 0 or c0 == c1:
                raise TreeValidationError(f"interior node {node} lacks two distinct children")
            for c in (c0, c1):
                if not 0 <= c < n:
                    raise TreeValidationError(f"child index {c} out of range at node {node}")
                if self.parent[c] != node:
                    raise TreeValidationError(
                        f"child {c} of node {node} records parent {self.parent[c]}"
                    )
                if self.times[c] >= self.times[node]:
                    raise TreeValidationError(
                        f"node {node} (t={self.times[node]}) is not older than child {c} "
                        f"(t={self.times[c]})"
                    )
            if self.times[node] <= 0.0:
                raise TreeValidationError(f"interior node {node} has non-positive time")

        # Every non-root node's parent must list it as a child.
        for node in range(n):
            if node == root:
                continue
            p = self.parent[node]
            if not 0 <= p < n:
                raise TreeValidationError(f"node {node} has invalid parent {p}")
            if node not in self.children[p]:
                raise TreeValidationError(f"node {node} not found among children of its parent {p}")

        # Connectivity: everything must be reachable from the root.
        seen = set()
        stack = [root]
        while stack:
            nd = stack.pop()
            if nd in seen:
                raise TreeValidationError(f"cycle detected at node {nd}")
            seen.add(nd)
            c0, c1 = self.children[nd]
            if c0 >= 0:
                stack.extend((int(c0), int(c1)))
        if len(seen) != n:
            raise TreeValidationError(
                f"tree is disconnected: reached {len(seen)} of {n} nodes from the root"
            )

    def __getstate__(self) -> dict:
        # Arena rows name memory inside one in-process engine.
        state = self.__dict__.copy()
        state.pop("arena_rows", None)
        return state

    @classmethod
    def _adopt(
        cls,
        times: np.ndarray,
        parent: np.ndarray,
        children: np.ndarray,
        tip_names: tuple[str, ...],
        root: int,
    ) -> "Genealogy":
        """A genealogy over arrays the caller hands over, without copying them.

        The proposal kernel writes every candidate of a set into its own row
        of one block, so the rows are already private, correctly typed
        copies; :meth:`__post_init__` would copy each again.
        """
        new = cls.__new__(cls)
        new.times, new.parent, new.children = times, parent, children
        new.tip_names = tip_names
        new._root = root
        return new

    def copy(self) -> "Genealogy":
        """Deep copy (the proposal machinery edits copies in place)."""
        new = Genealogy(
            times=self.times.copy(),
            parent=self.parent.copy(),
            children=self.children.copy(),
            tip_names=self.tip_names,
        )
        new._root = self._root
        return new

    # ------------------------------------------------------------------ #
    # Navigation
    # ------------------------------------------------------------------ #
    def sibling(self, node: int) -> int:
        """Return the other child of ``node``'s parent."""
        p = int(self.parent[node])
        if p < 0:
            raise ValueError("the root has no sibling")
        c0, c1 = self.children[p]
        return int(c1 if c0 == node else c0)

    def postorder(self) -> np.ndarray:
        """Node indices ordered children-before-parents.

        Because parents are strictly older than children, sorting by time
        (with tips, all at time 0, first) is a valid post-order.  Ties among
        tips are broken by index for determinism.

        The order is memoized per node-time vector (the sort's only input),
        keyed by the raw time bytes so in-place time edits — the proposal
        machinery mutates copies directly — invalidate it; repeated
        evaluations of an unchanged genealogy (the generator state, every
        engine's prior/likelihood passes) stop re-sorting identical orders.
        The returned array is shared and marked read-only.
        """
        key = self.times.tobytes()
        cached = getattr(self, "_postorder_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        order = np.lexsort((np.arange(self.n_nodes), self.times))
        order.setflags(write=False)
        self._postorder_cache = (key, order)
        return order

    def branch_length(self, node: int) -> float:
        """Length of the branch from ``node`` up to its parent."""
        p = int(self.parent[node])
        if p < 0:
            raise ValueError("the root has no parent branch")
        return float(self.times[p] - self.times[node])

    def branch_lengths(self) -> np.ndarray:
        """Branch lengths for every node (0.0 recorded for the root)."""
        out = np.zeros(self.n_nodes)
        has_parent = self.parent >= 0
        out[has_parent] = self.times[self.parent[has_parent]] - self.times[has_parent]
        return out

    def total_branch_length(self) -> float:
        """Sum of all branch lengths in the genealogy."""
        return float(self.branch_lengths().sum())

    def tree_height(self) -> float:
        """Time of the root (time to the most recent common ancestor)."""
        return float(self.times[self.root])

    def subtree_tips(self, node: int) -> list[int]:
        """All tip indices descending from (and including) ``node``."""
        tips = []
        stack = [node]
        while stack:
            nd = stack.pop()
            if self.is_tip(nd):
                tips.append(nd)
            else:
                c0, c1 = self.children[nd]
                stack.extend((int(c0), int(c1)))
        return sorted(tips)

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(parent, child, length)`` for every branch."""
        for node in range(self.n_nodes):
            p = int(self.parent[node])
            if p >= 0:
                yield p, node, float(self.times[p] - self.times[node])

    # ------------------------------------------------------------------ #
    # Coalescent bookkeeping
    # ------------------------------------------------------------------ #
    def coalescent_times(self) -> np.ndarray:
        """Interior-node times sorted increasing (the coalescent event times)."""
        return np.sort(self.times[self.n_tips :])

    def coalescent_intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The interval decomposition of Fig. 3.

        Returns
        -------
        lengths:
            ``(n_tips - 1,)`` interval lengths ``t_i``; ``lengths[i]`` is the
            waiting time leading up to the ``i+1``-th coalescent event.
        lineages:
            ``(n_tips - 1,)`` number of lineages present during each interval
            (``n_tips - i`` during interval ``i``).
        """
        ctimes = self.coalescent_times()
        bounds = np.concatenate(([0.0], ctimes))
        lengths = np.diff(bounds)
        lineages = self.n_tips - np.arange(self.n_tips - 1)
        return lengths, lineages

    def interval_representation(self) -> np.ndarray:
        """Just the interval lengths — all the MLE stage stores per sample.

        The paper notes (Section 5.1.3) that only the time intervals between
        coalescent events are needed to evaluate P(G|θ), so sampled
        genealogies are reduced to this array.
        """
        lengths, _ = self.coalescent_intervals()
        return lengths

    # ------------------------------------------------------------------ #
    # Comparisons and representations
    # ------------------------------------------------------------------ #
    def topology_key(self) -> tuple:
        """A hashable, label-based key identifying the tree topology.

        Two genealogies with the same clade structure (ignoring node times)
        produce the same key.  Used by tests and by mixing diagnostics to
        count distinct topologies visited.
        """

        def clade(node: int) -> tuple:
            if self.is_tip(node):
                return (self.tip_names[node],)
            c0, c1 = self.children[node]
            left, right = clade(int(c0)), clade(int(c1))
            return tuple(sorted((left, right), key=repr))

        return clade(self.root)

    def subtree_signatures(self, table: dict | None = None) -> np.ndarray:
        """Per-node subtree signature ids: a reference walk, not used by the engines.

        ``signatures[k]`` identifies the *entire computation* that produces
        node ``k``'s partial likelihoods: the tip rows below it, the subtree
        topology, and every branch length inside the subtree.  Two nodes —
        in the same genealogy or across genealogies sharing ``table`` (a
        dict from structural key to id) — receive equal ids exactly when
        those inputs are bitwise identical (keys are compared by equality,
        not by hash).

        Child order is canonicalized (the two ``(signature, branch-length)``
        pairs are sorted), which is value-preserving because the pruning
        recursion multiplies the two child contributions elementwise.
        """
        if table is None:
            table = {}
        n_tips = self.n_tips
        times = self.times.tolist()
        children = self.children.tolist()
        sigs = [0] * self.n_nodes
        for node in self.postorder().tolist():
            if node < n_tips:
                key = (-1, node)
            else:
                c0, c1 = children[node]
                pair0 = (sigs[c0], times[node] - times[c0])
                pair1 = (sigs[c1], times[node] - times[c1])
                key = pair0 + pair1 if pair0 <= pair1 else pair1 + pair0
            sigs[node] = table.setdefault(key, len(table))
        return np.asarray(sigs, dtype=np.int64)

    def dirty_nodes(self, baseline: "Genealogy") -> np.ndarray:
        """Nodes of ``self`` whose subtree computation cannot be reused from ``baseline``.

        After a local perturbation this is exactly the modified region plus
        the path from it to the root — the set an incremental engine must
        re-prune when ``baseline``'s partials are cached.  Returned sorted by
        node index.  The reference for the rows a proposal inherits.
        """
        table: dict = {}
        known = np.unique(baseline.subtree_signatures(table))
        mine = self.subtree_signatures(table)
        return np.flatnonzero(~np.isin(mine, known))

    def inherit_rows(self, base: "Genealogy", rewritten: Sequence[int]) -> None:
        """Take ``base``'s arena rows for every node outside ``rewritten``.

        ``self`` is a copy of ``base`` whose subtrees differ only at
        ``rewritten`` — after a neighbourhood resimulation, the two
        re-created nodes plus the path from the region's ancestor to the
        root.  Every other node's partials are ``base``'s, so the engine
        re-prunes only the rewritten nodes.  A no-op when ``base`` holds no
        rows, or holds rows recorded before an in-place edit.
        """
        record = base.rows_for_copies(rewritten)
        if record is not None:
            self.arena_rows = record._replace(key=self._structure_key())

    def rows_for_copies(self, rewritten: Sequence[int]) -> ArenaRows | None:
        """This genealogy's arena rows with ``rewritten`` cleared, or None.

        What :meth:`inherit_rows` gives a copy, before the copy's own key is
        set; a proposal set computes it once for all its candidates.  None
        when there are no rows, or they were recorded before an in-place
        edit.  The returned ``rows`` array is shared, so it is read-only.
        """
        record = self.arena_rows
        if record is None or record.key != self._structure_key():
            return None
        rows = record.rows.copy()
        rows[list(rewritten)] = -1
        rows.setflags(write=False)
        return record._replace(rows=rows)

    def _structure_key(self) -> tuple[bytes, bytes]:
        """Raw bytes of everything a node's partials depend on (times and topology)."""
        return self.times.tobytes(), self.children.tobytes()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Genealogy):
            return NotImplemented
        return (
            self.tip_names == other.tip_names
            and np.allclose(self.times, other.times)
            and np.array_equal(self.parent, other.parent)
            and np.array_equal(self.children, other.children)
        )

    def __repr__(self) -> str:
        return (
            f"Genealogy(n_tips={self.n_tips}, height={self.tree_height():.4f}, "
            f"total_branch_length={self.total_branch_length():.4f})"
        )

    # ------------------------------------------------------------------ #
    # Builders
    # ------------------------------------------------------------------ #
    @classmethod
    def from_times_and_topology(
        cls,
        merge_order: Sequence[tuple[int, int]],
        merge_times: Sequence[float],
        tip_names: Sequence[str] | None = None,
    ) -> "Genealogy":
        """Build a genealogy from a sequence of merges.

        Parameters
        ----------
        merge_order:
            For each coalescent event (oldest last), the pair of *current
            lineage representatives* that coalesce.  Lineages are referred to
            by node index; after a merge the new interior node's index
            represents the merged lineage.
        merge_times:
            Strictly increasing times of the coalescent events.
        tip_names:
            Optional names for the tips.
        """
        n_events = len(merge_order)
        n_tips = n_events + 1
        n_nodes = 2 * n_tips - 1
        times = np.zeros(n_nodes)
        parent = np.full(n_nodes, -1, dtype=np.int64)
        children = np.full((n_nodes, 2), -1, dtype=np.int64)
        prev_t = 0.0
        for i, ((a, b), t) in enumerate(zip(merge_order, merge_times)):
            node = n_tips + i
            if t <= prev_t:
                raise TreeValidationError("merge times must be strictly increasing")
            prev_t = float(t)
            times[node] = float(t)
            children[node] = (a, b)
            parent[a] = node
            parent[b] = node
        names = tuple(tip_names) if tip_names else tuple(f"tip{i}" for i in range(n_tips))
        tree = cls(times=times, parent=parent, children=children, tip_names=names)
        tree.validate()
        return tree
