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

import weakref
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence

import numpy as np

__all__ = ["Genealogy", "TreeValidationError", "SignatureInterner"]


class TreeValidationError(ValueError):
    """Raised when a genealogy's arrays do not describe a valid coalescent tree."""


class SignatureInterner:
    """Hash-consing table mapping structural subtree keys to dense integer ids.

    Two subtrees receive the same id *if and only if* they are structurally
    identical: same tip rows, same topology, and bitwise-equal branch lengths
    (keys are compared by equality, not by hash, so there are no collision
    hazards).  Sharing one interner across many genealogies is what lets the
    incremental likelihood engine recognise that a proposal left most of the
    tree untouched.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        #: Bumped by :meth:`clear`; signature arrays memoized on genealogies
        #: record it, so ids issued before a clear are never reused after it.
        self.generation = 0

    def intern(self, key: tuple) -> int:
        """Return the stable id for ``key``, assigning a fresh one if new."""
        found = self._ids.get(key)
        if found is None:
            found = len(self._ids)
            self._ids[key] = found
        return found

    def __len__(self) -> int:
        return len(self._ids)

    def clear(self) -> None:
        """Forget every interned key (invalidates all previously issued ids)."""
        self._ids.clear()
        self.generation += 1


def _memo_valid(memo: tuple, interner: SignatureInterner, key: tuple) -> bool:
    """Whether a ``(interner ref, generation, structure key, ...)`` record still applies."""
    return memo[0]() is interner and memo[1] == interner.generation and memo[2] == key


def _intern_interior(node: int, sigs, times: list, children: list, interner) -> int:
    """Signature id of interior ``node`` from its children's ids and branch lengths."""
    c0, c1 = children[node]
    pair0 = (int(sigs[c0]), times[node] - times[c0])
    pair1 = (int(sigs[c1]), times[node] - times[c1])
    if pair1 < pair0:
        pair0, pair1 = pair1, pair0
    return interner.intern(pair0 + pair1)


@dataclass
class Genealogy:
    """A rooted, strictly bifurcating, time-stamped genealogy."""

    times: np.ndarray
    parent: np.ndarray
    children: np.ndarray
    tip_names: tuple[str, ...] = field(default=())

    #: Index of the root once :attr:`root` has looked it up (-1: not yet).
    _root: ClassVar[int] = -1

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
        # Memoized signatures refer to an in-process interner (by weak
        # reference, which cannot be pickled and means nothing elsewhere).
        state = self.__dict__.copy()
        state.pop("_signature_memo", None)
        state.pop("_signature_seed", None)
        return state

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

    def subtree_signatures(self, interner: SignatureInterner | None = None) -> np.ndarray:
        """Per-node subtree signature ids (the incremental engine's cache keys).

        ``signatures[k]`` identifies the *entire computation* that produces
        node ``k``'s partial likelihoods: the tip rows below it, the subtree
        topology, and every branch length inside the subtree.  Two nodes —
        in the same genealogy or across different genealogies sharing the
        ``interner`` — receive equal ids exactly when those inputs are
        bitwise identical, so a cached partial-likelihood array indexed by
        the signature can be reused verbatim.

        Child order is canonicalized (the two ``(signature, branch-length)``
        pairs are sorted), which is value-preserving because the pruning
        recursion multiplies the two child contributions elementwise.

        With a shared ``interner`` the result is memoized on the genealogy
        (keyed by the interner, its generation and the raw time/child bytes,
        so in-place edits or an interner ``clear`` invalidate it) and
        returned read-only.  A genealogy marked by
        :meth:`derive_signatures` copies its base's memoized array and
        re-interns only the rewritten nodes — O(depth) instead of a full
        post-order walk.
        """
        if interner is None:
            return self._walk_signatures(SignatureInterner())
        key = self._structure_key()
        memo = getattr(self, "_signature_memo", None)
        if memo is not None and _memo_valid(memo, interner, key):
            return memo[3]
        sigs = None
        seed = getattr(self, "_signature_seed", None)
        if seed is not None:
            self._signature_seed = None  # one-shot: the memo takes over
            if _memo_valid(seed, interner, key):
                sigs = seed[3].copy()
                times = self.times.tolist()
                children = self.children.tolist()
                for node in seed[4]:
                    sigs[node] = _intern_interior(node, sigs, times, children, interner)
        if sigs is None:
            sigs = self._walk_signatures(interner)
        sigs.setflags(write=False)
        self._signature_memo = (weakref.ref(interner), interner.generation, key, sigs)
        return sigs

    def _walk_signatures(self, interner: SignatureInterner) -> np.ndarray:
        """Full post-order signature walk (the reference for the incremental path)."""
        n_tips = self.n_tips
        times = self.times.tolist()
        children = self.children.tolist()
        sigs = [0] * self.n_nodes
        for node in self.postorder().tolist():
            if node < n_tips:
                sigs[node] = interner.intern((-1, node))
            else:
                sigs[node] = _intern_interior(node, sigs, times, children, interner)
        return np.asarray(sigs, dtype=np.int64)

    def derive_signatures(self, base: "Genealogy", changed: Sequence[int]) -> None:
        """Declare ``self`` a copy of ``base`` rewritten only at ``changed``.

        ``changed`` lists, children before parents, every node whose subtree
        differs from ``base`` — after a neighbourhood resimulation, the two
        re-created nodes plus the path from the region's ancestor to the
        root.  If ``base`` holds a valid memoized signature array, the next
        :meth:`subtree_signatures` call with the same interner inherits it
        for every other node.  Otherwise this is a no-op and the full walk
        runs as usual.
        """
        memo = getattr(base, "_signature_memo", None)
        if memo is None or memo[2] != base._structure_key():
            return
        interner_ref, generation, _, base_sigs = memo
        self._signature_seed = (
            interner_ref, generation, self._structure_key(), base_sigs, tuple(changed)
        )

    def _structure_key(self) -> tuple[bytes, bytes]:
        """Raw bytes of everything a signature depends on (times and topology)."""
        return self.times.tobytes(), self.children.tobytes()

    def dirty_nodes(
        self, baseline: "Genealogy", interner: SignatureInterner | None = None
    ) -> np.ndarray:
        """Nodes of ``self`` whose subtree computation cannot be reused from ``baseline``.

        After a local perturbation this is exactly the modified region plus
        the path from it to the root — the set an incremental engine must
        re-prune when ``baseline``'s partials are cached.  Returned sorted by
        node index.
        """
        if interner is None:
            interner = SignatureInterner()
        known = np.unique(baseline.subtree_signatures(interner))
        mine = self.subtree_signatures(interner)
        return np.flatnonzero(~np.isin(mine, known))

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
