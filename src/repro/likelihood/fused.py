"""The sparse proposal-set engine: stacked dirty-path pruning over a partials arena.

The paper's core performance claim (Sections 5.2.1–5.2.2) is that the GMH
proposal and data-likelihood kernels win by evaluating the *whole proposal
set* as one data-parallel unit over partials that stay resident in device
memory.  :class:`FusedEngine` does that with two ingredients.

**Rows that travel with the tree.**  Cached partials live in rows of one
growable state-major ``(rows, 4, n_patterns)`` array plus a
``(rows, n_patterns)`` log-scale array; rows ``0 .. n_tips - 1`` hold the
tip partials (the shared :class:`~repro.likelihood.felsenstein.SiteData`
tips, transposed once).  After it evaluates a tree the engine records that
tree's per-node rows on it (:class:`repro.genealogy.tree.ArenaRows`),
together with each row's version and the tree's structure key.  Sibling
proposals share everything outside their resimulated neighbourhood, and the
proposal kernel knows which nodes it rewrote, so a proposal copies its
generator's rows and clears only those
(:meth:`repro.genealogy.tree.Genealogy.inherit_rows`): each candidate's
*dirty path* — the resimulated region plus its ancestors — is all that is
re-pruned.  A row's version is bumped whenever the row is freed, so the
dirty mask of a batch is one gather-and-compare: a node is dirty when its
row is missing, stale, recorded by another engine, or recorded before an
in-place edit of the tree.  A tree without rows (a :meth:`copy`, an
unpickled tree, a fresh start tree) is pruned in full from the tip rows.

**A stacked sweep.**  Planning a batch is a handful of host-side array
gathers: each candidate's dirty nodes are ordered by node time (children
before parents), and the work items are laid out in (depth step, candidate)
order.  Fresh rows are allocated before the sweep; the d-th dirty node of
every candidate is then computed in one stacked
``(k, 4, 4) @ (k, 4, n_patterns)`` matmul of the model's transition
matrices and child rows gathered straight from the arena.  The two
children's products are multiplied and rescaled by their per-pattern peak
over the state axis in place in the matmul's output, their log-scales are
summed in place in the gathered scales, and each result is scattered once
into the items' rows.  Transition matrices are deduplicated by a host-side
``unique`` of the batch's branch lengths, since siblings share most
branches bitwise.

The mask equals a top-down walk that stops at cached nodes because valid
rows are closed under descendants: a row is computed from the rows its tree
records at the node's children, a proposal clears every ancestor of a node
it rewrites, and :meth:`FusedEngine.retain` keeps whole trees.  A subtree
that two candidates of one batch both lack is computed twice, bitwise
equal.

**A warm-up that usually does nothing.**  ``prepare`` makes a GMH
generator's rows the working set before its proposal set is built.  The
generator is nearly always a candidate of the previous set, kept by that
set's :meth:`~FusedEngine.retain`, so all its rows are live: then nothing
is planned, swept or read out, and only the cached root a batch of one
would stop at is counted.

The arithmetic per recomputed node is identical to the other engines'
pruning step (pattern compression and per-node log-scaling included), so
results agree to floating-point accumulation order and fixed-seed chains
visit identical states — pinned down by the cross-engine equivalence suite.
Each stacked slice is one 4×4 product per pattern, every other step of the
sweep is elementwise or an exact maximum, and the readout sums the states
pattern-major as the trailing-axis engines do.  A tree's value never
depends on which other trees share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..genealogy.tree import ArenaRows, Genealogy
from .engines import _ENGINES, LikelihoodEngine
from .felsenstein import _TINY

__all__ = ["FusedEngine"]

Array = np.ndarray


def _state_peak(vec: Array) -> Array:
    """Per-pattern scaling factor of ``(k, 4, n_patterns)`` partials, floored at ``_TINY``.

    The largest of the four state partials, reduced over the middle axis;
    the maximum is exact, so it equals the trailing-axis engines' peak.
    """
    peak = vec.max(axis=1)
    return np.where(peak > 0.0, peak, _TINY)


@dataclass
class FusedEngine(LikelihoodEngine):
    """Incremental pruning of all N+1 siblings' dirty paths in one stacked kernel.

    The arena holds a *working set*: samplers declare their current
    state(s) through :meth:`retain` (the GMH ``prepare`` hook does so for
    every proposal set), and rows off those states return to a free list,
    so a GMH chain keeps one tree's partials plus one set's dirty paths.
    ``evaluate(tree)`` is a batch of one.

    Parameters
    ----------
    max_entries:
        Cap on live interior-node rows; a batch that starts above it clears
        the arena first.  Each row holds one ``(4, n_patterns)`` partial
        array plus an ``(n_patterns,)`` log-scale vector, so the default
        (``None``) derives the cap from a ~64 MiB byte budget once the
        alignment's pattern count is known.  Only callers that never call
        :meth:`retain` come near it.

    Work accounting
    ---------------
    ``n_nodes_pruned`` counts only the interior nodes actually recomputed;
    ``n_tree_site_products`` accrues the matching fraction of a full-tree
    evaluation (fractional remainders are carried between calls, so long-run
    totals are exact), which keeps the counters directly comparable with the
    full-pruning engines.  ``n_cache_hits`` counts the cached subtrees a
    top-down walk would stop at (cached interior children of dirty nodes,
    plus cached roots) and ``n_cache_misses`` the dirty nodes.

    Stacked-kernel counters, over every stacked sweep (``prepare`` and
    ``evaluate`` included):

    ``n_stacked_steps``
        Stacked matmul launches (one per dirty depth level per batch).
    ``n_workspace_items``
        Dirty nodes computed.
    ``n_padded_items``
        Lanes the ``(n_trees, max_dirty)`` stacked schedule spans;
        ``workspace_occupancy`` is the ratio of the two.
    ``n_pmat_requests`` / ``n_pmat_builds``
        Transition matrices the batch's work items referenced (two child
        branches per item) versus the *unique* branch lengths actually
        exponentiated; ``pmat_dedup_ratio`` measures the sharing between
        siblings (and, under stacked cross-chain execution, between chains).
    """

    #: Byte budget used to derive ``max_entries`` when it is not given.
    DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

    max_entries: int | None = None
    n_cache_hits: int = field(default=0, init=False)
    n_cache_misses: int = field(default=0, init=False)
    n_stacked_steps: int = field(default=0, init=False)
    n_workspace_items: int = field(default=0, init=False)
    n_padded_items: int = field(default=0, init=False)
    n_pmat_requests: int = field(default=0, init=False)
    n_pmat_builds: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 16:
            raise ValueError("max_entries must be at least 16")
        self._owner = object()  # identifies this engine's records, copies included
        self._site_product_carry = 0.0
        self._ready = False

    # ------------------------------------------------------------------ #
    # The arena
    # ------------------------------------------------------------------ #
    def _ensure_ready(self) -> None:
        if self._ready:
            return
        site_data = self.site_data  # shared hoisted patterns + tip partials
        self._pattern_weights = site_data.weights
        self._freqs = np.asarray(self.model.base_frequencies)
        n_tips = site_data.tips.shape[0]
        capacity = 3 * n_tips
        self._arena = np.empty((capacity, 4, site_data.n_cols))
        self._arena_scale = np.zeros((capacity, site_data.n_cols))
        self._arena[:n_tips] = site_data.tips.transpose(0, 2, 1)
        # version[r] is bumped whenever interior row r is freed, so a record
        # naming a freed (and maybe reused) row no longer matches; tip rows
        # are permanent and stay at version 0.
        self._version = np.zeros(capacity, dtype=np.int64)
        self._free = np.arange(n_tips, capacity)
        # The rows of a tree that records none: its tips, nothing else.
        self._bare_rows = np.concatenate([np.arange(n_tips), np.full(n_tips - 1, -1)])
        self._bare_versions = np.zeros(2 * n_tips - 1, dtype=np.int64)
        if self.max_entries is None:
            # One row: (4, n_patterns) partials + (n_patterns,) scales, f64.
            entry_bytes = 8 * 5 * site_data.n_cols
            self.max_entries = max(1024, self.DEFAULT_CACHE_BYTES // entry_bytes)
        self._ready = True

    def _allocate(self, n_rows: int) -> Array:
        """Pop ``n_rows`` free rows, regrowing the arena geometrically first."""
        short = n_rows - self._free.shape[0]
        if short > 0:
            old = self._arena.shape[0]
            capacity = max(old + short, 2 * old)
            arena = np.empty((capacity,) + tuple(self._arena.shape[1:]))
            scale = np.zeros((capacity, self._arena_scale.shape[1]))
            arena[:old] = self._arena
            scale[:old] = self._arena_scale
            self._arena, self._arena_scale = arena, scale
            self._version = np.concatenate([self._version, np.zeros(capacity - old, dtype=np.int64)])
            self._free = np.concatenate([self._free, np.arange(old, capacity)])
        rows, self._free = self._free[:n_rows], self._free[n_rows:]
        return rows

    def _recorded_rows(self, tree: Genealogy, key: tuple[bytes, bytes]) -> tuple[Array, Array]:
        """``tree``'s recorded ``(rows, versions)``, or the bare tip rows if unusable."""
        record = tree.arena_rows
        if record is None or record.owner is not self._owner or record.key != key:
            return self._bare_rows, self._bare_versions
        return record.rows, record.versions

    def _live_mask(self, rows: Array, versions: Array) -> Array:
        """Which recorded rows still hold what they held when recorded."""
        return (rows >= 0) & (self._version[rows] == versions)

    def clear_cache(self) -> None:
        """Drop every cached partial (counters are left untouched)."""
        if self._ready:
            n_tips = self.alignment.n_sequences
            self._version[n_tips:] += 1
            self._free = np.arange(n_tips, self._arena.shape[0])

    def reset_counters(self) -> None:
        """Zero the work, reuse and stacked-kernel counters; the arena is kept."""
        super().reset_counters()
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self._site_product_carry = 0.0
        self.n_stacked_steps = 0
        self.n_workspace_items = 0
        self.n_padded_items = 0
        self.n_pmat_requests = 0
        self.n_pmat_builds = 0

    @property
    def cache_size(self) -> int:
        """Number of live interior-node rows."""
        if not self._ready:
            return 0
        return self._arena.shape[0] - self.alignment.n_sequences - self._free.shape[0]

    @property
    def hit_rate(self) -> float:
        """Fraction of interior-node lookups served from the arena."""
        total = self.n_cache_hits + self.n_cache_misses
        return self.n_cache_hits / total if total else 0.0

    @property
    def workspace_occupancy(self) -> float:
        """Fraction of the stacked schedule's lanes that held real dirty-node work."""
        return self.n_workspace_items / self.n_padded_items if self.n_padded_items else 0.0

    @property
    def pmat_dedup_ratio(self) -> float:
        """Transition matrices requested per matrix actually built (≥ 1)."""
        return self.n_pmat_requests / self.n_pmat_builds if self.n_pmat_builds else 0.0

    # ------------------------------------------------------------------ #
    # The stacked sparse-batched kernel
    # ------------------------------------------------------------------ #
    def _evaluate(self, trees: list[Genealogy], counted: bool = True) -> Array:
        """Log-likelihoods of ``trees``, counted as evaluations when ``counted``."""
        self._ensure_ready()
        n_tips = self.alignment.n_sequences
        for tree in trees:
            if tree.n_tips != n_tips:
                raise ValueError("genealogy tip count does not match the alignment")
        if self.cache_size > self.max_entries:
            self.clear_cache()
        n_trees = len(trees)
        keys = [tree._structure_key() for tree in trees]
        recorded = [self._recorded_rows(tree, key) for tree, key in zip(trees, keys)]
        rows = np.stack([r for r, _ in recorded])  # (n_trees, n_nodes), written below
        cached = self._live_mask(rows, np.stack([v for _, v in recorded]))
        dirty = ~cached[:, n_tips:]  # (n_trees, n_internal)
        n_dirty = dirty.sum(axis=1)
        n_items = int(n_dirty.sum())

        # A walk from the root stops at every cached subtree it meets: the
        # cached roots of fully cached candidates, and (below) the cached
        # interior children of dirty nodes.
        hits = int((n_dirty == 0).sum())
        if n_items:
            # ---- plan: (depth step, candidate) work items by array gathers ----
            # Each candidate's dirty nodes by node time, which puts children
            # before parents; lane (t, d) is candidate t's d-th dirty node.
            times = np.array([tree.times for tree in trees])
            children = np.array([tree.children for tree in trees])
            order = np.argsort(np.where(dirty, times[:, n_tips:], np.inf), axis=1)
            max_dirty = int(n_dirty.max())
            lanes = np.arange(max_dirty) < n_dirty[:, None]
            step_of, tree_of = np.nonzero(lanes.T)  # item k, in (step, candidate) order
            node_of = order[tree_of, step_of] + n_tips
            item_children = children[tree_of, node_of]  # (n_items, 2)
            cached_children = cached[tree_of[:, None], item_children]
            hits += int(((item_children >= n_tips) & cached_children).sum())

            # One transition matrix per *unique* branch length: siblings
            # share most branches bitwise.
            lengths = times[tree_of, node_of][:, None] - times[tree_of[:, None], item_children]
            unique_lengths, inverse = np.unique(lengths.reshape(-1), return_inverse=True)
            self.n_pmat_requests += 2 * n_items
            self.n_pmat_builds += int(unique_lengths.shape[0])
            pmats = self.model.transition_matrices(unique_lengths)
            pm_idx = inverse.reshape(n_items, 2)

            # Fresh items get their rows before the sweep, so child rows are
            # one gather for tips, cached subtrees and fresh items alike.
            fresh = self._allocate(n_items)
            rows[tree_of, node_of] = fresh
            child_rows = rows[tree_of[:, None], item_children]
            arena, arena_scale = self._arena, self._arena_scale
            bounds = [0] + np.cumsum(lanes.sum(axis=0)).tolist()
            try:
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    # The step's left children, then its right children: one
                    # gather and one stacked (4, 4) @ (4, n_patterns) matmul
                    # cover both branches.
                    k = hi - lo
                    src = child_rows[lo:hi].T.reshape(-1)
                    both = np.matmul(pmats[pm_idx[lo:hi].T.reshape(-1)], arena[src])
                    vec = both[:k]
                    vec *= both[k:]
                    peak = _state_peak(vec)
                    vec /= peak[:, None, :]
                    out = fresh[lo:hi]
                    arena[out] = vec
                    scale = arena_scale[src]
                    scale[:k] += scale[k:]
                    scale[:k] += np.log(peak)
                    arena_scale[out] = scale[:k]
            except BaseException:
                self.clear_cache()  # the batch's rows are live but not all written
                raise
            self.n_stacked_steps += max_dirty
            self.n_padded_items += n_trees * max_dirty
            self.n_workspace_items += n_items

        self._record(trees, keys, rows)
        roots = rows[np.arange(n_trees), [tree.root for tree in trees]]
        values = self._readout(self._arena[roots], self._arena_scale[roots])

        self.n_cache_hits += hits
        self.n_cache_misses += n_items
        n_internal = n_tips - 1
        products = sum(self._site_products(d, n_internal) for d in n_dirty.tolist())
        self._count(n_trees if counted else 0, nodes_pruned=n_items, tree_site_products=products)
        return self._healthy(values)

    def _record(self, trees: list[Genealogy], keys: list, rows: Array) -> None:
        """Record each tree's rows (one per batch position) on the tree itself.

        A tree that fills two positions keeps the later one's rows; the
        earlier position's fresh rows stay live until :meth:`retain` or a
        clear frees them.
        """
        rows.setflags(write=False)
        versions = self._version[rows]
        for t, tree in enumerate(trees):
            tree.arena_rows = ArenaRows(self._owner, keys[t], rows[t], versions[t])

    def _readout(self, part: Array, scale: Array):
        """log P(D | G) per tree from stacked ``(n, 4, n_patterns)`` root partials.

        The states are summed pattern-major, ``(n_patterns, 4) @ (4,)`` as in
        the trailing-axis engines: the state-major ``(4,) @ (4, n_patterns)``
        product adds the four terms in another order, which moves last bits.
        Each tree's pattern weights are reduced through its own 1-D dot — not
        one multi-row matrix-vector product, whose BLAS reduction order can
        differ from the dot's — so a tree's value never depends on how many
        trees share its readout.
        """
        site_like = np.matmul(np.ascontiguousarray(part.transpose(0, 2, 1)), self._freqs)
        per_pattern = np.log(np.maximum(site_like, _TINY)) + scale
        return np.stack(
            [
                np.matmul(per_pattern[t], self._pattern_weights)
                for t in range(per_pattern.shape[0])
            ]
        )

    def _site_products(self, fresh: int, n_internal: int) -> int:
        """Fraction of a full-tree site sweep actually performed.

        The exact value is fractional; the sub-integer remainder is carried
        into the next call so the running total never drifts (and small
        workloads cannot round every contribution down to zero).
        """
        exact = self.alignment.n_sites * fresh / max(n_internal, 1) + self._site_product_carry
        whole = int(exact)
        self._site_product_carry = exact - whole
        return whole

    # ------------------------------------------------------------------ #
    # Engine interface
    # ------------------------------------------------------------------ #
    def evaluate(self, tree: Genealogy) -> float:
        return float(self._evaluate([tree])[0])

    def evaluate_batch(self, trees: list[Genealogy]) -> Array:
        if not trees:
            return np.zeros(0)
        return self._evaluate(list(trees))

    def prepare(self, tree: Genealogy) -> None:
        """Warm the arena with ``tree``'s partials and make them the working set.

        The GMH transition calls this on the generator state before building
        a proposal set, so sibling proposals find every untouched subtree
        already cached even when the generator's log-likelihood was carried
        over from the previous iteration.  No evaluation is counted.  The
        arena is then cut to ``tree``'s rows (:meth:`retain`): the new set's
        candidates share everything outside their dirty paths with ``tree``,
        and the next generator is one of them or ``tree`` itself.

        A generator whose recorded rows are all live — the usual case, since
        it was evaluated in the previous set and kept by its ``retain`` — has
        nothing to sweep, so it is not re-planned or read out again; only the
        cached root that a batch of one would stop at is counted.  Above
        ``max_entries`` the batch runs anyway, and clears the arena.
        """
        self._ensure_ready()
        rows, versions = self._recorded_rows(tree, tree._structure_key())
        n_tips = self.alignment.n_sequences
        if self.cache_size <= self.max_entries and self._live_mask(rows, versions)[n_tips:].all():
            self.n_cache_hits += 1
        else:
            self._evaluate([tree], counted=False)
        self.retain([tree])

    def retain(self, trees: Iterable[Genealogy]) -> None:
        """Free every arena row that is not an interior node of one of ``trees``.

        Samplers call this with their current state(s) — the working set:
        each proposal is its state plus a dirty path, so it inherits every
        row it needs from its state.  Freed rows return to the free list
        with their versions bumped, so any other tree that still records
        them re-prunes those nodes.  Keeping the working set bounds the
        arena by one tree per chain plus one proposal set of dirty paths,
        instead of filling the ``max_entries`` budget; ``max_entries``
        remains the cap for samplers that never call this.
        """
        if not self._ready:
            return
        keep = np.zeros(self._version.shape[0], dtype=bool)
        for tree in trees:
            rows, versions = self._recorded_rows(tree, tree._structure_key())
            keep[rows[self._live_mask(rows, versions)]] = True
        n_tips = self.alignment.n_sequences
        keep[:n_tips] = True
        drop = np.flatnonzero(~keep)
        self._version[drop] += 1
        self._free = drop


_ENGINES["fused"] = FusedEngine
