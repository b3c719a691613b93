"""The sparse proposal-set engine: stacked dirty-path pruning over a partials arena.

The paper's core performance claim (Sections 5.2.1–5.2.2) is that the GMH
proposal and data-likelihood kernels win by evaluating the *whole proposal
set* as one data-parallel unit over partials that stay resident in device
memory.  :class:`FusedEngine` does that with two ingredients.

**Subtree signatures.**  Sibling proposals share everything outside their
resimulated neighbourhood.  Every node carries a hash-consed signature
(:meth:`repro.genealogy.tree.Genealogy.subtree_signatures`) that is equal
across trees exactly when the tip rows, topology and branch lengths below it
are identical, so a node whose signature is already cached needs no work:
only each candidate's *dirty path* — the resimulated region plus its
ancestors — is re-pruned.

**A persistent arena.**  Cached partials live in rows of one growable
``(rows, n_patterns, 4)`` array plus a ``(rows, n_patterns)`` log-scale
array; rows ``0 .. n_tips - 1`` hold the tip partials.  A dense
``row_of[signature]`` table (signature ids are dense, ``0 .. len - 1``)
finds a subtree's row.  Planning a batch is a handful of host-side array
gathers: the dirty mask is ``row_of[signatures] < 0``, each candidate's
dirty nodes are ordered by node time (children before parents), and the
work items are laid out in (depth step, candidate) order.  Fresh rows are
allocated before the sweep; the d-th dirty node of every candidate is then
computed in one stacked ``(k, n_patterns, 4) @ (k, 4, 4)`` matmul whose
operands are gathered straight from arena rows, and whose results are
written straight into the items' rows — nothing is copied into a scratch
pool and nothing is copied back out.  Transition matrices are deduplicated
by a host-side ``unique`` of the batch's branch lengths, since siblings
share most branches bitwise.

The mask equals a top-down walk that stops at cached nodes because the arena
is closed under descendants: a row enters only as a batch item whose children
are tips or live rows, and :meth:`FusedEngine.retain` keeps whole trees.

The arithmetic per recomputed node is identical to the other engines'
pruning step (pattern compression and per-node log-scaling included), so
results agree to floating-point accumulation order and fixed-seed chains
visit identical states — pinned down by the cross-engine equivalence suite.
A tree's value never depends on which other trees share its batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..backend.numpy_backend import NUMPY as B
from ..genealogy.tree import Genealogy, SignatureInterner
from .engines import _ENGINES, LikelihoodEngine
from .felsenstein import _TINY, _state_peak

__all__ = ["FusedEngine"]

Array = B.ndarray


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
        the arena first.  Each row holds one ``(n_patterns, 4)`` partial
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
        self._interner = SignatureInterner()
        self._row_of = B.full(0, -1, dtype=B.int64)
        self._site_product_carry = 0.0
        self._ready = False

    # ------------------------------------------------------------------ #
    # The arena
    # ------------------------------------------------------------------ #
    def _ensure_ready(self) -> None:
        if self._ready:
            return
        site_data = self.site_data  # shared hoisted patterns + tip partials
        xp = self.xp
        self._pattern_weights = xp.asarray(site_data.weights)
        self._freqs = xp.asarray(self.model.base_frequencies)
        n_tips = site_data.tips.shape[0]
        capacity = 3 * n_tips
        self._arena = xp.empty((capacity, site_data.n_cols, 4))
        self._arena_scale = xp.zeros((capacity, site_data.n_cols))
        self._arena[:n_tips] = xp.asarray(site_data.tips)
        # sig_of_row[r] is the signature held by interior row r (-1: free);
        # tip rows are permanent and never enter the free list.
        self._sig_of_row = B.full(capacity, -1, dtype=B.int64)
        self._free = B.arange(n_tips, capacity)
        if self.max_entries is None:
            # One row: (n_patterns, 4) partials + (n_patterns,) scales, f64.
            entry_bytes = 8 * 5 * site_data.n_cols
            self.max_entries = max(1024, self.DEFAULT_CACHE_BYTES // entry_bytes)
        # The interner itself must stay bounded: ids are only issued, never
        # retired, and each key is a small tuple (~150 bytes), so cap it at a
        # small multiple of the row budget and rebuild from scratch beyond
        # it.  This keeps total resident memory within the same order as
        # DEFAULT_CACHE_BYTES rather than a silent multiple of it.
        self._intern_limit = 4 * self.max_entries
        self._ready = True

    def _synced_row_of(self) -> Array:
        """``row_of`` grown (geometrically, absent = -1) to cover every issued id."""
        issued = len(self._interner)
        if self._row_of.shape[0] < issued:
            grown = B.full(max(issued, 2 * self._row_of.shape[0]), -1, dtype=B.int64)
            grown[: self._row_of.shape[0]] = self._row_of
            self._row_of = grown
        return self._row_of

    def _allocate(self, n_rows: int) -> Array:
        """Pop ``n_rows`` free rows, regrowing the arena geometrically first."""
        short = n_rows - self._free.shape[0]
        if short > 0:
            xp = self.xp
            old = self._arena.shape[0]
            capacity = max(old + short, 2 * old)
            arena = xp.empty((capacity,) + tuple(self._arena.shape[1:]))
            scale = xp.zeros((capacity, self._arena.shape[1]))
            arena[:old] = self._arena
            scale[:old] = self._arena_scale
            self._arena, self._arena_scale = arena, scale
            sig_of_row = B.full(capacity, -1, dtype=B.int64)
            sig_of_row[:old] = self._sig_of_row
            self._sig_of_row = sig_of_row
            self._free = B.concatenate([self._free, B.arange(old, capacity)])
        rows, self._free = self._free[:n_rows], self._free[n_rows:]
        return rows

    def clear_cache(self) -> None:
        """Drop every cached partial (counters are left untouched)."""
        self._interner.clear()
        self._row_of = B.full(0, -1, dtype=B.int64)
        if self._ready:
            n_tips = self.alignment.n_sequences
            self._sig_of_row[:] = -1
            self._free = B.arange(n_tips, self._arena.shape[0])

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
        if len(self._interner) > self._intern_limit or self.cache_size > self.max_entries:
            self.clear_cache()
        n_trees = len(trees)
        sigs = B.array([tree.subtree_signatures(self._interner) for tree in trees])
        row_of = self._synced_row_of()
        row_of[sigs[0, :n_tips]] = B.arange(n_tips)
        dirty = row_of[sigs[:, n_tips:]] < 0  # (n_trees, n_internal)
        n_dirty = dirty.sum(axis=1)
        n_items = int(n_dirty.sum())

        if n_trees > 1 and n_items > 1:
            fresh = B.sort(sigs[:, n_tips:][dirty])
            if B.any(fresh[1:] == fresh[:-1]):
                # Two candidates share an *uncached* subtree (bitwise-equal
                # times — e.g. duplicated trees in one batch).  The stacked
                # schedule orders items by per-candidate depth and cannot
                # express a cross-candidate dependency, so evaluate the
                # candidates as consecutive batches of one: each shared
                # subtree is then computed once, by the first candidate.
                return B.concatenate([self._evaluate([tree], counted) for tree in trees])

        # A walk from the root stops at every cached subtree it meets: the
        # cached roots of fully cached candidates, and (below) the cached
        # interior children of dirty nodes.
        hits = int((n_dirty == 0).sum())
        xp = self.xp
        if n_items:
            # ---- plan: (depth step, candidate) work items by array gathers ----
            # Each candidate's dirty nodes by node time, which puts children
            # before parents; lane (t, d) is candidate t's d-th dirty node.
            times = B.array([tree.times for tree in trees])
            children = B.array([tree.children for tree in trees])
            order = B.argsort(B.where(dirty, times[:, n_tips:], B.inf), axis=1)
            max_dirty = int(n_dirty.max())
            lanes = B.arange(max_dirty) < n_dirty[:, None]
            step_of, tree_of = B.nonzero(lanes.T)  # item k, in (step, candidate) order
            node_of = order[tree_of, step_of] + n_tips
            item_children = children[tree_of, node_of]  # (n_items, 2)
            child_sigs = sigs[tree_of[:, None], item_children]
            hits += int(((item_children >= n_tips) & (row_of[child_sigs] >= 0)).sum())

            # One transition matrix per *unique* branch length, stored
            # pre-transposed so each step is a contiguous batched matmul.
            lengths = times[tree_of, node_of][:, None] - times[tree_of[:, None], item_children]
            unique_lengths, inverse = B.unique(lengths.reshape(-1), return_inverse=True)
            self.n_pmat_requests += 2 * n_items
            self.n_pmat_builds += int(unique_lengths.shape[0])
            pmats_t = xp.ascontiguousarray(
                xp.transpose(self.model.transition_matrices(unique_lengths, xp=xp), (0, 2, 1))
            )
            pm_idx = inverse.reshape(n_items, 2)

            # Fresh items get their rows before the sweep, so child rows are
            # one gather for tips, cached subtrees and fresh items alike.
            rows = self._allocate(n_items)
            item_sigs = sigs[tree_of, node_of]
            row_of[item_sigs] = rows
            self._sig_of_row[rows] = item_sigs
            child_rows = row_of[child_sigs]
            arena, arena_scale = self._arena, self._arena_scale
            bounds = [0] + B.cumsum(lanes.sum(axis=0)).tolist()
            try:
                for lo, hi in zip(bounds[:-1], bounds[1:]):
                    # The step's left children, then its right children: one
                    # gather and one stacked matmul cover both branches.
                    k = hi - lo
                    src = xp.asindex(child_rows[lo:hi].T.reshape(-1))
                    both = xp.matmul(arena[src], pmats_t[xp.asindex(pm_idx[lo:hi].T.reshape(-1))])
                    vec = both[:k] * both[k:]
                    peak = _state_peak(xp, vec)
                    out = xp.asindex(rows[lo:hi])
                    arena[out] = vec / peak[:, :, None]
                    scale = arena_scale[src]
                    arena_scale[out] = scale[:k] + scale[k:] + xp.log(peak)
            except BaseException:
                self.clear_cache()  # the batch's rows are live but not all written
                raise
            self.n_stacked_steps += max_dirty
            self.n_padded_items += n_trees * max_dirty
            self.n_workspace_items += n_items

        roots = xp.asindex(row_of[sigs[B.arange(n_trees), [tree.root for tree in trees]]])
        values = xp.to_numpy(self._readout(self._arena[roots], self._arena_scale[roots]))

        self.n_cache_hits += hits
        self.n_cache_misses += n_items
        n_internal = n_tips - 1
        products = sum(self._site_products(d, n_internal) for d in n_dirty.tolist())
        self._count(n_trees if counted else 0, nodes_pruned=n_items, tree_site_products=products)
        return self._healthy(values)

    def _readout(self, part: Array, scale: Array):
        """log P(D | G) per tree from stacked root partials and their log-scales.

        Each tree's pattern weights are reduced through its own 1-D dot — not
        one multi-row matrix-vector product, whose BLAS reduction order can
        differ from the dot's — so a tree's value never depends on how many
        trees share its readout.
        """
        xp = self.xp
        site_like = xp.matmul(part, self._freqs)
        per_pattern = xp.log(xp.maximum(site_like, _TINY)) + scale
        return xp.stack(
            [
                xp.matmul(per_pattern[t], self._pattern_weights)
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
            return B.zeros(0)
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
        """
        self._evaluate([tree], counted=False)
        self.retain([tree])

    def retain(self, trees: Iterable[Genealogy]) -> None:
        """Free every arena row that is not an interior node of one of ``trees``.

        Samplers call this with their current state(s) — the working set:
        each proposal is its state plus a dirty path, so a row off every
        current state is only reused if a proposal happens to rebuild that
        exact subtree, bitwise.  Keeping the working set bounds the arena by
        one tree per chain plus one proposal set of dirty paths, instead of
        filling the ``max_entries`` budget; ``max_entries`` remains the cap
        for samplers that never call this.
        """
        keep = [tree.subtree_signatures(self._interner)[tree.n_tips :] for tree in trees]
        if not self._ready:
            return
        sigs = B.concatenate(keep) if keep else B.zeros(0, dtype=B.int64)
        kept_rows = self._synced_row_of()[sigs]
        kept = B.zeros(self._sig_of_row.shape[0], dtype=bool)
        kept[kept_rows[kept_rows >= 0]] = True
        drop = (self._sig_of_row >= 0) & ~kept
        self._row_of[self._sig_of_row[drop]] = -1
        self._sig_of_row[drop] = -1
        n_tips = self.alignment.n_sequences
        self._free = B.flatnonzero(self._sig_of_row[n_tips:] < 0) + n_tips


_ENGINES["fused"] = FusedEngine
