"""Incremental partial-likelihood caching engine (the GMH hot-path optimisation).

Every sampler in the registry spends essentially all of its time evaluating
P(D | G) for proposal sets, yet a neighbourhood-resimulation proposal
(:mod:`repro.proposals.neighborhood`) perturbs only a small region of the
genealogy: the deleted target/parent pair is re-created with new times, and
everything outside that region — in particular every subtree hanging off the
path from the region to the root — is bitwise unchanged.  Full Felsenstein
pruning recomputes all of it anyway.

:class:`CachedEngine` exploits the locality.  It stores per-node partial
likelihood arrays keyed by the node's *subtree signature*
(:meth:`repro.genealogy.tree.Genealogy.subtree_signatures`): a hash-consed
id that is equal across trees exactly when the tip rows, topology, and
branch lengths below the node are identical.  Evaluating a genealogy then
walks down from the root and stops at every cached node, so only the dirty
path from the modified region to the root is re-pruned.  Sibling proposals
in a GMH set share everything outside their resimulated region, so after the
first member of the set is evaluated the rest touch only their own dirty
paths.

The arithmetic per recomputed node is exactly the site-vectorized pruning
step of :func:`repro.likelihood.felsenstein.log_likelihood` (pattern
compression included), with the per-site log-scaling accumulated along the
tree instead of along the post-order sweep — the results agree with the
other engines to floating-point accumulation order (~1e-13 relative), which
the cross-engine equivalence suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..backend.numpy_backend import NUMPY as B
from ..genealogy.tree import Genealogy, SignatureInterner
from .engines import _ENGINES, LikelihoodEngine
from .felsenstein import _TINY, _state_peak

__all__ = ["CachedEngine"]

Array = B.ndarray


@dataclass
class CachedEngine(LikelihoodEngine):
    """Incremental pruning with cached per-node partials; re-prunes only dirty nodes.

    The cache holds a *working set*: samplers declare their current
    state(s) through :meth:`retain` (the GMH ``prepare`` hook does so for
    every proposal set), and entries off those states are dropped, so a GMH
    chain keeps one tree's partials plus one set's dirty paths.

    Parameters
    ----------
    max_entries:
        Cap on cached interior-node entries; the least recently used entries
        are evicted beyond it.  Each entry holds one ``(n_patterns, 4)``
        partial array plus an ``(n_patterns,)`` log-scale vector, so the
        default (``None``) derives the cap from a ~64 MiB byte budget once
        the alignment's pattern count is known.  Only callers that never
        call :meth:`retain` come near it.

    Work accounting
    ---------------
    ``n_nodes_pruned`` counts only the interior nodes actually recomputed;
    ``n_tree_site_products`` accrues the matching fraction of a full-tree
    evaluation (fractional remainders are carried between calls, so long-run
    totals are exact), which keeps the counters directly comparable with the
    full-pruning engines.  ``n_cache_hits`` / ``n_cache_misses`` expose
    reuse directly.
    """

    #: Byte budget used to derive ``max_entries`` when it is not given.
    DEFAULT_CACHE_BYTES = 64 * 1024 * 1024

    max_entries: int | None = None
    n_cache_hits: int = field(default=0, init=False)
    n_cache_misses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 16:
            raise ValueError("max_entries must be at least 16")
        self._interner = SignatureInterner()
        # Interior-node entries keyed by subtree signature id, in LRU order
        # (hits are refreshed to the back, eviction pops the front).
        self._cache: dict[int, tuple[Array, Array]] = {}
        self._site_product_carry = 0.0
        self._ready = False

    # ------------------------------------------------------------------ #
    # Cache management
    # ------------------------------------------------------------------ #
    def _ensure_ready(self) -> None:
        if self._ready:
            return
        site_data = self.site_data  # shared hoisted patterns + tip partials
        xp = self.xp
        self._pattern_weights = xp.asarray(site_data.weights)
        self._tip_entries = xp.asarray(site_data.tips)  # (n_tips, n_patterns, 4)
        self._zero_scale = xp.zeros(site_data.n_cols)
        self._freqs = xp.asarray(self.model.base_frequencies)
        if self.max_entries is None:
            # One entry: (n_patterns, 4) partials + (n_patterns,) scales, f64.
            entry_bytes = 8 * 5 * site_data.n_cols
            self.max_entries = max(1024, self.DEFAULT_CACHE_BYTES // entry_bytes)
        # The interner itself must stay bounded: ids are only issued, never
        # retired, and each key is a small tuple (~150 bytes), so cap it at a
        # small multiple of the entry budget and rebuild from scratch beyond
        # it.  This keeps total resident memory within the same order as
        # DEFAULT_CACHE_BYTES rather than a silent multiple of it.
        self._intern_limit = 4 * self.max_entries
        self._ready = True

    def clear_cache(self) -> None:
        """Drop every cached partial (counters are left untouched)."""
        self._cache.clear()
        self._interner.clear()

    def reset_counters(self) -> None:
        """Zero the work *and* reuse counters; the cache itself is kept."""
        super().reset_counters()
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self._site_product_carry = 0.0

    @property
    def cache_size(self) -> int:
        """Number of interior-node entries currently cached."""
        return len(self._cache)

    @property
    def hit_rate(self) -> float:
        """Fraction of interior-node lookups served from the cache."""
        total = self.n_cache_hits + self.n_cache_misses
        return self.n_cache_hits / total if total else 0.0

    # ------------------------------------------------------------------ #
    # Core incremental evaluation
    # ------------------------------------------------------------------ #
    def _plan_dirty(self, tree: Genealogy, sigs: Array) -> tuple[list[int], int]:
        """Collect the dirty (uncached) interior nodes of ``tree``.

        Walks down from the root, stopping at cached nodes and tips: the
        nodes collected are exactly the dirty path that must be re-pruned,
        in pre-order (so reversing the list yields a children-before-parents
        computation order).  Cache hits along the frontier have their LRU
        recency refreshed.  Returns ``(plan, n_hits)``.
        """
        n_tips = tree.n_tips
        cache = self._cache
        children = tree.children
        plan: list[int] = []
        stack = [tree.root]
        hits = 0
        while stack:
            node = stack.pop()
            if node < n_tips:
                continue
            key = int(sigs[node])
            entry = cache.get(key)
            if entry is not None:
                cache[key] = cache.pop(key)  # refresh LRU recency
                hits += 1
                continue
            plan.append(node)
            stack.append(int(children[node, 0]))
            stack.append(int(children[node, 1]))
        return plan, hits

    def _evaluate_one(self, tree: Genealogy) -> tuple[float, int, int]:
        """Return ``(log-likelihood, fresh interior nodes, total interior nodes)``."""
        self._ensure_ready()
        if tree.n_tips != self.alignment.n_sequences:
            raise ValueError("genealogy tip count does not match the alignment")
        if len(self._interner) > self._intern_limit:
            self.clear_cache()

        sigs = tree.subtree_signatures(self._interner)
        cache = self._cache
        children = tree.children
        times = tree.times
        root = tree.root

        plan, hits = self._plan_dirty(tree, sigs)
        fresh = len(plan)
        if fresh:
            xp = self.xp
            # Host-side planning (index tables, branch lengths), then one
            # batched transition-matrix call on the backend covering both
            # child branches of every node being recomputed.
            nodes = B.asarray(plan)
            child_pair = children[nodes]  # (fresh, 2)
            lengths = times[nodes][:, None] - times[child_pair]
            pmats = self.model.transition_matrices(lengths.reshape(-1), xp=xp).reshape(
                fresh, 2, 4, 4
            )
            for i in range(fresh - 1, -1, -1):
                node = plan[i]
                c0 = int(children[node, 0])
                c1 = int(children[node, 1])
                left_part, left_scale = self._entry(c0, sigs)
                right_part, right_scale = self._entry(c1, sigs)
                left = xp.matmul(left_part, xp.transpose(pmats[i, 0], (1, 0)))
                right = xp.matmul(right_part, xp.transpose(pmats[i, 1], (1, 0)))
                vec = left * right
                peak = _state_peak(xp, vec)
                cache[int(sigs[node])] = (
                    vec / peak[:, None],
                    left_scale + right_scale + xp.log(peak),
                )

        part, scale = cache[int(sigs[root])]
        value = float(self._readout(part, scale))

        self.n_cache_hits += hits
        self.n_cache_misses += fresh
        while len(cache) > self.max_entries:
            cache.pop(next(iter(cache)))
        # The health gate sits on the readout value, not the cached partials:
        # every public evaluation path (evaluate/evaluate_batch/prepare)
        # funnels through here, so one check covers them all.
        return self._healthy(value), fresh, tree.n_internal

    def _entry(self, node: int, sigs: Array) -> tuple[Array, Array]:
        if node < self._tip_entries.shape[0]:
            return self._tip_entries[node], self._zero_scale
        return self._cache[int(sigs[node])]

    def _readout(self, part: Array, scale: Array):
        """log P(D | G) from a root partial and its log-scale.

        The one place the root conditional likelihoods meet the base
        frequencies, the underflow clamp, and the pattern weights — shared
        by the scalar path and the fused engine's stacked readout (``part``
        may carry a leading tree axis; the arithmetic broadcasts).  The
        stacked case reduces each tree's pattern weights through the same
        1-D dot the scalar path uses — not one multi-row matrix-vector
        product, whose BLAS reduction order can differ from the dot's — so
        a tree's value never depends on how many trees share its readout.
        """
        xp = self.xp
        site_like = xp.matmul(part, self._freqs)
        per_pattern = xp.log(xp.maximum(site_like, _TINY)) + scale
        if per_pattern.ndim == 1:
            return xp.matmul(per_pattern, self._pattern_weights)
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
        value, fresh, n_internal = self._evaluate_one(tree)
        self._count(
            1,
            nodes_pruned=fresh,
            tree_site_products=self._site_products(fresh, n_internal),
        )
        return value

    def evaluate_batch(self, trees: list[Genealogy]) -> Array:
        if not trees:
            return B.zeros(0)
        values = B.empty(len(trees))
        total_fresh = 0
        total_products = 0
        for i, tree in enumerate(trees):
            values[i], fresh, n_internal = self._evaluate_one(tree)
            total_fresh += fresh
            total_products += self._site_products(fresh, n_internal)
        self._count(len(trees), nodes_pruned=total_fresh, tree_site_products=total_products)
        return values

    def prepare(self, tree: Genealogy) -> None:
        """Warm the cache with ``tree``'s partials and make them the working set.

        The GMH transition calls this on the generator state before building
        a proposal set, so sibling proposals find every untouched subtree
        already cached even when the generator's log-likelihood was carried
        over from the previous iteration.  No evaluation is counted.  The
        cache is then cut to ``tree``'s entries (:meth:`retain`): the new
        set's candidates share everything outside their dirty paths with
        ``tree``, and the next generator is one of them or ``tree`` itself.
        """
        _, fresh, n_internal = self._evaluate_one(tree)
        if fresh:
            self._count(
                0,
                nodes_pruned=fresh,
                tree_site_products=self._site_products(fresh, n_internal),
            )
        self.retain([tree])

    def retain(self, trees: Iterable[Genealogy]) -> None:
        """Drop every cached entry that is not an interior node of one of ``trees``.

        Samplers call this with their current state(s) — the working set:
        each proposal is its state plus a dirty path, so an entry off every
        current state is only reused if a proposal happens to rebuild that
        exact subtree, bitwise.  Keeping the working set bounds the cache by
        one tree per chain plus one proposal set of dirty paths, instead of
        filling the ``max_entries`` budget; ``max_entries`` remains the cap
        for samplers that never call this.
        """
        keep: set[int] = set()
        for tree in trees:
            keep.update(tree.subtree_signatures(self._interner)[tree.n_tips :].tolist())
        self._cache = {key: entry for key, entry in self._cache.items() if key in keep}


_ENGINES["cached"] = CachedEngine
