"""Fused sparse-batched proposal-set engine (the stacked GMH hot-path kernel).

The paper's core performance claim (Sections 5.2.1–5.2.2) is that the GMH
proposal and data-likelihood kernels win by evaluating the *whole proposal
set* as one data-parallel unit.  The two fast engines each captured half of
that:

* :class:`~repro.likelihood.engines.BatchedEngine` evaluates all N+1
  candidates in one stacked kernel — but re-prunes every interior node of
  every candidate, even though sibling proposals share everything outside
  their resimulated neighbourhood;
* :class:`~repro.likelihood.incremental.CachedEngine` re-prunes only each
  candidate's dirty path — but walks the candidates one at a time through
  per-node Python dict lookups and scalar-sized matrix products.

:class:`FusedEngine` composes both.  Per proposal set it splits every
candidate's interior nodes into a **shared frontier** — subtrees whose
partial likelihoods are already cached under their subtree signatures
(:meth:`repro.genealogy.tree.Genealogy.subtree_signatures`), computed once
and reused across candidates *and* across EM iterations exactly like the
cached engine — and a **per-candidate dirty path**.  The dirty paths of all
N+1 siblings are then recomputed together: the d-th dirty node of every
candidate is processed in one stacked batched product (a
``(k, n_patterns, 4) @ (k, 4, 4)`` matmul — the einsum contraction spelled
the way NumPy executes fastest) whose operands are rows of one
``(rows, n_patterns, 4)`` pool — tip partials, the batch's work items, and
the frontier entries it reads — preallocated once and reused across
iterations (a dirty path is sequential in depth — node d+1 consumes node
d's output — but across siblings depth d is embarrassingly parallel, which
is exactly the lane layout the paper's dynamic-parallelism launch uses).
The pool holds one row per work item, not a padded
``(n_trees, max_dirty)`` block, so its size follows the real dirty work.
Transition matrices are deduplicated through
a host-side ``unique`` of the batch's branch lengths, since siblings share
most branches bitwise.  Planning (work-item tables, source/index gathers)
is host-side; the stacked products run on the engine's array backend.

The arithmetic per recomputed node is identical to the other engines'
pruning step (pattern compression and per-node log-scaling included), so
results agree to floating-point accumulation order and fixed-seed chains
visit identical states — pinned down by the cross-engine equivalence suite
and ``benchmarks/bench_fused_engine.py`` (``BENCH_fused.json``).

Work accounting matches :class:`CachedEngine` exactly whenever the cache is
not recycling entries (the normal regime: samplers keep the cache to their
working set, far below the ``max_entries`` cap).  Once recycling starts —
LRU eviction past ``max_entries``, or the interner-overflow
``clear_cache`` — the two engines'
cache timelines diverge, because the fused engine refreshes, clears, and
evicts once per batch where the cached engine does so per tree, so their
work counters can drift slightly in either direction while the returned
values stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend.numpy_backend import NUMPY as B
from ..genealogy.tree import Genealogy
from .engines import _ENGINES
from .felsenstein import _state_peak
from .incremental import CachedEngine

__all__ = ["FusedEngine"]

Array = B.ndarray


@dataclass
class FusedEngine(CachedEngine):
    """Incremental pruning of all N+1 siblings' dirty paths in one stacked kernel.

    Inherits the signature-keyed frontier cache, working-set and eviction
    policy, warm-up ``prepare`` hook, and single-tree ``evaluate`` from
    :class:`~repro.likelihood.incremental.CachedEngine`; ``evaluate_batch``
    replaces the per-tree Python walk with the stacked dirty-path kernel.

    Extra work counters (all zeroed by :meth:`reset_counters`):

    ``n_stacked_steps``
        Stacked einsum launches performed (one per dirty depth level per
        batch) — the fused analogue of kernel-launch count.
    ``n_workspace_items``
        Dirty nodes actually computed in the workspace.
    ``n_padded_items``
        Lanes the ``(n_trees, max_dirty)`` stacked schedule spans (every
        launch has room for one node per candidate);
        ``workspace_occupancy`` is the ratio of the two, the quantity
        :meth:`repro.device.perfmodel.DeviceModel.projected_fused_speedup`
        models as padded-batch occupancy.
    ``n_pmat_requests`` / ``n_pmat_builds``
        Transition matrices the batch's work items referenced (two child
        branches per item) versus the *unique* branch lengths actually
        exponentiated.  Within one proposal set siblings share most branches;
        under stacked cross-chain execution the dedup also spans chains —
        candidates from different chains of the same lock-step round share
        every branch outside their dirty regions bitwise —
        so ``pmat_dedup_ratio`` is the direct measure of the cross-chain
        sharing the stacked batch shape buys.
    """

    n_stacked_steps: int = field(default=0, init=False)
    n_workspace_items: int = field(default=0, init=False)
    n_padded_items: int = field(default=0, init=False)
    n_pmat_requests: int = field(default=0, init=False)
    n_pmat_builds: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        # One row pool, preallocated and reused across proposal sets and EM
        # iterations: (capacity, n_patterns, 4) partials plus the matching
        # (capacity, n_patterns) log-scales.  A batch lays out its rows as
        # [tips | work items | frontier entries]: the tip rows are written
        # once per allocation (log-scale zero), work item k — the batch's
        # k-th dirty node in (depth step, candidate) order — writes row
        # n_tips + k, and the shared-frontier entries it reads are copied in
        # behind them, so every child operand is one row of one array.
        xp = self.xp
        self._work = xp.empty((0, 0, 4))
        self._work_scale = xp.empty((0, 0))

    def reset_counters(self) -> None:
        """Zero the work, reuse, and stacked-kernel counters (cache kept)."""
        super().reset_counters()
        self.n_stacked_steps = 0
        self.n_workspace_items = 0
        self.n_padded_items = 0
        self.n_pmat_requests = 0
        self.n_pmat_builds = 0

    @property
    def workspace_occupancy(self) -> float:
        """Fraction of the stacked schedule's lanes that held real dirty-node work."""
        return self.n_workspace_items / self.n_padded_items if self.n_padded_items else 0.0

    @property
    def pmat_dedup_ratio(self) -> float:
        """Transition matrices requested per matrix actually built (≥ 1)."""
        return self.n_pmat_requests / self.n_pmat_builds if self.n_pmat_builds else 0.0

    def _workspace(self, n_rows: int) -> tuple[Array, Array]:
        """The reusable row pool, regrown geometrically when too small."""
        tips = self._tip_entries
        if self._work.shape[0] < n_rows or self._work.shape[1] != tips.shape[1]:
            capacity = max(n_rows, 2 * self._work.shape[0])
            self._work = self.xp.empty((capacity, tips.shape[1], 4))
            self._work_scale = self.xp.zeros((capacity, tips.shape[1]))
            self._work[: tips.shape[0]] = tips
        return self._work, self._work_scale

    # ------------------------------------------------------------------ #
    # The stacked sparse-batched kernel
    # ------------------------------------------------------------------ #
    def evaluate_batch(self, trees: list[Genealogy]) -> Array:
        if not trees:
            return B.zeros(0)
        self._ensure_ready()
        n_tips = self.alignment.n_sequences
        if len(self._interner) > self._intern_limit:
            self.clear_cache()
        cache = self._cache
        n_trees = len(trees)

        # ---- plan: per-candidate dirty paths, children before parents ----
        all_sigs: list[Array] = []
        comps: list[list[int]] = []
        hits_total = 0
        planned_sigs: set[int] = set()
        for tree in trees:
            if tree.n_tips != n_tips:
                raise ValueError("genealogy tip count does not match the alignment")
            sigs = tree.subtree_signatures(self._interner)
            plan, hits = self._plan_dirty(tree, sigs)
            for node in plan:
                key = int(sigs[node])
                if key in planned_sigs:
                    # Two candidates share an *uncached* subtree (bitwise-equal
                    # times — e.g. duplicated trees in one batch).  The stacked
                    # schedule orders items by per-candidate depth and cannot
                    # express a cross-candidate dependency, so take the
                    # per-tree incremental path instead: it publishes each
                    # candidate's partials before planning the next, computing
                    # every shared subtree exactly once — same values, same
                    # work counters as the cached engine on this batch.
                    return super().evaluate_batch(trees)
                planned_sigs.add(key)
            all_sigs.append(sigs)
            comps.append(plan[::-1])
            hits_total += hits

        max_dirty = max(len(comp) for comp in comps)
        n_items = sum(len(comp) for comp in comps)

        if n_items:
            values = self._run_stacked(trees, all_sigs, comps, max_dirty, n_items)
        else:
            # Every candidate fully cached (e.g. re-evaluating the warmed
            # generator): read the root entries straight from the frontier.
            values = self._root_values_from_cache(trees, all_sigs)

        # ---- bookkeeping: identical accounting to the cached engine ----
        self.n_cache_hits += hits_total
        self.n_cache_misses += n_items
        while len(cache) > self.max_entries:
            cache.pop(next(iter(cache)))
        total_products = 0
        for tree, comp in zip(trees, comps):
            total_products += self._site_products(len(comp), tree.n_internal)
        self._count(n_trees, nodes_pruned=n_items, tree_site_products=total_products)
        self.n_workspace_items += n_items
        if n_items:
            self.n_stacked_steps += max_dirty
            self.n_padded_items += n_trees * max_dirty
        return self._healthy(values)

    def _run_stacked(
        self,
        trees: list[Genealogy],
        all_sigs: list[Array],
        comps: list[list[int]],
        max_dirty: int,
        n_items: int,
    ) -> Array:
        """Recompute every candidate's dirty path in one stacked sweep."""
        xp = self.xp
        cache = self._cache
        n_tips = trees[0].n_tips
        frontier_base = n_tips + n_items

        # Work-item tables ordered by (depth step, candidate): one stacked
        # launch processes one contiguous [lo, hi) block below, writing pool
        # rows n_tips + lo .. n_tips + hi.  All of this is host-side planning.
        item_sig = B.empty(n_items, dtype=B.int64)
        child_row = B.empty((n_items, 2), dtype=B.int64)
        lengths = B.empty((n_items, 2))
        root_row = B.empty(len(trees), dtype=B.int64)
        step_bounds = [0]
        # Distinct frontier entries referenced by this batch, each copied into
        # the pool once.
        cache_rows: dict[int, int] = {}
        fetched: list[tuple[Array, Array]] = []

        def frontier_row(key: int) -> int:
            row = cache_rows.get(key)
            if row is None:
                row = frontier_base + len(fetched)
                cache_rows[key] = row
                fetched.append(cache[key])
            return row

        items = [{} for _ in comps]  # per candidate: dirty node -> item index
        k = 0
        for step in range(max_dirty):
            for t, comp in enumerate(comps):
                if step >= len(comp):
                    continue
                tree, sigs, mine = trees[t], all_sigs[t], items[t]
                node = comp[step]
                mine[node] = k
                item_sig[k] = sigs[node]
                for j in (0, 1):
                    child = int(tree.children[node, j])
                    lengths[k, j] = tree.times[node] - tree.times[child]
                    item = mine.get(child)
                    if item is not None:
                        child_row[k, j] = n_tips + item
                    elif child < n_tips:
                        child_row[k, j] = child
                    else:
                        child_row[k, j] = frontier_row(int(sigs[child]))
                k += 1
            step_bounds.append(k)
        for t, tree in enumerate(trees):
            item = items[t].get(tree.root)
            if item is None:  # a fully cached candidate reads its root entry
                root_row[t] = frontier_row(int(all_sigs[t][tree.root]))
            else:
                root_row[t] = n_tips + item

        # One transition-matrix computation per *unique* branch length in the
        # batch (siblings share most branches bitwise outside their dirty
        # regions, so this collapses the 2·n_items matrix builds).  Stored
        # pre-transposed so the stacked product is a contiguous batched
        # matmul, the fastest spelling of this contraction for 4-wide states.
        unique_lengths, inverse = B.unique(lengths.reshape(-1), return_inverse=True)
        self.n_pmat_requests += 2 * n_items
        self.n_pmat_builds += int(unique_lengths.shape[0])
        pmats_t = xp.ascontiguousarray(
            xp.transpose(self.model.transition_matrices(unique_lengths, xp=xp), (0, 2, 1))
        )
        pm_idx = inverse.reshape(n_items, 2)

        pool, pool_scale = self._workspace(frontier_base + len(fetched))
        for row, (part, scale) in enumerate(fetched, start=frontier_base):
            pool[row] = part
            pool_scale[row] = scale
        for step in range(max_dirty):
            lo, hi = step_bounds[step], step_bounds[step + 1]
            rows = child_row[lo:hi]
            left_rows, right_rows = xp.asindex(rows[:, 0]), xp.asindex(rows[:, 1])
            left = xp.matmul(pool[left_rows], pmats_t[xp.asindex(pm_idx[lo:hi, 0])])
            right = xp.matmul(pool[right_rows], pmats_t[xp.asindex(pm_idx[lo:hi, 1])])
            vec = left * right
            peak = _state_peak(xp, vec)
            out = slice(n_tips + lo, n_tips + hi)
            pool[out] = vec / peak[:, :, None]
            pool_scale[out] = pool_scale[left_rows] + pool_scale[right_rows] + xp.log(peak)

        # Publish the fresh partials into the shared frontier cache so the
        # chosen candidate (and any future evaluation of these states) hits.
        for i in range(n_items):
            row = n_tips + i
            cache[int(item_sig[i])] = (xp.copy(pool[row]), xp.copy(pool_scale[row]))

        # Root readout for every candidate.
        roots = xp.asindex(root_row)
        return xp.to_numpy(self._readout(pool[roots], pool_scale[roots]))

    def _root_values_from_cache(
        self, trees: list[Genealogy], all_sigs: list[Array]
    ) -> Array:
        """Log-likelihoods of fully-cached candidates (no dirty work at all)."""
        values = B.empty(len(trees))
        for t, tree in enumerate(trees):
            part, scale = self._cache[int(all_sigs[t][tree.root])]
            values[t] = float(self._readout(part, scale))
        return values


_ENGINES["fused"] = FusedEngine
