"""Felsenstein pruning data likelihood P(D | G).

The probability of the observed sequence data given a genealogy is computed
with Felsenstein's (1981) pruning algorithm (Section 2.4, Eqs. 19–22): a
post-order traversal propagates, for every node and every site, the
likelihood of the subtree below that node conditional on each possible
nucleotide at the node; the root's conditional likelihoods are then dotted
with the prior base frequencies, and the per-site log-likelihoods summed.

Three implementations of the same computation live here, all of which must
agree to numerical precision (and are tested against each other):

``log_likelihood_reference``
    A deliberately straightforward per-site, per-node scalar loop.  This is
    the "serial CPU" evaluation path a classic sampler performs; the
    baseline LAMARC-style sampler uses it, and the speedup benchmarks
    measure the batched kernels against it.

``log_likelihood``
    Site-vectorized evaluation of a single genealogy: one 4×4 matrix–vector
    product per branch applied to *all* sites (or, with pattern compression,
    all unique site patterns) simultaneously.  This corresponds to the
    paper's data-likelihood kernel in which each device thread owns one
    base-pair position (Section 5.2.2).

``batched_log_likelihood``
    Evaluation of *many* genealogies (e.g. a whole proposal set) in one
    call, vectorized across both the proposal axis and the site axis — the
    work the GPU performs when every proposal thread launches its own
    data-likelihood kernel (dynamic parallelism, Section 5.2.1).

To avoid floating-point underflow on long sequences and tall trees, partial
likelihoods are renormalized at every interior node and the scaling factors
are accumulated in log space (Section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..genealogy.tree import Genealogy
from ..sequences.alignment import MISSING, Alignment
from .mutation_models import MutationModel

__all__ = [
    "SiteData",
    "tip_partials",
    "log_likelihood_reference",
    "log_likelihood",
    "site_log_likelihoods",
    "batched_log_likelihood",
]

_TINY = 1e-300

Array = np.ndarray


def _state_peak(vec):
    """Per-site scaling factor: the largest of the four state partials, floored at ``_TINY``.

    Spelled as pairwise maxima over the state axis, not a max-reduction
    along it: NumPy reduces a length-4 trailing axis an order of magnitude
    slower, and the maximum is exact either way, so the values are identical.
    That holds for the engines here, whose partials keep the state axis
    trailing; the fused engine's state-major arena reduces its middle axis
    with ``max`` instead (:func:`repro.likelihood.fused._state_peak`).
    """
    peak = np.maximum(
        np.maximum(vec[..., 0], vec[..., 1]), np.maximum(vec[..., 2], vec[..., 3])
    )
    return np.where(peak > 0.0, peak, _TINY)


def tip_partials(codes: Array) -> Array:
    """Conditional likelihoods for observed tips.

    ``codes`` is an ``(n_tips, n_sites)`` integer matrix.  The result has
    shape ``(n_tips, n_sites, 4)`` with a one-hot row for an observed base
    and all-ones for missing data (the standard treatment: a missing
    observation is compatible with every nucleotide).
    """
    codes = np.asarray(codes)
    n_tips, n_sites = codes.shape
    out = np.zeros((n_tips, n_sites, 4))
    for base in range(4):
        out[..., base] = (codes == base) | (codes == MISSING)
    return out.astype(float)


@dataclass(frozen=True)
class SiteData:
    """Precomputed site-level inputs every likelihood evaluation consumes.

    Pattern compression (:meth:`repro.sequences.alignment.Alignment.site_patterns`)
    and the one-hot tip partials depend only on the alignment, yet historically
    every ``evaluate``/``evaluate_batch`` call rebuilt them.  Engines construct
    one :class:`SiteData` up front and pass it into the pruning functions, so
    the per-call work is the pruning itself and nothing else.

    ``patterned`` records whether ``codes`` holds compressed patterns (weights
    are multiplicities, summed via a dot product) or raw per-site columns
    (weights are all ones; the total is a plain sum, preserving the exact
    accumulation order of the historical ``use_patterns=False`` path).
    """

    codes: Array  # (n_tips, n_cols) pattern or per-site codes
    weights: Array  # (n_cols,) pattern multiplicities (ones when unpatterned)
    tips: Array  # (n_tips, n_cols, 4) one-hot tip partials
    patterned: bool = True

    @classmethod
    def from_alignment(cls, alignment: Alignment, *, use_patterns: bool = True) -> "SiteData":
        """Build the shared site inputs for ``alignment`` (pattern-compressed by default)."""
        if use_patterns:
            codes, weights = alignment.site_patterns()
        else:
            codes, weights = alignment.codes, np.ones(alignment.n_sites)
        return cls(
            codes=codes,
            weights=np.asarray(weights, dtype=float),
            tips=tip_partials(codes),
            patterned=use_patterns,
        )

    @property
    def n_cols(self) -> int:
        """Number of evaluated columns (unique patterns, or sites when unpatterned)."""
        return int(self.codes.shape[1])


# --------------------------------------------------------------------------- #
# Reference (scalar, per-site) implementation
# --------------------------------------------------------------------------- #
def log_likelihood_reference(
    tree: Genealogy, alignment: Alignment, model: MutationModel
) -> float:
    """Per-site scalar pruning — the serial evaluation path.

    Loops over every site and, within a site, over the post-order nodes,
    exactly as a non-vectorized CPU implementation would.  Used as the
    ground truth in tests and as the baseline sampler's likelihood engine.
    """
    order = tree.postorder()
    freqs = np.asarray(model.base_frequencies)
    branch = tree.branch_lengths()
    # Transition matrix per node's parent-branch (root's entry unused).
    pmats = model.transition_matrices(branch)
    codes = alignment.codes
    total = 0.0
    for site in range(alignment.n_sites):
        partials = np.empty((tree.n_nodes, 4))
        log_scale = 0.0
        for node in order:
            if tree.is_tip(node):
                code = int(codes[node, site])
                if code == MISSING:
                    partials[node] = 1.0
                else:
                    partials[node] = 0.0
                    partials[node, code] = 1.0
            else:
                c0, c1 = tree.children[node]
                left = pmats[c0] @ partials[int(c0)]
                right = pmats[c1] @ partials[int(c1)]
                vec = left * right
                peak = vec.max()
                if peak <= 0.0:
                    peak = _TINY
                partials[node] = vec / peak
                log_scale += float(np.log(peak))
        site_like = float(freqs @ partials[tree.root])
        total += float(np.log(max(site_like, _TINY))) + log_scale
    return total


# --------------------------------------------------------------------------- #
# Site-vectorized implementation (single genealogy)
# --------------------------------------------------------------------------- #
def site_log_likelihoods(
    tree: Genealogy,
    alignment: Alignment,
    model: MutationModel,
    *,
    use_patterns: bool = True,
) -> Array:
    """Per-site log-likelihoods ``log L_i(G)`` for a single genealogy.

    Vectorized over sites.  With ``use_patterns`` the computation runs over
    unique alignment columns and the result is expanded back to one value
    per original site.
    """
    if use_patterns:
        patterns, weights = alignment.site_patterns()
        del weights
        per_pattern = _site_vector_pruning(tree, patterns, model)
        # Expand back to per-site values.
        cols = alignment.codes.T
        uniq, inverse = np.unique(cols, axis=0, return_inverse=True)
        del uniq
        return per_pattern[inverse]
    return _site_vector_pruning(tree, alignment.codes, model)


def log_likelihood(
    tree: Genealogy,
    alignment: Alignment,
    model: MutationModel,
    *,
    use_patterns: bool = True,
    site_data: SiteData | None = None,
) -> float:
    """log P(D | G) for a single genealogy, vectorized over sites.

    ``site_data`` supplies the precomputed pattern codes, weights, and tip
    partials (engines build one at construction); when omitted they are
    derived from the alignment on the spot, matching the historical
    per-call behaviour bit for bit.
    """
    if site_data is None:
        site_data = SiteData.from_alignment(alignment, use_patterns=use_patterns)
    per_col = _site_vector_pruning(tree, site_data.codes, model, tips=site_data.tips)
    if site_data.patterned:
        return float(np.matmul(per_col, site_data.weights))
    return float(np.sum(per_col))


def _site_vector_pruning(
    tree: Genealogy,
    codes: Array,
    model: MutationModel,
    tips: Array | None = None,
) -> Array:
    """Core site-vectorized pruning over an ``(n_tips, n_sites)`` code matrix.

    Returns an array of per-column log-likelihoods.
    """
    n_sites = codes.shape[1]
    order = tree.postorder()
    freqs = np.asarray(model.base_frequencies)
    pmats = model.transition_matrices(tree.branch_lengths())

    partials = np.empty((tree.n_nodes, n_sites, 4))
    partials[: tree.n_tips] = tip_partials(codes) if tips is None else tips
    log_scale = np.zeros(n_sites)

    for node in order:
        if tree.is_tip(node):
            continue
        c0, c1 = (int(c) for c in tree.children[node])
        # (n_sites, 4) = (n_sites, 4) @ (4, 4)^T for each child branch
        left = np.matmul(partials[c0], np.transpose(pmats[c0], (1, 0)))
        right = np.matmul(partials[c1], np.transpose(pmats[c1], (1, 0)))
        vec = left * right
        peak = _state_peak(vec)
        partials[node] = vec / peak[:, None]
        log_scale = log_scale + np.log(peak)

    site_like = np.matmul(partials[tree.root], freqs)
    return np.log(np.maximum(site_like, _TINY)) + log_scale


# --------------------------------------------------------------------------- #
# Proposal-batched implementation (many genealogies at once)
# --------------------------------------------------------------------------- #
def batched_log_likelihood(
    trees: list[Genealogy] | tuple[Genealogy, ...],
    alignment: Alignment,
    model: MutationModel,
    *,
    use_patterns: bool = True,
    site_data: SiteData | None = None,
    workspace: Array | None = None,
) -> Array:
    """log P(D | G) for a batch of genealogies sharing the same tips.

    All trees must have the same tip set (they are alternative genealogies
    of the same alignment, e.g. a GMH proposal set).  The computation is
    vectorized across the tree axis and the site axis simultaneously: at
    post-order step ``s`` the ``s``-th oldest interior node of *every* tree
    is processed in one fused stacked operation, using per-tree gathered
    child indices.  Transition matrices are computed once
    per *unique* branch length in the whole batch — sibling proposals share
    every branch outside their resimulated region, so most of the
    ``n_trees · n_nodes`` matrix exponentials collapse.

    ``workspace`` optionally supplies the ``(≥n_trees, n_nodes, n_cols, 4)``
    partial-likelihood buffer; every slot is fully rewritten per call, so
    an engine can hand the same buffer to every batch
    instead of allocating a fresh one — the stacked cross-chain executor
    pushes ``K·(N+1)``-tree batches through here every round, where the
    per-call allocation is pure overhead.  A buffer of the wrong shape is
    ignored (a fresh one is allocated), so callers can pass opportunistically.

    Returns
    -------
    ``(n_trees,)`` array of log-likelihoods.
    """
    if len(trees) == 0:
        return np.zeros(0)
    n_tips = trees[0].n_tips
    n_nodes = trees[0].n_nodes
    for t in trees:
        if t.n_tips != n_tips:
            raise ValueError("all genealogies in a batch must have the same number of tips")
        if t.tip_names != trees[0].tip_names:
            raise ValueError("all genealogies in a batch must share tip names")
    if n_tips != alignment.n_sequences:
        raise ValueError("genealogy tip count does not match the alignment")

    if site_data is None:
        site_data = SiteData.from_alignment(alignment, use_patterns=use_patterns)
    codes, weights = site_data.codes, site_data.weights
    n_sites = codes.shape[1]
    n_trees = len(trees)

    branch = np.stack([t.branch_lengths() for t in trees])
    unique_lengths, inverse = np.unique(branch.reshape(-1), return_inverse=True)

    # Per-tree post-order of interior nodes (children always precede parents
    # because parents are strictly older).
    orders = np.stack([t.postorder()[n_tips:] for t in trees])  # (n_trees, n_internal)
    children = np.stack([t.children for t in trees])  # (n_trees, n_nodes, 2)
    roots = np.array([t.root for t in trees])
    tree_idx = np.arange(n_trees)

    # Transition matrices are deduplicated through the unique lengths:
    # identical inputs produce bitwise-identical matrices, so the dedup is
    # value-preserving.
    pmats = model.transition_matrices(unique_lengths)[inverse.reshape(n_trees, n_nodes)]
    freqs = np.asarray(model.base_frequencies)

    if workspace is not None and workspace.shape[0] >= n_trees and tuple(
        workspace.shape[1:]
    ) == (n_nodes, n_sites, 4):
        partials = workspace[:n_trees]
    else:
        partials = np.empty((n_trees, n_nodes, n_sites, 4))
    partials[:, :n_tips] = site_data.tips[None, :, :, :]
    log_scale = np.zeros((n_trees, n_sites))

    for step in range(n_tips - 1):
        nodes = orders[:, step]  # (n_trees,)
        c0 = children[tree_idx, nodes, 0]
        c1 = children[tree_idx, nodes, 1]
        # Gather child partials and child-branch transition matrices.
        left_part = partials[tree_idx, c0]  # (n_trees, n_sites, 4)
        right_part = partials[tree_idx, c1]
        left_mat = pmats[tree_idx, c0]  # (n_trees, 4, 4)
        right_mat = pmats[tree_idx, c1]
        left = np.einsum("tsj,tij->tsi", left_part, left_mat)
        right = np.einsum("tsj,tij->tsi", right_part, right_mat)
        vec = left * right
        peak = _state_peak(vec)
        partials[tree_idx, nodes] = vec / peak[:, :, None]
        log_scale = log_scale + np.log(peak)

    root_partials = partials[tree_idx, roots]  # (n_trees, n_sites, 4)
    site_like = np.matmul(root_partials, freqs)
    site_logs = np.log(np.maximum(site_like, _TINY)) + log_scale
    # Pattern-weight reduction per tree via the 1-D dot, never the multi-row
    # gemv: BLAS reduces a row of an (n_trees, n_cols) matrix-vector product
    # in a different order than the equivalent 1-D dot, so one tree's total
    # could depend on how many other trees shared its batch.  The per-row dot
    # makes every tree's value bitwise identical to the single-tree path for
    # any batch composition — the contract the samplers' batched evaluation
    # (and the stacked cross-chain executor in particular) relies on.
    return np.stack([np.matmul(site_logs[t], weights) for t in range(n_trees)])
