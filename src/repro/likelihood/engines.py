"""Likelihood evaluation engines.

Both samplers spend essentially all of their time evaluating P(D | G) for
candidate genealogies; *how* that evaluation is executed is exactly what
distinguishes the serial baseline from the parallel multi-proposal sampler
in the paper.  The engines below expose one common interface —
``evaluate(tree)`` and ``evaluate_batch(trees)`` — over the three
implementations in :mod:`repro.likelihood.felsenstein`:

``SerialEngine``
    Per-site scalar pruning, one genealogy at a time.  This is the
    evaluation path of a classic serial sampler (the LAMARC comparator).

``VectorizedEngine``
    Site-vectorized pruning, still one genealogy per call — SIMD over the
    site axis only.

``BatchedEngine``
    Site- and proposal-vectorized pruning: a whole proposal set is evaluated
    in one fused call, which is the work distribution of the paper's
    proposal + data-likelihood kernels (Sections 5.2.1–5.2.2).

Every engine counts evaluations and evaluated sites so benchmarks can
report work done alongside wall-clock time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..backend import ArrayBackend, get_backend
from ..genealogy.tree import Genealogy
from ..sequences.alignment import Alignment
from ..service.faults import current_injector
from .felsenstein import (
    SiteData,
    batched_log_likelihood,
    log_likelihood,
    log_likelihood_reference,
)
from .mutation_models import MutationModel

__all__ = [
    "LikelihoodEngine",
    "SerialEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "ConstantEngine",
    "NumericalFaultError",
    "DEGRADATION_LADDER",
    "checked_loglik",
    "make_engine",
]


class NumericalFaultError(ArithmeticError):
    """An engine produced a non-finite log-likelihood (NaN or ±inf).

    The pruning kernels clamp per-site likelihoods away from zero, so a
    non-finite value can only mean corrupted inputs or state — a fault, not
    a statistic.  Raising a *typed* error at the engine boundary (instead of
    letting NaN propagate through acceptance ratios and θ estimates) lets
    the job runner react structurally: it walks the job down
    :data:`DEGRADATION_LADDER` to a simpler engine and records each step as
    a ``job.degraded`` event before declaring the job failed.
    """


#: Engine-degradation order: when a run dies with :class:`NumericalFaultError`
#: on an engine, the job runner retries it on the named fallback (the next
#: rung strips one layer of evaluation machinery — fused stacking, then the
#: partial-likelihood cache, then proposal batching).  Engines absent from
#: the map (``vectorized``, ``serial``, ``constant``) have nothing simpler
#: to fall back to; the fault is final there.
DEGRADATION_LADDER: dict[str, str | None] = {
    "fused": "cached",
    "cached": "vectorized",
    "batched": "vectorized",
}


def checked_loglik(values, engine_name: str):
    """Gate engine output: inject scoped NaN faults, reject non-finite values.

    Every engine passes its evaluation results through here.  Under an
    active :func:`~repro.service.faults.fault_scope` the injector may poison
    one value (that is how chaos tests reach the degradation path); with no
    scope the hook is one ``None`` check.  Scalars and 1-D batches are both
    accepted and returned unchanged when healthy.
    """
    injector = current_injector()
    if injector is not None:
        values = injector.corrupt_likelihood(values)
    if np.ndim(values) == 0:
        finite = math.isfinite(float(values))
    else:
        finite = bool(np.all(np.isfinite(values)))
    if not finite:
        raise NumericalFaultError(
            f"{engine_name} produced a non-finite log-likelihood; "
            "the evaluation cannot be trusted"
        )
    return values


@dataclass
class LikelihoodEngine:
    """Base class: holds the data, the model, and work counters.

    Three counters describe the work done since the last reset:

    ``n_evaluations``
        Genealogies whose log-likelihood was returned.
    ``n_nodes_pruned``
        Interior-node partial-likelihood computations actually performed.  A
        full pruning pass costs ``n_tips - 1`` per tree; an incremental
        engine that reuses cached partials reports only the dirty nodes it
        re-pruned.
    ``n_tree_site_products``
        Site-level work in units of "full-tree evaluations × sites": a full
        pruning of one tree adds ``n_sites``; partial re-pruning adds the
        matching fraction.  Benchmarks use this as the hardware-independent
        cost measure.
    """

    alignment: Alignment
    model: MutationModel
    backend: str = "numpy"
    n_evaluations: int = field(default=0, init=False)
    n_nodes_pruned: int = field(default=0, init=False)
    n_tree_site_products: int = field(default=0, init=False)
    _site_data: SiteData | None = field(default=None, init=False, repr=False)
    _xp: ArrayBackend | None = field(default=None, init=False, repr=False)

    @property
    def xp(self) -> ArrayBackend:
        """The array backend handle this engine's device math runs on.

        Resolved lazily from the ``backend`` name (a property rather than
        ``__post_init__`` work so subclasses that override ``__post_init__``
        without chaining to super still resolve correctly).  The serial and
        constant engines never consult it — they are host-only by design.
        """
        if self._xp is None:
            self._xp = get_backend(self.backend)
        return self._xp

    @property
    def site_data(self) -> SiteData:
        """Pattern codes, weights, and tip partials, computed once per engine.

        Historically every ``evaluate``/``evaluate_batch`` call re-ran pattern
        compression and rebuilt the one-hot tip partials; they depend only on
        the alignment, so they are hoisted here and shared by every call (the
        incremental engines always worked this way).  Built lazily so engines
        that never touch them — :class:`ConstantEngine` — pay nothing.
        """
        if self._site_data is None:
            self._site_data = SiteData.from_alignment(self.alignment)
        return self._site_data

    def _count(
        self,
        n_trees: int,
        *,
        nodes_pruned: int | None = None,
        tree_site_products: int | None = None,
    ) -> None:
        self.n_evaluations += n_trees
        if tree_site_products is None:
            tree_site_products = n_trees * self.alignment.n_sites
        self.n_tree_site_products += tree_site_products
        if nodes_pruned is not None:
            self.n_nodes_pruned += nodes_pruned

    def reset_counters(self) -> None:
        """Zero the work counters (benchmarks call this between phases)."""
        self.n_evaluations = 0
        self.n_nodes_pruned = 0
        self.n_tree_site_products = 0

    def _healthy(self, values):
        """Every evaluation result exits through :func:`checked_loglik`."""
        return checked_loglik(values, type(self).__name__)

    # Subclasses override the two methods below.
    def evaluate(self, tree: Genealogy) -> float:
        """log P(D | G) for one genealogy."""
        raise NotImplementedError

    def evaluate_batch(self, trees: list[Genealogy]) -> np.ndarray:
        """log P(D | G) for each genealogy in ``trees``."""
        raise NotImplementedError

    def evaluate_stacked(self, groups: list[list[Genealogy]]) -> list[np.ndarray]:
        """Evaluate several independent tree groups through one batched call.

        ``groups`` holds one list of candidate genealogies per logical unit
        of work — e.g. one group per chain of a stacked multichain round.
        The groups are flattened into a *single* ``evaluate_batch`` call (so
        a batching engine sees the full cross-group batch: one fused
        workspace, transition matrices deduplicated across groups) and the
        values are split back per group.  Because every engine's batch values
        are independent of batch composition, each group's values are
        identical to evaluating it alone — only the execution shape changes.
        """
        flat = [tree for group in groups for tree in group]
        values = np.asarray(self.evaluate_batch(flat))
        out: list[np.ndarray] = []
        lo = 0
        for group in groups:
            hi = lo + len(group)
            out.append(values[lo:hi])
            lo = hi
        return out


class SerialEngine(LikelihoodEngine):
    """Scalar per-site evaluation, one proposal at a time (the serial baseline).

    The reference implementation deliberately builds its per-site one-hot tip
    vectors inline and never pattern-compresses — that is the classic serial
    cost model the speedup benchmarks measure against — so there is no
    per-call site machinery left to hoist here.
    """

    def evaluate(self, tree: Genealogy) -> float:
        self._count(1, nodes_pruned=tree.n_internal)
        return self._healthy(log_likelihood_reference(tree, self.alignment, self.model))

    def evaluate_batch(self, trees: list[Genealogy]) -> np.ndarray:
        return np.array([self.evaluate(t) for t in trees])


class VectorizedEngine(LikelihoodEngine):
    """Site-vectorized evaluation, one proposal per call."""

    def evaluate(self, tree: Genealogy) -> float:
        self._count(1, nodes_pruned=tree.n_internal)
        return self._healthy(
            log_likelihood(
                tree, self.alignment, self.model, site_data=self.site_data, xp=self.xp
            )
        )

    def evaluate_batch(self, trees: list[Genealogy]) -> np.ndarray:
        return np.array([self.evaluate(t) for t in trees])


class BatchedEngine(LikelihoodEngine):
    """Site- and proposal-vectorized evaluation of whole proposal sets.

    The ``(n_trees, n_nodes, n_patterns, 4)`` partial-likelihood workspace of
    :func:`~repro.likelihood.felsenstein.batched_log_likelihood` is owned by
    the engine and reused across calls (regrown geometrically when a larger
    batch arrives), so a chain evaluating one proposal set per step — or a
    stacked multichain run pushing K chains' candidates through per round —
    stops paying a fresh device allocation per call.
    """

    _partials_ws = None  # lazily grown; shared by every evaluate_batch call

    def _workspace(self, n_trees: int, n_nodes: int, n_cols: int):
        ws = self._partials_ws
        if (
            ws is None
            or ws.shape[0] < n_trees
            or ws.shape[1] != n_nodes
            or ws.shape[2] != n_cols
        ):
            capacity = max(n_trees, 2 * (ws.shape[0] if ws is not None else 0))
            ws = self.xp.empty((capacity, n_nodes, n_cols, 4))
            self._partials_ws = ws
        return ws

    def evaluate(self, tree: Genealogy) -> float:
        self._count(1, nodes_pruned=tree.n_internal)
        return self._healthy(
            log_likelihood(
                tree, self.alignment, self.model, site_data=self.site_data, xp=self.xp
            )
        )

    def evaluate_batch(self, trees: list[Genealogy]) -> np.ndarray:
        if not trees:
            return np.zeros(0)
        self._count(len(trees), nodes_pruned=sum(t.n_internal for t in trees))
        workspace = self._workspace(
            len(trees), trees[0].n_nodes, self.site_data.n_cols
        )
        return self._healthy(
            batched_log_likelihood(
                list(trees),
                self.alignment,
                self.model,
                site_data=self.site_data,
                xp=self.xp,
                workspace=workspace,
            )
        )


class ConstantEngine(LikelihoodEngine):
    """An engine whose log-likelihood is identically zero.

    With a constant data term the posterior P(G | D, θ) reduces exactly to
    the coalescent prior P(G | θ), so a correct sampler driven by this engine
    must reproduce prior statistics (e.g. E[TMRCA] = θ(1 − 1/n)).  Used by
    correctness tests and by prior-only diagnostics; the ``alignment`` is
    still consulted for site counts so work accounting stays meaningful.
    """

    def evaluate(self, tree: Genealogy) -> float:
        self._count(1)
        return self._healthy(0.0)

    def evaluate_batch(self, trees: list[Genealogy]) -> np.ndarray:
        self._count(len(trees))
        return self._healthy(np.zeros(len(trees)))


# The incremental engines (repro.likelihood.incremental's CachedEngine and
# repro.likelihood.fused's FusedEngine) register themselves here on import;
# the package __init__ imports them, so any normal
# ``import repro.likelihood.engines`` sees the full table.
_ENGINES = {
    "serial": SerialEngine,
    "vectorized": VectorizedEngine,
    "batched": BatchedEngine,
    "constant": ConstantEngine,
}


def make_engine(
    name: str,
    alignment: Alignment,
    model: MutationModel,
    backend: str = "numpy",
) -> LikelihoodEngine:
    """Construct a likelihood engine by case-insensitive name.

    ``backend`` selects the array backend the engine's device math runs on
    (see :mod:`repro.backend`); the default numpy backend is bit-identical
    to the historical hard-wired implementation.  Raises the same "unknown
    name, available choices" error shape as the registries in
    :mod:`repro.core.registry`.
    """
    key = name.lower()
    if key not in _ENGINES:
        raise ValueError(f"unknown engine {name!r}; choose from {', '.join(sorted(_ENGINES))}")
    return _ENGINES[key](alignment=alignment, model=model, backend=backend)
