"""Top-level mpcgs driver: the program flow of Fig. 11.

``MPCGS`` ties the pieces together exactly as the proof-of-concept program
does:

1. read the sequence data and an initial driving θ₀,
2. build the UPGMA starting genealogy scaled by θ₀ (Section 5.1.3),
3. repeat, for a fixed number of Expectation-Maximization iterations:
   run the multi-proposal sampler driven by the current θ (Expectation),
   then maximize the relative likelihood curve over θ (Maximization) and
   adopt the maximizer as the next driving value,
4. return the final θ estimate together with the per-iteration history.

One loop serves every demography.  Under a model with free parameters the
chain is driven by (θ, params) and the Maximization stage ascends the joint
(θ, params) surface; a parameter-free demography (the constant-size model)
keeps the paper's θ-only M-step (Algorithm 2).

The same driver can run any registered sampler in place of the
multi-proposal chain — set ``n_proposals=1`` for the single-proposal
reduction, or name a sampler in the config (``MPCGSConfig(sampler="lamarc")``)
— which is how the accuracy comparison of Table 1 puts both samplers on
identical footing.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..backend.rng_registry import derive_master_seed, named_stream
from ..demography.base import Demography
from ..diagnostics.traces import ChainResult
from ..service.checkpoint import (
    CheckpointMismatchError,
    EMCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from ..service.events import CHECKPOINT_WRITTEN, EM_ITERATION_COMPLETED, Event
from ..service.hashing import content_hash, digest_alignment
from ..genealogy.tree import Genealogy
from ..genealogy.upgma import upgma_tree
from ..likelihood.demography_prior import (
    CombinedDemographyLikelihood,
    DemographyRelativeLikelihood,
)
from ..likelihood.engines import LikelihoodEngine, make_engine
from ..likelihood.mutation_models import make_model
from ..sequences.alignment import Alignment
from .config import MPCGSConfig
from .estimator import (
    DemographyEstimate,
    RelativeLikelihood,
    ThetaEstimate,
    maximize_demography,
    maximize_theta,
)
from .registry import make_sampler, require_demography_support


def _interior_topological_order(tree: Genealogy) -> list[int]:
    """Interior nodes in coalescent event order (children strictly before parents).

    Kahn's algorithm over the interior-node ancestry, popping ready nodes
    from a (time, index) min-heap: with distinct interior times this is
    exactly the time sort (a parent is always older than its children, so
    the youngest unranked interior node is always ready), and with tied
    times the ancestry constraint still holds, deterministically tie-broken
    by node index.
    """
    n_tips = tree.n_tips
    n_pending = {}
    heap: list[tuple[float, int]] = []
    for node in range(n_tips, tree.n_nodes):
        interior_children = int(np.sum(tree.children[node] >= n_tips))
        n_pending[node] = interior_children
        if interior_children == 0:
            heap.append((float(tree.times[node]), node))
    heapq.heapify(heap)

    order: list[int] = []
    while heap:
        _, node = heapq.heappop(heap)
        order.append(node)
        parent = int(tree.parent[node])
        if parent >= 0:
            n_pending[parent] -= 1
            if n_pending[parent] == 0:
                heapq.heappush(heap, (float(tree.times[parent]), parent))
    if len(order) != tree.n_internal:
        raise ValueError("genealogy ancestry is cyclic or disconnected")
    return order

#: Stock samplers whose registry builders call ``engine_factory`` exactly
#: once, so sharing one cached engine across EM iterations cannot leak work
#: (or cached partials) between concurrently-counted chains.
_SINGLE_ENGINE_SAMPLERS = frozenset({"gmh", "lamarc", "heated", "bayesian"})


def _cache_counts(sampler) -> tuple[int, int]:
    """Cache hits and misses so far of ``sampler``'s engine; (0, 0) without one.

    Multichain samplers hold no single engine, so they report no reuse.
    """
    engine = getattr(sampler, "engine", None)
    return getattr(engine, "n_cache_hits", 0), getattr(engine, "n_cache_misses", 0)


def _mixing_and_reuse(chain, sampler, counts_before: tuple[int, int]) -> dict[str, float]:
    """The ``acceptance_rate`` and ``cache_hit_rate`` of one EM iteration's chain."""
    hits, misses = (now - before for now, before in zip(_cache_counts(sampler), counts_before))
    return {
        "acceptance_rate": chain.n_accepted / chain.n_decisions if chain.n_decisions else 0.0,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def _settled(
    estimate: ThetaEstimate | DemographyEstimate,
    theta: float,
    demography: Demography,
    tol: float,
) -> bool:
    """Whether an M-step moved θ and every parameter of ``demography`` by less than ``tol``.

    Each move is measured relative to its new value, floored at 1.  A
    parameter-free demography has no parameters, so only θ is tested.
    """
    return abs(estimate.theta - theta) < tol * max(estimate.theta, 1.0) and all(
        abs(new - old) < tol * max(abs(new), 1.0)
        for new, old in zip(estimate.params, demography.param_values())
    )


def _uses_single_engine(cfg: MPCGSConfig) -> bool:
    """Whether this config's sampler holds exactly one engine per run.

    True for the stock single-engine samplers, and for the multichain
    baseline in ``mode="stacked"`` — the stacked executor calls the factory
    once and pushes every chain through that one engine, so a warm cache
    shared across EM iterations is just as safe (and just as profitable) as
    for the gmh chain.  Process-mode multichain keeps fresh engines: each
    chain must pay and count its full pruning work independently.
    """
    if cfg.sampler_name in _SINGLE_ENGINE_SAMPLERS:
        return True
    return (
        cfg.sampler_name == "multichain"
        and cfg.sampler_options.get("mode") == "stacked"
    )


@dataclass(frozen=True)
class _EngineBuilder:
    """Picklable zero-argument engine factory.

    The multi-chain baseline's process-parallel mode (``n_workers > 1``)
    ships the factory to worker processes, so the driver's default factory
    must survive pickling — a frozen dataclass holding the engine name and
    its inputs does, where the previous local closure could not.
    """

    engine_name: str
    alignment: Alignment
    model: object

    def __call__(self) -> LikelihoodEngine:
        return make_engine(self.engine_name, self.alignment, self.model)


__all__ = [
    "MPCGS",
    "EMIteration",
    "MPCGSResult",
    "MultiLocusResult",
    "run_multilocus",
]


@dataclass(frozen=True)
class EMIteration:
    """One Expectation-Maximization iteration's inputs and outputs.

    Under a non-constant demography ``estimate`` is a
    :class:`~repro.core.estimator.DemographyEstimate`, ``driving_params``
    holds the demography parameters the chain was driven with, and
    ``driving_growth`` mirrors the exponential model's ``growth`` parameter
    (0.0 for every other demography, preserving the PR-3 field).  Constant
    runs carry a :class:`~repro.core.estimator.ThetaEstimate` and no
    driving parameters.
    """

    iteration: int
    driving_theta: float
    estimate: ThetaEstimate | DemographyEstimate
    chain: ChainResult
    driving_growth: float = 0.0
    driving_params: dict | None = None


@dataclass
class MPCGSResult:
    """Final output of an mpcgs run.

    ``demography``/``demography_params`` name the estimated model and its
    final parameter estimates (``None`` for constant runs); ``growth``
    mirrors ``demography_params["growth"]`` when the model has one (the
    exponential/growth demography), keeping the PR-3 surface intact.
    """

    theta: float
    iterations: list[EMIteration] = field(default_factory=list)
    growth: float | None = None
    demography: str | None = None
    demography_params: dict | None = None

    @property
    def theta_trajectory(self) -> np.ndarray:
        """Driving θ values across EM iterations, ending at the final estimate."""
        values = [it.driving_theta for it in self.iterations] + [self.theta]
        return np.asarray(values)

    @property
    def growth_trajectory(self) -> np.ndarray:
        """Driving g values across EM iterations, ending at the final estimate.

        All zeros (the constant-demography rate) when the run did not
        estimate growth.
        """
        final = self.growth if self.growth is not None else 0.0
        values = [it.driving_growth for it in self.iterations] + [final]
        return np.asarray(values)

    @property
    def total_samples(self) -> int:
        """Total genealogy samples drawn across all EM iterations."""
        return sum(it.chain.n_samples for it in self.iterations)

    @property
    def total_likelihood_evaluations(self) -> int:
        """Total data-likelihood evaluations across all EM iterations."""
        return sum(it.chain.n_likelihood_evaluations for it in self.iterations)

    @property
    def wall_time_seconds(self) -> float:
        """Total sampler wall-clock time across all EM iterations."""
        return sum(it.chain.wall_time_seconds for it in self.iterations)


class MPCGS:
    """The multi-proposal coalescent genealogy sampler (program of Fig. 11)."""

    def __init__(self, alignment: Alignment, config: MPCGSConfig | None = None) -> None:
        self.alignment = alignment
        self.config = config or MPCGSConfig()
        base_freqs = alignment.base_frequencies(pseudocount=1.0)
        self.model = make_model(self.config.mutation_model, base_frequencies=base_freqs)

    def initial_tree(self, theta0: float) -> Genealogy:
        """The UPGMA seed genealogy scaled by the driving θ (Section 5.1.3)."""
        return upgma_tree(self.alignment, driving_theta=theta0)

    def _engine_factory(self, share_cache: bool = False) -> Callable[[], LikelihoodEngine]:
        """Zero-argument builder of engines (one per EM iteration or chain).

        By default every call builds a fresh engine so per-chain work
        counters stay honest (the multi-chain baseline's documented
        contract).  With ``share_cache=True`` an engine that carries a
        reusable partial-likelihood cache (it exposes ``clear_cache``) is
        built once and shared across EM iterations: partials depend only on
        the tree, the alignment and the mutation model — none of which
        change when the driving θ moves — so the rows a tree carries stay
        valid and the grown arena is reused.  The re-timed start tree of
        each iteration carries no rows and is pruned once in full.  Samplers
        report per-run counter deltas, which keeps the shared instance's
        statistics per-iteration accurate.
        """
        # Picklable (unlike a local closure) so the multichain baseline can
        # ship it to worker processes under n_workers > 1.
        build = _EngineBuilder(self.config.likelihood_engine, self.alignment, self.model)

        if not share_cache:
            return build
        probe = build()
        if not hasattr(probe, "clear_cache"):
            return build
        return lambda: probe

    def run_key(self, theta0: float) -> str:
        """Content hash identifying this run's trajectory.

        Covers everything the EM trajectory is a deterministic function of
        besides the RNG (whose exact state the checkpoint carries): the full
        config, the starting θ₀, and the alignment itself.  Checkpoints are
        stamped with this key so one run cannot silently resume from
        another's state.
        """
        return content_hash(
            {
                "config": self.config.to_dict(),
                "theta0": float(theta0),
                "data": digest_alignment(self.alignment),
            }
        )

    @staticmethod
    def _emit(on_event, kind: str, **payload) -> None:
        """Publish one typed event to the optional ``on_event`` hook."""
        if on_event is not None:
            on_event(Event(kind=kind, payload=payload))

    @staticmethod
    def _resolve_checkpoint(resume_from, run_key: str) -> EMCheckpoint:
        """Accept either a checkpoint path or an in-memory :class:`EMCheckpoint`."""
        if isinstance(resume_from, EMCheckpoint):
            if resume_from.run_key != run_key:
                raise CheckpointMismatchError(
                    "checkpoint belongs to a different run "
                    f"(checkpoint key {resume_from.run_key[:12]}…, "
                    f"expected {run_key[:12]}…); refusing to resume"
                )
            return resume_from
        return load_checkpoint(resume_from, expected_run_key=run_key)

    def _write_checkpoint(
        self,
        checkpoint_path,
        on_event,
        *,
        run_key: str,
        completed: int,
        theta: float,
        demography: Demography | None,
        tree: Genealogy,
        rng: np.random.Generator,
        iterations: list[EMIteration],
        share_cache: bool,
        converged: bool,
    ) -> None:
        """Cut one atomic checkpoint and announce it on the event hook.

        The RNG state is captured *after* the completed iteration's last
        draw and the tree is the already-reseeded next seed, so restoring
        the checkpoint replays the remaining trajectory bit-identically.
        """
        checkpoint = EMCheckpoint(
            run_key=run_key,
            completed_iterations=completed,
            theta=float(theta),
            demography=demography,
            tree=tree.copy(),
            rng_state=rng.bit_generator.state,
            iterations=list(iterations),
            engine_name=self.config.likelihood_engine,
            engine_cache_warm=share_cache,
            converged=converged,
        )
        save_checkpoint(checkpoint_path, checkpoint)
        self._emit(
            on_event,
            CHECKPOINT_WRITTEN,
            iteration=completed,
            path=str(checkpoint_path),
            converged=converged,
        )

    def run(
        self,
        theta0: float,
        rng: np.random.Generator,
        *,
        initial_tree: Genealogy | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 1,
        on_event: Callable[[Event], None] | None = None,
        resume_from: str | Path | EMCheckpoint | None = None,
    ) -> MPCGSResult:
        """Estimate θ from the alignment starting from the driving value ``theta0``.

        Every iteration builds the config's sampler at the driving point
        (:meth:`demography_iteration_sampler`), runs it, maximizes the
        relative likelihood of its samples and adopts the maximizer.  Under
        a demography with free parameters the chain targets the posterior
        under the prior P(G | θ, params), the M-step maximizes the joint
        (θ, params) surface, and the checkpoint also carries the driving
        demography.  A parameter-free demography (the constant-size model)
        keeps the θ-only M-step, and its result, events and checkpoints carry
        no demography.

        Parameters
        ----------
        theta0:
            Initial driving value of θ (the CLI's second argument).  Only
            positivity is required; the EM loop is designed to be
            insensitive to it.
        rng:
            NumPy random generator for the whole run.
        initial_tree:
            Optional starting genealogy; defaults to the UPGMA tree.
        checkpoint_path:
            When set, an :class:`~repro.service.checkpoint.EMCheckpoint` is
            written (atomically) here after every ``checkpoint_every``-th EM
            iteration, so a killed run can be resumed bit-identically.
        checkpoint_every:
            Checkpoint cadence in EM iterations (default 1: every
            iteration).
        on_event:
            Optional hook receiving typed
            :class:`~repro.service.events.Event` objects
            (``em.iteration_completed``, ``checkpoint.written``) as the run
            progresses.
        resume_from:
            A checkpoint path (or in-memory checkpoint) to continue from.
            The checkpoint's ``run_key`` must match this run's (same config,
            θ₀, and alignment); the restored RNG state, seed tree, and
            history make the continued trajectory bit-identical to the
            uninterrupted run.
        """
        if theta0 <= 0:
            raise ValueError("theta0 must be positive")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive")
        cfg = self.config
        require_demography_support(cfg)
        demography = cfg.demography_model()
        joint = bool(demography.param_specs)
        # Cache sharing is safe only for samplers known to hold a single
        # engine.  Everything else — the process-mode multi-chain baseline
        # (which must pay and count every chain's full pruning work
        # independently) and custom registered samplers whose engine
        # discipline is unknown — gets fresh engines per call.
        share_cache = _uses_single_engine(cfg)
        engine_factory = self._engine_factory(share_cache=share_cache)
        run_key = (
            self.run_key(theta0)
            if checkpoint_path is not None or resume_from is not None
            else ""
        )
        theta = float(theta0)
        iterations: list[EMIteration] = []
        start_iteration = 0
        if resume_from is not None:
            checkpoint = self._resolve_checkpoint(resume_from, run_key)
            start_iteration = checkpoint.completed_iterations
            theta = float(checkpoint.theta)
            if joint:
                demography = checkpoint.demography
            iterations = list(checkpoint.iterations)
            tree = checkpoint.tree.copy()
            rng.bit_generator.state = checkpoint.rng_state
            if checkpoint.converged:
                return self._result(theta, demography, iterations)
        else:
            tree = initial_tree if initial_tree is not None else self.initial_tree(theta)

        for iteration in range(start_iteration, cfg.n_em_iterations):
            sampler = self.demography_iteration_sampler(theta, demography, engine_factory)
            counts = _cache_counts(sampler)
            chain = sampler.run(tree, rng)

            if joint:
                likelihood = DemographyRelativeLikelihood(
                    chain.interval_matrix, demography, driving_theta=theta
                )
                m_step_start = time.perf_counter()
                estimate = maximize_demography(likelihood, theta, demography, cfg.estimator)
            else:
                # The paper's θ-only gradient ascent (Algorithm 2).
                likelihood = RelativeLikelihood(chain.interval_matrix, driving_theta=theta)
                m_step_start = time.perf_counter()
                estimate = maximize_theta(likelihood, theta, cfg.estimator)
            m_step_seconds = time.perf_counter() - m_step_start

            iterations.append(
                EMIteration(
                    iteration=iteration,
                    driving_theta=theta,
                    estimate=estimate,
                    chain=chain,
                    driving_growth=demography.params.get("growth", 0.0),
                    driving_params=demography.params if joint else None,
                )
            )

            converged = _settled(estimate, theta, demography, cfg.theta_convergence_tol)
            driving_theta = theta
            theta = estimate.theta
            demography = demography.with_param_values(estimate.params)
            # Carry the last sampled genealogy forward as the next seed, so
            # successive EM iterations do not restart from the UPGMA tree.
            tree = self._reseed_tree(tree, chain)
            completed = iteration + 1
            self._emit(
                on_event,
                EM_ITERATION_COMPLETED,
                iteration=iteration,
                driving_theta=driving_theta,
                theta_estimate=theta,
                **({"demography_params": dict(demography.params)} if joint else {}),
                converged=converged,
                n_samples=chain.n_samples,
                n_likelihood_evaluations=chain.n_likelihood_evaluations,
                wall_time_seconds=chain.wall_time_seconds,
                m_step_seconds=m_step_seconds,
                m_step_surface_evals=likelihood.n_evaluations,
                m_step_converged=estimate.converged,
                m_step_iterations=estimate.n_iterations,
                **_mixing_and_reuse(chain, sampler, counts),
            )
            if checkpoint_path is not None and (
                converged
                or completed % checkpoint_every == 0
                or completed == cfg.n_em_iterations
            ):
                self._write_checkpoint(
                    checkpoint_path,
                    on_event,
                    run_key=run_key,
                    completed=completed,
                    theta=theta,
                    demography=demography if joint else None,
                    tree=tree,
                    rng=rng,
                    iterations=iterations,
                    share_cache=share_cache,
                    converged=converged,
                )
            if converged:
                break

        return self._result(theta, demography, iterations)

    @staticmethod
    def _result(
        theta: float, demography: Demography, iterations: list[EMIteration]
    ) -> MPCGSResult:
        """The run's result; a parameter-free demography leaves its fields ``None``."""
        if not demography.param_specs:
            return MPCGSResult(theta=theta, iterations=iterations)
        return MPCGSResult(
            theta=theta,
            iterations=iterations,
            growth=demography.params.get("growth"),
            demography=demography.name,
            demography_params=demography.params,
        )

    def demography_iteration_sampler(
        self, theta: float, demography: Demography, engine_factory=None
    ):
        """One EM iteration's demography-targeted sampler at the driving point."""
        cfg = self.config
        if engine_factory is None:
            engine_factory = self._engine_factory(share_cache=_uses_single_engine(cfg))
        # A parameter-free demography is the constant model every sampler
        # already targets: omit the option so samplers without a demography
        # keyword (multichain, custom ones) work unchanged.
        demography_options = {"demography": demography} if demography.param_specs else {}
        return make_sampler(
            cfg.sampler_name,
            engine_factory=engine_factory,
            theta=theta,
            config=cfg.sampler,
            **demography_options,
            **cfg.sampler_options,
        )

    @staticmethod
    def _reseed_tree(previous: Genealogy, chain: ChainResult) -> Genealogy:
        """Build the next EM iteration's starting tree.

        The chain result stores only interval lengths (not topologies), so
        the next iteration starts from the previous topology with its
        coalescent times replaced by the last sample's intervals — the same
        "seed the next chain with the end of the last" practice the paper
        inherits from LAMARC.
        """
        intervals = chain.interval_matrix
        if intervals.shape[0] == 0:
            return previous
        last = intervals[-1]
        new = previous.copy()
        # Assign new times to interior nodes in their existing coalescent
        # event order.  A plain time argsort can order a parent before its
        # child when interior times tie (the argsort tiebreak knows nothing
        # of ancestry), and the cumsum reassignment would then violate the
        # parent-older-than-child invariant; instead rank by a stable
        # topological order — pop the oldest-first min-heap of nodes whose
        # interior children are already ranked — which equals the time order
        # whenever times are distinct.
        order = _interior_topological_order(new)
        new_times = np.cumsum(last)
        # A degenerate recorded sample (zero-length interval, e.g. from
        # floating-point collapse in the proposal rebuild) yields tied cumsum
        # times; nudge them strictly increasing so a parent assigned the
        # later rank stays strictly older than its child.  Strictly positive
        # intervals are left bit-for-bit untouched.
        if new_times[0] <= 0.0:
            new_times[0] = 1e-300
        for i in range(1, new_times.size):
            if new_times[i] <= new_times[i - 1]:
                new_times[i] = new_times[i - 1] * (1.0 + 1e-12) + 1e-300
        for node, t in zip(order, new_times):
            new.times[node] = t
        new.validate()
        return new


@dataclass
class MultiLocusResult:
    """Final output of a multi-locus joint (θ, demography-parameters) estimation.

    ``trajectory`` holds the driving ``(θ, *params)`` tuples per EM
    iteration, ending at the final estimate; ``growth`` mirrors
    ``params["growth"]`` when the demography has one (the PR-3 surface).
    """

    theta: float
    n_loci: int
    demography: str = "constant"
    params: dict = field(default_factory=dict)
    trajectory: list[tuple] = field(default_factory=list)
    total_samples: int = 0
    total_likelihood_evaluations: int = 0

    @property
    def growth(self) -> float | None:
        """The exponential growth-rate estimate, when the demography has one."""
        return self.params.get("growth")

    @property
    def n_iterations(self) -> int:
        """Number of EM iterations performed."""
        return max(len(self.trajectory) - 1, 0)


def run_multilocus(
    alignments,
    config: MPCGSConfig,
    theta0: float,
    rng: np.random.Generator,
) -> MultiLocusResult:
    """Joint estimation from several unlinked loci sharing one demography.

    A single locus constrains demography parameters only weakly — the
    (θ, params) likelihood is a long, nearly flat ridge whose maximizer
    systematically overshoots (the well-documented single-locus bias of
    LAMARC-family growth estimators).  Unlinked loci share the demography,
    so their log-likelihood surfaces add: each EM iteration drives one
    demography-targeted chain per locus at the current driving point, sums
    the per-locus relative-likelihood surfaces
    (:class:`~repro.likelihood.demography_prior.CombinedDemographyLikelihood`),
    and ascends the summed surface jointly.  Curvature accumulates locus by
    locus and the maximizer pins the parameters down.

    Works for *any* registered demography, the constant one included (the
    combined surface is then θ-only).  Per-locus chains use independent
    named RNG streams ``("locus", j, "iteration", i)`` under a master seed
    drawn once from ``rng``, so any subset of loci reproduces bit-identically
    regardless of execution order or locus count.
    """
    alignments = list(alignments)
    if not alignments:
        raise ValueError("need at least one alignment")
    require_demography_support(config)
    if theta0 <= 0:
        raise ValueError("theta0 must be positive")

    demography = config.demography_model()
    drivers = [MPCGS(alignment, config) for alignment in alignments]
    engine_factories = [
        driver._engine_factory(share_cache=_uses_single_engine(config))
        for driver in drivers
    ]
    theta = float(theta0)
    master = derive_master_seed(rng)
    trees = [driver.initial_tree(theta) for driver in drivers]
    result = MultiLocusResult(
        theta=theta,
        n_loci=len(drivers),
        demography=demography.name,
        params=demography.params,
    )
    result.trajectory.append((theta, *demography.param_values()))

    for iteration in range(config.n_em_iterations):
        components = []
        for locus, driver in enumerate(drivers):
            sampler = driver.demography_iteration_sampler(
                theta, demography, engine_factories[locus]
            )
            chain = sampler.run(
                trees[locus], named_stream(master, "locus", locus, "iteration", iteration)
            )
            components.append(
                DemographyRelativeLikelihood(
                    chain.interval_matrix, demography, driving_theta=theta
                )
            )
            trees[locus] = MPCGS._reseed_tree(trees[locus], chain)
            result.total_samples += chain.n_samples
            result.total_likelihood_evaluations += chain.n_likelihood_evaluations

        estimate = maximize_demography(
            CombinedDemographyLikelihood(components), theta, demography, config.estimator
        )
        converged = _settled(estimate, theta, demography, config.theta_convergence_tol)
        theta = estimate.theta
        demography = demography.with_param_values(estimate.params)
        result.theta = theta
        result.params = demography.params
        result.trajectory.append((theta, *estimate.params))
        if converged:
            break

    return result
