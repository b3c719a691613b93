"""Multiple-independent-chains baseline (the approach of Fig. 6).

The conventional way to parallelize an MCMC sampler is to run P independent
chains — one per processor — and pool their post-burn-in samples.  Every
chain must repeat the burn-in, so with B burn-in steps and N total samples
the per-processor work is ``B + N/P`` and, by Amdahl's law (Eq. 27),
efficiency collapses toward the burn-in cost as P grows.  This module
implements that baseline so the scalability argument can be measured rather
than asserted: it runs the chains — sequentially by default, or on real OS
processes with ``n_workers > 1`` so the Amdahl curves of
:class:`AmdahlModel` can be *measured* wall-clock instead of only
modeled — pools the traces in deterministic chain order, and reports both
the measured work and the idealized parallel-time model the paper uses.
"""

from __future__ import annotations

import atexit
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..backend.rng_registry import derive_master_seed, named_stream
from ..core.config import MULTICHAIN_MODES, SamplerConfig
from ..diagnostics.traces import ChainResult, ChainTrace
from ..genealogy.tree import Genealogy
from ..likelihood.engines import LikelihoodEngine
from .lamarc import LamarcSampler

__all__ = [
    "MultiChainSampler",
    "WorkerCrashError",
    "multichain_parallel_time",
    "gmh_parallel_time",
    "AmdahlModel",
    "shutdown_worker_pools",
]


class WorkerCrashError(RuntimeError):
    """A worker process died before returning its result.

    Raised in place of the raw :class:`concurrent.futures.process.\
BrokenProcessPool` (which names the pool's plumbing, not the job): the
    worker was killed by a signal, the OOM killer, or an interpreter
    crash — a *transient, job-level* failure.  The experiment service's
    scheduler catches exactly this type to retry the job on a fresh pool;
    genuine exceptions raised *by* chain code propagate unmodified (they
    are deterministic and retrying cannot help).
    """


def _run_single_chain(
    engine_factory: Callable[[], LikelihoodEngine],
    theta: float,
    config: SamplerConfig,
    initial_tree: Genealogy,
    rng: np.random.Generator,
    fault_context: tuple | None = None,
    chain_index: int = 0,
) -> ChainResult:
    """Run one LAMARC-style chain (module-level so process workers can import it).

    Every chain builds its own engine from the factory, exactly as the
    in-process path does, so per-chain work counters stay honest regardless
    of where the chain executes.

    ``fault_context`` — ``(plan_dict, scope_list)`` from the parent's active
    :class:`~repro.service.faults.FaultInjector` — rebuilds the injector
    inside the worker under the scope ``(*parent_scope, "chain", i)``: the
    same stream names the inline path derives, so a chain draws identical
    faults whether it runs in-process or on a pool worker.
    """
    engine = engine_factory()
    if fault_context is not None:
        from ..service.faults import FaultPlan, fault_scope

        plan_doc, parent_scope = fault_context
        injector = FaultPlan.from_dict(plan_doc).injector(
            *parent_scope, "chain", chain_index
        )
        with fault_scope(injector):
            return LamarcSampler(engine=engine, theta=theta, config=config).run(
                initial_tree, rng
            )
    return LamarcSampler(engine=engine, theta=theta, config=config).run(initial_tree, rng)


# Worker pools shared across runs, keyed by worker count.  An EM driver
# builds a fresh MultiChainSampler every iteration; creating (and tearing
# down) a ProcessPoolExecutor per iteration paid the worker fork/spawn cost
# over and over for identical pools.  The pool holds no run state — every
# job ships its own factory/config/RNG — so reuse cannot change results,
# only amortize startup.  A pool whose worker died is discarded (see
# :meth:`MultiChainSampler._execute`) so retries really do get a fresh one.
_WORKER_POOLS: dict[int, ProcessPoolExecutor] = {}


def _acquire_pool(max_workers: int) -> ProcessPoolExecutor:
    pool = _WORKER_POOLS.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(max_workers=max_workers)
        _WORKER_POOLS[max_workers] = pool
    return pool


def _discard_pool(max_workers: int) -> None:
    pool = _WORKER_POOLS.pop(max_workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_worker_pools() -> None:
    """Shut down every cached multichain worker pool (idempotent).

    Registered atexit; also callable directly by embedders that want the
    worker processes gone before interpreter teardown.
    """
    for max_workers in list(_WORKER_POOLS):
        _discard_pool(max_workers)


atexit.register(shutdown_worker_pools)


def multichain_parallel_time(burn_in: float, total_samples: float, n_processors: int) -> float:
    """Idealized per-processor step count ``B + N/P`` for P independent chains (Eq. 27)."""
    if n_processors < 1:
        raise ValueError("n_processors must be positive")
    return burn_in + total_samples / n_processors


def gmh_parallel_time(burn_in: float, total_samples: float, n_processors: int) -> float:
    """Idealized per-processor step count ``(B + N)/P`` when burn-in parallelizes too."""
    if n_processors < 1:
        raise ValueError("n_processors must be positive")
    return (burn_in + total_samples) / n_processors


@dataclass(frozen=True)
class AmdahlModel:
    """Step-count scaling model for burn-in-limited parallel MCMC."""

    burn_in: float
    n_samples: float

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.n_samples <= 0:
            raise ValueError("burn_in must be >= 0 and n_samples > 0")

    @property
    def serial_steps(self) -> float:
        """Steps a single chain performs: B + N."""
        return self.burn_in + self.n_samples

    def multichain_steps(self, n_processors: int | np.ndarray) -> np.ndarray:
        """Per-processor steps for P independent chains: B + N/P (Eq. 27's subject)."""
        p = np.asarray(n_processors, dtype=float)
        if np.any(p < 1):
            raise ValueError("processor counts must be >= 1")
        return self.burn_in + self.n_samples / p

    def gmh_steps(self, n_processors: int | np.ndarray, serial_fraction: float = 0.0) -> np.ndarray:
        """Per-processor steps when burn-in parallelizes too: (B + N)/P plus a serial residue."""
        if not 0.0 <= serial_fraction < 1.0:
            raise ValueError("serial_fraction must be in [0, 1)")
        p = np.asarray(n_processors, dtype=float)
        if np.any(p < 1):
            raise ValueError("processor counts must be >= 1")
        total = self.serial_steps
        return serial_fraction * total + (1.0 - serial_fraction) * total / p

    def multichain_speedup(self, n_processors: int | np.ndarray) -> np.ndarray:
        """Speedup of the multi-chain approach over one chain."""
        return self.serial_steps / self.multichain_steps(n_processors)

    def gmh_speedup(
        self, n_processors: int | np.ndarray, serial_fraction: float = 0.0
    ) -> np.ndarray:
        """Speedup of the GMH approach over one chain."""
        return self.serial_steps / self.gmh_steps(n_processors, serial_fraction)

    def multichain_efficiency(self, n_processors: int | np.ndarray) -> np.ndarray:
        """Parallel efficiency (speedup / P) of the multi-chain approach."""
        p = np.asarray(n_processors, dtype=float)
        return self.multichain_speedup(p) / p

    def gmh_efficiency(
        self, n_processors: int | np.ndarray, serial_fraction: float = 0.0
    ) -> np.ndarray:
        """Parallel efficiency (speedup / P) of the GMH approach."""
        p = np.asarray(n_processors, dtype=float)
        return self.gmh_speedup(p, serial_fraction) / p

    def multichain_speedup_limit(self) -> float:
        """The Amdahl limit lim_{P→∞} of the multi-chain speedup: (B + N) / B."""
        if self.burn_in == 0:
            return float("inf")
        return self.serial_steps / self.burn_in


@dataclass
class MultiChainSampler:
    """P independent LAMARC-style chains with pooled output.

    Parameters
    ----------
    engine_factory:
        Callable returning a fresh likelihood engine for each chain (each
        chain keeps its own work counters).
    theta:
        Driving θ₀ shared by all chains.
    n_chains:
        Number of independent chains (the P of Fig. 6).
    config:
        Per-run totals: ``n_samples`` is the *pooled* target, split evenly
        across chains; ``burn_in`` is per chain (that is the point).
    n_workers:
        Number of OS processes running chains concurrently (default 1 —
        sequential, the historical behaviour, bit-identical output).  With
        more workers the chains execute on a :class:`ProcessPoolExecutor`;
        because every chain owns the named RNG stream ``("chain", i)`` — a
        pure function of the master seed and the chain index — and the pool
        is drained in chain-index order, the pooled trace is bit-identical
        to the sequential run for *any* worker count and any execution
        order — only the wall clock changes
        (reported as ``extras["parallel_wall_seconds"]``).  Requires a
        picklable ``engine_factory`` (a module-level function or class
        instance, not a lambda/closure).
    mode:
        ``"process"`` (default) runs each chain to completion independently,
        in-process or on worker processes per ``n_workers``.  ``"stacked"``
        delegates to :class:`~repro.parallel.stacked.StackedMultiChain`:
        all chains advance lock-step in one process, one shared engine
        evaluating every chain's candidate per round as a single fused
        batch.  Both modes pool bit-identical traces (chains own named
        streams either way); stacked ignores ``n_workers`` and does not
        require a picklable factory.
    """

    engine_factory: Callable[[], LikelihoodEngine]
    theta: float
    n_chains: int
    config: SamplerConfig
    n_workers: int = 1
    mode: str = "process"

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be positive")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.mode not in MULTICHAIN_MODES:
            raise ValueError(
                f"unknown multichain mode {self.mode!r}; "
                f"choose from {MULTICHAIN_MODES}"
            )

    def chain_quotas(self) -> list[int]:
        """Per-chain sample quotas summing exactly to ``config.n_samples``.

        A plain ``ceil(n_samples / n_chains)`` per chain overshoots the
        configured pooled total (100 over 3 chains would pool 102) and with
        it every work statistic derived from the pool; instead the remainder
        of the even split is distributed one sample each to the first
        ``n_samples mod n_chains`` chains.
        """
        base, remainder = divmod(self.config.n_samples, self.n_chains)
        return [base + (1 if i < remainder else 0) for i in range(self.n_chains)]

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run all chains and pool their post-burn-in samples.

        Pools exactly ``config.n_samples`` samples.  When ``n_chains``
        exceeds ``n_samples`` the surplus chains have nothing to contribute
        and are not run (no phantom burn-in work is counted).  Chains run on
        ``n_workers`` processes when configured; pooling always happens in
        chain-index order, so the result is identical either way.
        """
        if self.mode == "stacked":
            # Imported lazily: repro.parallel.stacked imports helpers from
            # this module, so a top-level import here would be circular.
            from ..parallel.stacked import StackedMultiChain

            return StackedMultiChain(
                engine_factory=self.engine_factory,
                theta=self.theta,
                n_chains=self.n_chains,
                config=self.config,
            ).run(initial_tree, rng)
        quotas = self.chain_quotas()

        # Independent per-chain streams named ("chain", i) under one master
        # seed: chain i's stream is a pure function of (master, i), so the
        # pooled result is bit-identical for any worker count and any chain
        # execution order — unlike the old rng.spawn tree, which handed out
        # streams in request order and tied reproducibility to topology.
        master = derive_master_seed(rng)
        child_rngs = [named_stream(master, "chain", i) for i in range(self.n_chains)]
        active = [(i, quota) for i, quota in enumerate(quotas) if quota > 0]
        parallel_start = time.perf_counter()
        results = self._execute(active, initial_tree, child_rngs)
        parallel_wall = time.perf_counter() - parallel_start

        pooled = ChainTrace(n_intervals=initial_tree.n_tips - 1)
        total_steps = 0
        total_accepted = 0
        total_evals = 0
        total_time = 0.0
        per_chain_steps: list[int] = []
        boundaries: list[tuple[int, int]] = []

        for chain_index in range(self.n_chains):
            result = results.get(chain_index)
            if result is None:
                # Keep the per-chain extras index-aligned with the quotas.
                per_chain_steps.append(0)
                boundaries.append((len(pooled), len(pooled)))
                continue
            per_chain_steps.append(result.n_proposal_sets)

            start = len(pooled)
            mat = result.interval_matrix
            for row, loglik, height in zip(
                mat, result.trace.log_likelihoods, result.trace.heights
            ):
                pooled.record(row, loglik, height)
            boundaries.append((start, len(pooled)))
            total_steps += result.n_proposal_sets
            total_accepted += result.n_accepted
            total_evals += result.n_likelihood_evaluations
            total_time += result.wall_time_seconds

        n_proc = self.n_chains
        ideal_parallel = multichain_parallel_time(
            burn_in=self.config.burn_in,
            total_samples=self.config.n_samples,
            n_processors=n_proc,
        )
        return ChainResult(
            trace=pooled,
            driving_theta=self.theta,
            n_proposal_sets=total_steps,
            n_accepted=total_accepted,
            n_decisions=total_steps,
            n_likelihood_evaluations=total_evals,
            wall_time_seconds=total_time,
            extras={
                "n_chains": self.n_chains,
                "n_workers": self.n_workers,
                "per_chain_steps": per_chain_steps,
                "per_chain_samples": quotas,
                # Half-open [start, end) row ranges of each chain's samples in
                # the pooled trace, so convergence diagnostics can tell the
                # chains apart after pooling.
                "chain_boundaries": boundaries,
                "ideal_parallel_steps": ideal_parallel,
                "serial_steps_equivalent": self.config.burn_in + self.config.n_samples,
                # Measured wall time of the (possibly process-parallel) chain
                # phase; wall_time_seconds stays the summed per-chain work so
                # the serial-equivalent accounting is unchanged.
                "parallel_wall_seconds": parallel_wall,
            },
        )

    def _execute(
        self,
        active: list[tuple[int, int]],
        initial_tree: Genealogy,
        child_rngs: list[np.random.Generator],
    ) -> dict[int, ChainResult]:
        """Run the non-empty chains, in-process or on worker processes."""
        from ..service.faults import current_injector, fault_scope

        jobs = [
            (index, self.config.scaled(n_samples=quota), child_rngs[index])
            for index, quota in active
        ]
        # Thread any active fault injector down to the chains.  Each chain
        # gets the derived scope (*parent, "chain", i) — in-process via a
        # per-chain fault_scope, on pool workers by shipping the plan and
        # parent scope so the worker rebuilds the identical streams.  Fault
        # draws are therefore topology-independent, like every other draw.
        injector = current_injector()
        if self.n_workers <= 1 or len(jobs) <= 1:
            results: dict[int, ChainResult] = {}
            for index, cfg, chain_rng in jobs:
                with fault_scope(
                    injector.derive("chain", index) if injector is not None else None
                ):
                    results[index] = _run_single_chain(
                        self.engine_factory, self.theta, cfg, initial_tree, chain_rng
                    )
            return results
        # Probe picklability up front (only the factory is caller-supplied;
        # everything else we ship is known-picklable), so a genuine worker
        # exception later propagates unmodified instead of being mistaken
        # for a marshalling failure.
        try:
            pickle.dumps(self.engine_factory)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            raise ValueError(
                "n_workers > 1 requires a picklable engine_factory (a "
                "module-level function or class instance, not a lambda or "
                "closure); run with n_workers=1 or pass a picklable factory"
            ) from exc
        max_workers = min(self.n_workers, len(jobs))
        pool = _acquire_pool(max_workers)
        fault_context = (
            (injector.plan.to_dict(), list(injector.scope)) if injector is not None else None
        )
        try:
            futures = [
                (
                    index,
                    pool.submit(
                        _run_single_chain,
                        self.engine_factory,
                        self.theta,
                        cfg,
                        initial_tree,
                        chain_rng,
                        fault_context,
                        index,
                    ),
                )
                for index, cfg, chain_rng in jobs
            ]
            return {index: future.result() for index, future in futures}
        except BrokenProcessPool as exc:
            # A killed worker otherwise surfaces as the pool's own plumbing
            # error; map it to the typed job-level failure the scheduler's
            # retry path catches — and drop the broken pool from the shared
            # cache so that retry (and every later run) really does start
            # on a fresh pool.  The cached pool may have broken between
            # runs, in which case ``submit`` itself raises.
            _discard_pool(max_workers)
            raise WorkerCrashError(
                f"a multichain worker process died while running "
                f"{len(jobs)} chains on {self.n_workers} workers "
                "(killed by a signal or the OOM killer); the run can be "
                "retried on a fresh pool"
            ) from exc
