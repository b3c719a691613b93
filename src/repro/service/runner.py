"""Queue-backed experiment scheduler over a persistent worker fleet.

:class:`ExperimentService` generalizes the multichain baseline's
per-call ``ProcessPoolExecutor`` into a durable job runner: specs are
*submitted* into a filesystem spool, *claimed* by a serve loop, executed on
a pool of persistent worker processes, and *committed* into the
content-addressed :class:`~repro.service.store.ResultStore` — after which
any identical submission is a cache hit that never touches a sampler.

Spool layout (all state is plain files, so every transition survives a
crash of the service itself)::

    spool/
      jobs/<job-id>/
        job.json         # JobRecord: state machine + bookkeeping
        spec.json        # the submitted RunSpec, verbatim
        events.jsonl     # streaming event log (lifecycle + run events)
        checkpoint.pkl   # resumable EM checkpoint (while running)
      queue/<job-id>     # empty marker; claiming = atomic rename into active/
      active/<job-id>    # lease file of a claimed job: owner + heartbeat
      corrupt/<job-id>/  # quarantined spool entries (unreadable job.json)
      store/<hash>/      # the content-addressed result store

Job states are ``queued → running → done | failed``.

Failure classes and how each is handled:

*Transient* — a worker process dying mid-job
(:class:`~repro.baselines.multichain.WorkerCrashError`, or the service's own
pool breaking with ``BrokenProcessPool``): retried up to ``max_retries``
times with exponential backoff and deterministic jitter, resuming from the
dead worker's last EM checkpoint (so the retried trajectory is
bit-identical to an uninterrupted run).

*Hung* — a worker that stops making progress: only visible when
``serve(job_timeout=...)`` is set; the watchdog kills the whole pool (the
only way to stop a wedged process), resubmits innocent in-flight jobs
without consuming one of their attempts, and retries the hung job like a
crash.

*Numerical* — an engine producing NaN/-inf
(:class:`~repro.likelihood.engines.NumericalFaultError`): the worker
degrades one step down the engine ladder
(:data:`~repro.likelihood.engines.DEGRADATION_LADDER`, fused → batched →
vectorized; ``batched`` computes the same likelihoods as ``fused`` up to
the last bits, so a run degraded there commits the same report unless such
a difference flips an accept decision) and reruns; if the bottom of the ladder
still faults, the job fails with the typed error (retrying cannot help —
the draw sequence is deterministic).

*Deterministic* — any other exception raised by experiment code: fails the
job immediately.

*Abandoned* — a service that died while holding claims: ``active/`` markers
are lease files carrying the owner id and a heartbeat the serve loop
refreshes; :meth:`ExperimentService.recover` (run automatically at serve
start) requeues every job whose lease expired, and the resumed run commits
a report bit-identical to what the dead service would have produced.

*Corrupt* — a spool entry whose ``job.json`` is missing or unreadable:
quarantined under ``spool/corrupt/`` with a ``job.quarantined`` event; the
serve loop keeps going.

Duplicate submissions whose spec hash is already *executing* are held back
as followers and resolved from the store the moment the computing job
commits, so a burst of identical specs costs exactly one computation.

Deterministic chaos: construct the service with ``fault_plan=...`` (or set
the ``MPCGS_FAULT_PLAN`` environment variable) and every worker draws
crash/hang/torn-write/NaN faults from seeded named RNG streams
(:mod:`repro.service.faults`) — the same submission script against the same
plan replays the same faults, which is what lets CI assert the recovery
machinery instead of hoping for it.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Mapping

from ..api import Experiment, RunSpec
from ..backend.rng_registry import named_stream
from ..baselines.multichain import WorkerCrashError
from ..core.config import MULTICHAIN_MODES
from ..likelihood.engines import DEGRADATION_LADDER, NumericalFaultError
from .checkpoint import CheckpointMismatchError, load_checkpoint
from .events import (
    EM_ITERATION_COMPLETED,
    FAULT_INJECTED,
    JOB_CACHE_HIT,
    JOB_DEGRADED,
    JOB_QUARANTINED,
    JOB_RECOVERED,
    JOB_RETRYING,
    JOB_STATE_CHANGED,
    JOB_SUBMITTED,
    JOB_TIMEOUT,
    RUN_COMPLETED,
    RUN_STARTED,
    Event,
    EventBus,
    JSONLRecorder,
    tail_events,
)
from .faults import FaultPlan, current_injector, fault_scope, stable_job_key
from .store import ResultStore

__all__ = ["ExperimentService", "JobRecord", "JobTimeoutError", "WorkerCrashError"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

JOB_FILENAME = "job.json"
SPEC_FILENAME = "spec.json"
EVENTS_FILENAME = "events.jsonl"
CHECKPOINT_FILENAME = "checkpoint.pkl"


class JobTimeoutError(RuntimeError):
    """A job exceeded ``serve(job_timeout=...)`` and its worker was killed.

    Raised *about* a job, never inside one: the serve loop's watchdog
    records it as the retry (or failure) cause of a hung job.  Treated as
    transient — a hang, like a crash, says nothing about the job's code.
    """


@dataclass
class JobRecord:
    """One submitted experiment's durable state-machine record."""

    job_id: str
    spec_hash: str
    state: str = QUEUED
    attempts: int = 0
    max_attempts: int = 3
    error: str | None = None
    cache_hit: bool = False
    created_at: float = field(default_factory=time.time)
    updated_at: float = field(default_factory=time.time)

    def to_dict(self) -> dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec_hash": self.spec_hash,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        """Build a record, ignoring unknown keys.

        Records written by a newer service (with extra bookkeeping fields)
        must stay readable by an older one — the spool is shared state, not
        a private format.
        """
        known = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, path: str | Path) -> None:
        """Durably write the record (atomic replace, like every spool write)."""
        path = Path(path)
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
        injector = current_injector()
        if injector is not None and injector.fire("torn_write", notify=False, file=path.name):
            # A crash between writing the temp file and the atomic replace:
            # the half-written temp is left behind, the real record intact —
            # which is exactly the guarantee atomic replace buys.
            tmp.write_text(payload[: max(1, len(payload) // 2)])
            raise injector.crash_error(
                f"injected torn write to {path.name} (process died before replace)"
            )
        tmp.write_text(payload)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str | Path) -> "JobRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))


class _FaultPulse:
    """Event relay giving the injector one crash/hang opportunity per EM iteration.

    Wraps the job's recorder so injected crashes land at iteration
    boundaries — the same places a real SIGKILL is survivable-by-checkpoint
    — rather than at arbitrary bytecodes.
    """

    def __init__(self, recorder, injector) -> None:
        self.recorder = recorder
        self.injector = injector

    def __call__(self, event: Event) -> None:
        self.recorder(event)
        if event.kind == EM_ITERATION_COMPLETED:
            self.injector.pulse()


def _run_attempt(
    job_dir: Path,
    spec: RunSpec,
    recorder: JSONLRecorder,
    checkpoint_every: int,
    injector,
) -> dict[str, Any]:
    """One engine-ladder step of one attempt: resume, run, record, return the report."""
    experiment = Experiment.from_spec(spec)
    on_event = _FaultPulse(recorder, injector) if injector is not None else recorder

    checkpoint_path = job_dir / CHECKPOINT_FILENAME
    run_kwargs: dict[str, Any] = {"on_event": on_event}
    resumed_from = 0
    discarded: str | None = None
    if experiment.supports_checkpointing:
        run_kwargs["checkpoint_path"] = checkpoint_path
        run_kwargs["checkpoint_every"] = checkpoint_every
        if checkpoint_path.exists():
            try:
                checkpoint = load_checkpoint(checkpoint_path)
            except ValueError as exc:
                # Corrupt or version-incompatible: a fresh run is the resume
                # contract's baseline, so discard and start from iteration 0.
                discarded = f"{type(exc).__name__}: {exc}"
                checkpoint_path.unlink(missing_ok=True)
            else:
                resumed_from = checkpoint.completed_iterations
                run_kwargs["resume_from"] = checkpoint

    with fault_scope(injector):
        start_payload: dict[str, Any] = {"resumed_from_iteration": resumed_from}
        if discarded is not None:
            start_payload["checkpoint_discarded"] = discarded
        recorder(Event(kind=RUN_STARTED, payload=start_payload))
        if injector is not None:
            injector.pulse()  # a crash/hang opportunity before the first iteration
        try:
            report = experiment.run(**run_kwargs)
        except CheckpointMismatchError as exc:
            # The checkpoint belongs to a different run identity (engine
            # ladder left one behind, or the spec was edited on disk):
            # discard it and run fresh rather than fail the job.
            checkpoint_path.unlink(missing_ok=True)
            run_kwargs.pop("resume_from", None)
            recorder(
                Event(
                    kind=RUN_STARTED,
                    payload={
                        "resumed_from_iteration": 0,
                        "checkpoint_discarded": f"{type(exc).__name__}: {exc}",
                    },
                )
            )
            report = experiment.run(**run_kwargs)
        recorder(
            Event(
                kind=RUN_COMPLETED,
                payload={"theta": report.theta, "n_samples": report.n_samples},
            )
        )
    return report.to_dict()


def _execute_job(
    spool: str,
    job_id: str,
    checkpoint_every: int,
    multichain_mode: str | None = None,
    fault_plan: Mapping[str, Any] | None = None,
    attempt: int = 1,
) -> dict[str, Any]:
    """Run one spooled job to completion; module-level so pool workers can import it.

    Streams run events into the job's ``events.jsonl``, cuts an EM
    checkpoint every ``checkpoint_every`` iterations, and — when a previous
    attempt left a checkpoint behind — resumes from it, which is what makes
    a retried job's trajectory bit-identical to an uninterrupted run.
    Returns the completed :class:`~repro.api.RunReport` as a dict.

    ``multichain_mode`` optionally overrides the execution mode of
    *multichain* jobs (other samplers are untouched).  The service's workers
    are already OS processes, so a multichain job spawning its own nested
    worker pool inside one is pure overhead; forcing ``"stacked"`` keeps
    each job single-process while batching its chains' evaluations.  The
    override is execution-shape only — stacked traces are bit-identical to
    process-mode traces — so the job's spec hash (and with it the result
    store's dedup) deliberately keys on the *submitted* spec.

    ``fault_plan`` (a :meth:`FaultPlan.to_dict` document) activates
    deterministic chaos: faults are drawn from streams scoped by
    ``(stable_job_key(job_id), attempt)``, so every attempt redraws its own
    faults and a re-run batch replays them exactly.

    On a :class:`~repro.likelihood.engines.NumericalFaultError` the job
    degrades one step down the engine ladder and reruns from scratch (the
    checkpoint is engine-keyed and discarded); off the bottom of the ladder
    the typed error propagates and fails the job.
    """
    # Worker-dispatch determinism: every random draw a job makes is derived
    # from its spec's seed through the named-stream registry
    # (:mod:`repro.backend.rng_registry`) — chains are ("chain", i) streams,
    # loci ("locus", j, "iteration", k) streams — never from worker identity,
    # claim order, or fleet size.  A job therefore produces bit-identical
    # results whether it runs inline, on a 1-worker pool, or interleaved
    # with others on a 4-worker pool, which is what lets a retried or
    # resumed attempt commit the same report the first attempt would have.
    job_dir = Path(spool) / "jobs" / job_id
    spec = RunSpec.load(job_dir / SPEC_FILENAME)
    if multichain_mode is not None and spec.config.sampler_name == "multichain":
        spec = replace(
            spec,
            config=replace(
                spec.config,
                sampler_options={
                    **spec.config.sampler_options,
                    "mode": multichain_mode,
                },
            ),
        )
    recorder = JSONLRecorder(job_dir / EVENTS_FILENAME, job_id=job_id)

    plan = FaultPlan.coerce(fault_plan)
    injector = None
    if plan is not None and plan.enabled:
        injector = plan.injector(
            stable_job_key(job_id),
            attempt,
            on_fault=lambda trigger: recorder(
                Event(kind=FAULT_INJECTED, payload=trigger)
            ),
        )

    checkpoint_path = job_dir / CHECKPOINT_FILENAME
    engine_name = spec.config.likelihood_engine.lower()
    while True:
        step_injector = (
            injector.derive("engine", engine_name) if injector is not None else None
        )
        try:
            return _run_attempt(job_dir, spec, recorder, checkpoint_every, step_injector)
        except NumericalFaultError as exc:
            fallback = DEGRADATION_LADDER.get(engine_name)
            if fallback is None:
                raise
            recorder(
                Event(
                    kind=JOB_DEGRADED,
                    payload={
                        "from_engine": engine_name,
                        "to_engine": fallback,
                        "error": str(exc),
                    },
                )
            )
            # The checkpoint's run_key covers the engine choice; a degraded
            # rerun starts from iteration 0 on the fallback engine.
            checkpoint_path.unlink(missing_ok=True)
            spec = replace(spec, config=replace(spec.config, likelihood_engine=fallback))
            engine_name = fallback


class ExperimentService:
    """The queue-backed job runner behind ``mpcgs serve|submit|status``.

    Parameters
    ----------
    spool:
        Root directory of the job spool (created if absent).
    n_workers:
        Size of the persistent worker fleet.  ``1`` (the default) executes
        jobs in-process — the same semantics, no pool, the fast path for
        tests and small batches — mirroring the multichain baseline's
        ``n_workers`` contract.  (``serve(job_timeout=...)`` forces a pool
        even at 1 worker: an in-process job cannot be preempted.)
    max_retries:
        How many times a job whose *worker died* (crash, hang, injected
        chaos — not whose code raised) is retried before being marked
        failed.
    checkpoint_every:
        EM-checkpoint cadence passed to every job (iterations).
    multichain_mode:
        Optional execution-mode override for multichain jobs (a name from
        :data:`~repro.core.config.MULTICHAIN_MODES`).  ``"stacked"`` is the
        natural fleet setting: each service worker is already an OS
        process, so running the job's chains lock-step through one batched
        engine avoids nesting a worker pool inside a worker while leaving
        the pooled trace bit-identical.  ``None`` (default) runs every job
        exactly as submitted.
    lease_ttl:
        How long (seconds) an ``active/`` lease stays valid without a
        heartbeat.  The serve loop refreshes its claims' leases at
        ``lease_ttl / 4``; :meth:`recover` requeues any job whose lease is
        older than the TTL.
    retry_backoff / retry_backoff_cap:
        Base and ceiling (seconds) of the exponential retry backoff.  The
        delay before attempt *n*'s retry is
        ``min(retry_backoff · 2^(n-1) · (1 + u), retry_backoff_cap)`` with
        ``u`` a deterministic per-(job, attempt) jitter draw — reproducible,
        monotone per job, and de-synchronized across jobs.  ``0`` disables
        the delay.
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan` (instance, dict,
        inline JSON, or a path) injecting deterministic faults into every
        worker.  Defaults to the plan named by the ``MPCGS_FAULT_PLAN``
        environment variable; inert when unset.
    on_event:
        Optional subscriber attached to the service's :class:`EventBus`
        (every job's lifecycle and run events flow through it).
    """

    def __init__(
        self,
        spool: str | Path,
        *,
        n_workers: int = 1,
        max_retries: int = 2,
        checkpoint_every: int = 1,
        multichain_mode: str | None = None,
        lease_ttl: float = 60.0,
        retry_backoff: float = 0.5,
        retry_backoff_cap: float = 30.0,
        fault_plan: FaultPlan | Mapping[str, Any] | str | Path | None = None,
        on_event=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if multichain_mode is not None and multichain_mode not in MULTICHAIN_MODES:
            raise ValueError(
                f"unknown multichain mode {multichain_mode!r}; "
                f"choose from {MULTICHAIN_MODES}"
            )
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        if retry_backoff_cap < retry_backoff:
            raise ValueError("retry_backoff_cap must be at least retry_backoff")
        self.spool = Path(spool)
        self.n_workers = n_workers
        self.max_retries = max_retries
        self.checkpoint_every = checkpoint_every
        self.multichain_mode = multichain_mode
        self.lease_ttl = lease_ttl
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap
        plan = FaultPlan.coerce(fault_plan) if fault_plan is not None else FaultPlan.from_env()
        self.fault_plan = plan if (plan is not None and plan.enabled) else None
        #: Lease owner identity: host, pid, and a per-instance nonce.
        self.owner_id = f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
        for sub in ("jobs", "queue", "active"):
            (self.spool / sub).mkdir(parents=True, exist_ok=True)
        self.store = ResultStore(self.spool / "store")
        self.bus = EventBus()
        if on_event is not None:
            self.bus.subscribe(on_event)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = 0
        self._job_seq: int | None = None

    # -- paths --------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.spool / "jobs" / job_id

    def _job_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / JOB_FILENAME

    def events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / EVENTS_FILENAME

    def _lease_path(self, job_id: str) -> Path:
        return self.spool / "active" / job_id

    # -- events -------------------------------------------------------------

    def _emit(self, record: JobRecord, kind: str, **payload: Any) -> None:
        """Publish one job event on the bus and append it to the job's log."""
        event = Event(kind=kind, payload=payload, job_id=record.job_id)
        self.bus.publish(event)
        JSONLRecorder(self.events_path(record.job_id))(event)

    def _set_state(self, record: JobRecord, state: str, **payload: Any) -> None:
        record.state = state
        record.updated_at = time.time()
        record.save(self._job_path(record.job_id))
        self._emit(record, JOB_STATE_CHANGED, state=state, attempt=record.attempts, **payload)

    # -- submission ---------------------------------------------------------

    def _scan_highest_seq(self) -> int:
        """The highest job-id sequence number currently in the spool."""
        highest = 0
        for child in (self.spool / "jobs").iterdir():
            parts = child.name.split("-")
            if len(parts) >= 2 and parts[0] == "job" and parts[1].isdigit():
                highest = max(highest, int(parts[1]))
        return highest

    def _new_job_id(self) -> str:
        """Sortable, collision-safe id: zero-padded sequence + random suffix.

        The zero-padded prefix makes lexicographic queue order FIFO; the
        suffix keeps concurrently-allocated ids distinct.  The spool is
        scanned once per service instance — subsequent submissions bump an
        in-process counter instead of re-listing ``jobs/`` every time.
        """
        if self._job_seq is None:
            self._job_seq = self._scan_highest_seq()
        self._job_seq += 1
        return f"job-{self._job_seq:06d}-{uuid.uuid4().hex[:6]}"

    def submit(self, spec: RunSpec | Mapping[str, Any] | str | Path) -> JobRecord:
        """Spool one experiment; returns its :class:`JobRecord`.

        A spec whose content hash is already committed in the store is
        resolved *immediately*: the returned record is ``done`` with
        ``cache_hit=True`` and no computation is queued.  Everything else
        enters the queue for :meth:`serve` to claim.
        """
        if isinstance(spec, (str, Path)):
            spec = RunSpec.load(spec)
        elif isinstance(spec, Mapping):
            spec = RunSpec.from_dict(spec)
        spec_hash = spec.content_hash()
        job_id = self._new_job_id()
        job_dir = self.job_dir(job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        spec.save(job_dir / SPEC_FILENAME)
        record = JobRecord(
            job_id=job_id, spec_hash=spec_hash, max_attempts=self.max_retries + 1
        )
        record.save(self._job_path(job_id))
        self._emit(record, JOB_SUBMITTED, spec_hash=spec_hash, state=record.state)
        if self.store.contains(spec_hash):
            record.cache_hit = True
            self._emit(record, JOB_CACHE_HIT, spec_hash=spec_hash)
            self._set_state(record, DONE)
            return record
        (self.spool / "queue" / job_id).touch()
        return record

    # -- inspection ---------------------------------------------------------

    def status(self, job_id: str) -> JobRecord:
        """The current record of ``job_id`` (raises ``FileNotFoundError`` if unknown)."""
        return JobRecord.load(self._job_path(job_id))

    def jobs(self) -> list[JobRecord]:
        """All *readable* job records, in id (= submission) order.

        Entries with a missing or unparseable ``job.json`` are skipped here
        (inspection must never mutate the spool); they are quarantined when
        the serve loop trips over them at claim time.
        """
        jobs_dir = self.spool / "jobs"
        records = []
        for child in sorted(jobs_dir.iterdir()):
            path = child / JOB_FILENAME
            if not path.exists():
                continue
            try:
                records.append(JobRecord.load(path))
            except (OSError, ValueError, TypeError):
                continue
        return records

    def job_events(self, job_id: str, n: int = -1) -> list[Event]:
        """The last ``n`` events of a job's log (all of them when ``n < 0``)."""
        return tail_events(self.events_path(job_id), n)

    def report_for(self, job_id: str) -> dict[str, Any] | None:
        """The stored report of a ``done`` job (cache hits included), else ``None``."""
        record = self.status(job_id)
        if record.state != DONE:
            return None
        return self.store.get_report(record.spec_hash)

    # -- leases -------------------------------------------------------------

    @staticmethod
    def _read_lease(path: str | Path) -> dict[str, Any] | None:
        """Parse a lease file; ``None`` for unreadable/torn/legacy-empty markers.

        An unreadable lease is *treated as expired* — the torn write failure
        mode degrades to a recoverable claim, never a stuck one — so leases
        are written directly, without the atomic-replace dance.
        """
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _write_lease(self, job_id: str) -> None:
        """Write (or heartbeat-refresh) this service's lease on ``job_id``."""
        path = self._lease_path(job_id)
        now = time.time()
        claimed_at = now
        existing = self._read_lease(path)
        if existing is not None and existing.get("owner") == self.owner_id:
            claimed_at = existing.get("claimed_at", now)
        path.write_text(
            json.dumps(
                {"owner": self.owner_id, "claimed_at": claimed_at, "heartbeat": now},
                sort_keys=True,
            )
        )

    def recover(self, *, stats: dict | None = None) -> list[JobRecord]:
        """Requeue every claimed job whose lease expired; returns those records.

        Run automatically at :meth:`serve` start.  A lease is expired when
        its heartbeat is older than ``lease_ttl`` (or the lease file is
        unreadable — including the legacy empty markers older services
        wrote).  Fresh leases are skipped regardless of owner: a job a live
        sibling service is working on is not stolen.  Requeued jobs resume
        from their EM checkpoint, so a killed-and-restarted service commits
        reports bit-identical to an uninterrupted one.
        """
        recovered: list[JobRecord] = []
        now = time.time()
        for marker in sorted((self.spool / "active").iterdir()):
            lease = self._read_lease(marker)
            age: float | None = None
            if lease is not None:
                try:
                    age = now - float(lease.get("heartbeat", 0.0))
                except (TypeError, ValueError):
                    age = None
                if age is not None and age < self.lease_ttl:
                    continue  # a live owner is still heartbeating this job
            job_id = marker.name
            try:
                record = self.status(job_id)
            except (OSError, ValueError, TypeError) as exc:
                self._quarantine(job_id, f"unreadable job record during recovery: {exc}", stats)
                continue
            if record.state in (DONE, FAILED):
                marker.unlink(missing_ok=True)  # stale marker of a settled job
                continue
            self._emit(
                record,
                JOB_RECOVERED,
                owner=lease.get("owner") if lease is not None else None,
                lease_age_seconds=round(age, 3) if age is not None else None,
            )
            self._requeue(record)
            recovered.append(record)
        if stats is not None:
            stats["recovered"] += len(recovered)
        return recovered

    # -- the serve loop -----------------------------------------------------

    def _quarantine(self, job_id: str, reason: str, stats: dict | None = None) -> None:
        """Move a corrupt spool entry aside so the serve loop can keep going."""
        corrupt_dir = self.spool / "corrupt"
        corrupt_dir.mkdir(parents=True, exist_ok=True)
        for sub in ("queue", "active"):
            try:
                os.unlink(self.spool / sub / job_id)
            except FileNotFoundError:
                pass
        job_dir = self.job_dir(job_id)
        if job_dir.exists():
            target = corrupt_dir / job_id
            if target.exists():
                target = corrupt_dir / f"{job_id}-{uuid.uuid4().hex[:6]}"
            os.replace(job_dir, target)
        # Straight to the bus: the job's own event log just moved with it.
        self.bus.publish(
            Event(kind=JOB_QUARANTINED, payload={"reason": reason}, job_id=job_id)
        )
        if stats is not None:
            stats["quarantined"] += 1

    def _claim_next(self, stats: dict | None = None) -> JobRecord | None:
        """Atomically claim the oldest queued job (rename into ``active/``).

        A claimed entry whose ``job.json`` is missing or unreadable is
        quarantined — one corrupt submission must not wedge the service —
        and the scan moves on to the next marker.
        """
        queue_dir = self.spool / "queue"
        for marker in sorted(queue_dir.iterdir()):
            try:
                os.replace(marker, self.spool / "active" / marker.name)
            except FileNotFoundError:
                continue  # another server claimed it first
            try:
                record = self.status(marker.name)
            except (OSError, ValueError, TypeError) as exc:
                self._quarantine(marker.name, f"unreadable job record at claim: {exc}", stats)
                continue
            self._write_lease(record.job_id)
            return record
        return None

    def _release(self, record: JobRecord) -> None:
        """Drop a job's ``active/`` lease once it reaches a terminal state."""
        try:
            os.unlink(self._lease_path(record.job_id))
        except FileNotFoundError:
            pass

    def _requeue(self, record: JobRecord) -> None:
        """Push a claimed-but-unfinished job back onto the queue (shutdown path)."""
        self._set_state(record, QUEUED)
        queue_marker = self.spool / "queue" / record.job_id
        try:
            os.replace(self._lease_path(record.job_id), queue_marker)
        except FileNotFoundError:
            queue_marker.touch()
        else:
            # The rename carried the lease JSON along; queue markers are
            # content-free, so truncate it back to one.
            queue_marker.write_text("")

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        return self._pool

    def _recreate_pool(self, generation: int) -> None:
        """Replace a broken pool — but only once per breakage.

        Several in-flight futures fail together when one worker dies; the
        ``generation`` stamp ensures only the first handled failure rebuilds
        the pool, so jobs already resubmitted onto the fresh pool are not
        cancelled by a second rebuild.
        """
        if generation != self._pool_generation:
            return
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ProcessPoolExecutor(max_workers=self.n_workers)
        self._pool_generation += 1

    def _kill_pool(self) -> None:
        """Forcibly tear the pool down (the watchdog's hammer for hung workers).

        ``shutdown`` alone never returns while a worker is wedged in an
        uninterruptible sleep, so the worker processes are terminated
        directly.  The next submission builds a fresh pool.
        """
        pool = self._pool
        self._pool = None
        self._pool_generation += 1
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values())
        for proc in procs:
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            proc.join(5.0)

    def _retry_delay(self, record: JobRecord) -> float:
        """Exponential backoff with deterministic jitter for ``record``'s next retry.

        ``min(retry_backoff · 2^(attempts-1) · (1 + u), cap)`` with ``u``
        drawn from the named stream ``("backoff", <job key>, <attempt>)`` —
        strictly increasing per job below the cap (the jitter factor is at
        most 2, the base doubles), identical across re-runs, and different
        across jobs so a mass failure does not retry in lockstep.
        """
        if self.retry_backoff <= 0.0:
            return 0.0
        u = float(
            named_stream(0, "backoff", stable_job_key(record.job_id), record.attempts).random()
        )
        delay = self.retry_backoff * (2.0 ** (record.attempts - 1)) * (1.0 + u)
        return min(delay, self.retry_backoff_cap)

    def _commit(self, record: JobRecord, report: Mapping[str, Any], stats: dict) -> None:
        """A computed job succeeded: commit its result into the store."""
        job_dir = self.job_dir(record.job_id)
        spec_doc = json.loads((job_dir / SPEC_FILENAME).read_text())
        self.store.put(
            record.spec_hash,
            spec=spec_doc,
            report=report,
            events_file=job_dir / EVENTS_FILENAME,
        )
        checkpoint = job_dir / CHECKPOINT_FILENAME
        if checkpoint.exists():
            checkpoint.unlink()  # the committed report supersedes it
        self._set_state(record, DONE)
        self._release(record)
        stats["executed"] += 1
        stats["completed"] += 1

    def _fail(self, record: JobRecord, error: BaseException, stats: dict) -> None:
        record.error = f"{type(error).__name__}: {error}"
        self._set_state(record, FAILED, error=record.error)
        self._release(record)
        stats["failed"] += 1

    def _finish_cache_hit(self, record: JobRecord, stats: dict) -> None:
        record.cache_hit = True
        self._emit(record, JOB_CACHE_HIT, spec_hash=record.spec_hash)
        self._set_state(record, DONE)
        self._release(record)
        stats["cache_hits"] += 1
        stats["completed"] += 1

    def _resolve_followers(
        self,
        spec_hash: str,
        followers: dict[str, list[JobRecord]],
        stats: dict,
        *,
        error: BaseException | None = None,
    ) -> None:
        """Settle duplicate jobs that waited on an in-flight computation.

        On success every follower becomes a store cache hit; on a
        *deterministic* failure they inherit it (recomputing the same spec
        would raise the same exception).
        """
        for follower in followers.pop(spec_hash, []):
            if error is None:
                self._finish_cache_hit(follower, stats)
            else:
                self._fail(follower, error, stats)

    def _job_args(self, record: JobRecord) -> tuple:
        """Extra ``_execute_job`` args beyond the historical three.

        Appended only when configured so a default service invokes the job
        entry point with its historical three-argument shape (which test
        doubles and any external wrappers may rely on).  With a fault plan,
        the mode slot is filled (possibly with ``None``) so the plan and
        attempt land in the right positions.
        """
        if self.fault_plan is not None:
            return (self.multichain_mode, self.fault_plan.to_dict(), record.attempts)
        if self.multichain_mode is not None:
            return (self.multichain_mode,)
        return ()

    def _start_attempt(self, record: JobRecord) -> None:
        record.attempts += 1
        self._set_state(record, RUNNING)

    def _run_inline(
        self,
        record: JobRecord,
        stats: dict,
        followers: dict[str, list[JobRecord]],
    ) -> None:
        """Execute a job in-process (``n_workers == 1``), with the same retry rules."""
        while True:
            try:
                report = _execute_job(
                    str(self.spool), record.job_id, self.checkpoint_every, *self._job_args(record)
                )
            except (WorkerCrashError, BrokenProcessPool) as exc:
                if record.attempts >= record.max_attempts:
                    self._fail(record, exc, stats)
                    self._resolve_followers(record.spec_hash, followers, stats, error=exc)
                    return
                stats["retries"] += 1
                delay = self._retry_delay(record)
                self._emit(
                    record,
                    JOB_RETRYING,
                    attempt=record.attempts,
                    error=str(exc),
                    delay_seconds=delay,
                )
                if delay > 0:
                    time.sleep(delay)
                self._write_lease(record.job_id)
                self._start_attempt(record)
            except Exception as exc:
                self._fail(record, exc, stats)
                self._resolve_followers(record.spec_hash, followers, stats, error=exc)
                return
            else:
                self._commit(record, report, stats)
                self._resolve_followers(record.spec_hash, followers, stats)
                return

    def serve(
        self,
        *,
        max_jobs: int | None = None,
        idle_timeout: float = 0.0,
        poll_interval: float = 0.1,
        job_timeout: float | None = None,
        recover: bool = True,
    ) -> dict[str, int]:
        """Claim and execute queued jobs until the queue drains.

        ``idle_timeout`` is how long to keep polling an empty queue before
        returning (``0.0``, the default, returns as soon as everything
        claimed is settled — the batch mode the tests and CI use);
        ``max_jobs`` caps how many jobs this call will claim.

        ``job_timeout`` arms the hung-job watchdog: a job running longer
        than this many seconds has its worker pool killed and is retried
        from its checkpoint (consuming one attempt); other in-flight jobs
        are resubmitted without penalty.  Setting it forces pool execution
        even at ``n_workers=1``, since an in-process job cannot be
        preempted.

        ``recover`` (default on) first requeues any job whose ``active/``
        lease expired — the crash-recovery path for a service that died
        mid-batch.

        Returns the tally ``{completed, failed, cache_hits, executed,
        retries, timeouts, recovered, quarantined}``.  KeyboardInterrupt
        shuts down gracefully: in-flight and backoff-waiting jobs are
        requeued, not lost.
        """
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive when set")
        stats = {
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "executed": 0,
            "retries": 0,
            "timeouts": 0,
            "recovered": 0,
            "quarantined": 0,
        }
        if recover:
            self.recover(stats=stats)
        futures: dict[Future, tuple[JobRecord, int, float | None]] = {}
        executing: dict[str, str] = {}  # spec_hash -> computing job_id
        followers: dict[str, list[JobRecord]] = {}
        pending_retries: list[tuple[float, JobRecord]] = []  # (ready_at, record)
        inline_inflight: JobRecord | None = None
        claimed = 0
        idle_since: float | None = None
        use_pool = self.n_workers > 1 or job_timeout is not None
        heartbeat_interval = max(self.lease_ttl / 4.0, 0.05)
        next_heartbeat = time.monotonic() + heartbeat_interval

        def submit_to_pool(record: JobRecord) -> None:
            pool = self._ensure_pool()
            future = pool.submit(
                _execute_job,
                str(self.spool),
                record.job_id,
                self.checkpoint_every,
                *self._job_args(record),
            )
            deadline = time.monotonic() + job_timeout if job_timeout is not None else None
            futures[future] = (record, self._pool_generation, deadline)

        def schedule_retry(record: JobRecord, exc: BaseException) -> None:
            stats["retries"] += 1
            delay = self._retry_delay(record)
            self._emit(
                record,
                JOB_RETRYING,
                attempt=record.attempts,
                error=str(exc),
                delay_seconds=delay,
            )
            pending_retries.append((time.monotonic() + delay, record))
            pending_retries.sort(key=lambda item: item[0])

        def settle_failure(record: JobRecord, exc: BaseException) -> None:
            self._fail(record, exc, stats)
            executing.pop(record.spec_hash, None)
            self._resolve_followers(record.spec_hash, followers, stats, error=exc)

        try:
            while True:
                now = time.monotonic()
                # Heartbeat the leases of everything this loop is holding,
                # so a sibling's recover() never steals a job that is merely
                # long, not abandoned.
                if now >= next_heartbeat:
                    for record, _, _ in futures.values():
                        self._write_lease(record.job_id)
                    for _, record in pending_retries:
                        self._write_lease(record.job_id)
                    next_heartbeat = now + heartbeat_interval

                # Launch retries whose backoff has elapsed (pool mode only;
                # inline retries sleep in place inside _run_inline).
                while (
                    pending_retries
                    and pending_retries[0][0] <= now
                    and len(futures) < self.n_workers
                ):
                    _, record = pending_retries.pop(0)
                    self._start_attempt(record)
                    submit_to_pool(record)

                # Fill the fleet from the queue.
                while (max_jobs is None or claimed < max_jobs) and (
                    len(futures) < self.n_workers
                ):
                    record = self._claim_next(stats)
                    if record is None:
                        break
                    claimed += 1
                    idle_since = None
                    if self.store.contains(record.spec_hash):
                        self._finish_cache_hit(record, stats)
                    elif record.spec_hash in executing:
                        # An identical spec is already computing: hold this
                        # one back and settle it from the store afterwards.
                        followers.setdefault(record.spec_hash, []).append(record)
                    else:
                        executing[record.spec_hash] = record.job_id
                        self._start_attempt(record)
                        if use_pool:
                            submit_to_pool(record)
                        else:
                            inline_inflight = record
                            self._run_inline(record, stats, followers)
                            inline_inflight = None
                            executing.pop(record.spec_hash, None)

                if futures:
                    # Sleep only as long as the nearest obligation allows:
                    # the next heartbeat, the earliest watchdog deadline, or
                    # the first backoff expiry (if a worker slot is free).
                    wait_until = next_heartbeat
                    for _, _, deadline in futures.values():
                        if deadline is not None:
                            wait_until = min(wait_until, deadline)
                    if pending_retries and len(futures) < self.n_workers:
                        wait_until = min(wait_until, pending_retries[0][0])
                    timeout = max(wait_until - time.monotonic(), 0.0)
                    done, _ = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
                    for future in done:
                        record, generation, _ = futures.pop(future)
                        try:
                            report = future.result()
                        except (WorkerCrashError, BrokenProcessPool) as exc:
                            if isinstance(exc, BrokenProcessPool):
                                self._recreate_pool(generation)
                            if record.attempts >= record.max_attempts:
                                settle_failure(record, exc)
                            else:
                                schedule_retry(record, exc)
                        except Exception as exc:
                            settle_failure(record, exc)
                        else:
                            self._commit(record, report, stats)
                            executing.pop(record.spec_hash, None)
                            self._resolve_followers(record.spec_hash, followers, stats)

                    if job_timeout is not None:
                        now = time.monotonic()
                        expired = [
                            future
                            for future, (_, _, deadline) in futures.items()
                            if deadline is not None and deadline <= now
                        ]
                        if expired:
                            for future in expired:
                                record, _, _ = futures.pop(future)
                                stats["timeouts"] += 1
                                self._emit(
                                    record,
                                    JOB_TIMEOUT,
                                    attempt=record.attempts,
                                    timeout_seconds=job_timeout,
                                )
                                exc = JobTimeoutError(
                                    f"job ran past the {job_timeout}s deadline "
                                    "and its worker was killed"
                                )
                                if record.attempts >= record.max_attempts:
                                    settle_failure(record, exc)
                                else:
                                    schedule_retry(record, exc)
                            # Killing the pool is the only way to stop a
                            # wedged worker; innocent in-flight jobs are
                            # resubmitted *without* consuming an attempt —
                            # they resume from checkpoint, so their
                            # trajectories are unchanged.
                            survivors = [record for record, _, _ in futures.values()]
                            futures.clear()
                            self._kill_pool()
                            for record in survivors:
                                submit_to_pool(record)
                    continue

                if pending_retries:
                    # Nothing in flight: sleep toward the first backoff
                    # expiry (in heartbeat-sized slices so leases stay warm).
                    delay = pending_retries[0][0] - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, heartbeat_interval))
                    continue

                # Nothing in flight; queue was empty on the last fill pass.
                if max_jobs is not None and claimed >= max_jobs:
                    break
                if idle_timeout <= 0:
                    break
                if idle_since is None:
                    idle_since = time.monotonic()
                if time.monotonic() - idle_since >= idle_timeout:
                    break
                time.sleep(poll_interval)
        except KeyboardInterrupt:
            for future, (record, _, _) in futures.items():
                future.cancel()
                self._requeue(record)
            if inline_inflight is not None:
                self._requeue(inline_inflight)
            for _, record in pending_retries:
                self._requeue(record)
            for waiting in followers.values():
                for record in waiting:
                    self._requeue(record)
        return stats

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut the worker fleet down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
