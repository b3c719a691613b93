"""Typed streaming events: the experiment service's progress/diagnostic bus.

Everything observable about a run — job lifecycle transitions, completed EM
iterations, written checkpoints — is announced as an :class:`Event`: a kind
string (dotted, coarse-to-fine), a JSON-safe payload, a wall-clock
timestamp, and optionally the job it belongs to.  Producers push events at
a plain callable (``on_event``) or an :class:`EventBus` fanning out to many
subscribers; the :class:`JSONLRecorder` is the standard durable consumer,
appending one JSON document per line so a crashed run's event log is still
readable up to the crash (the same append-only idiom as a write-ahead log).

The event schema (kinds and their payload fields) is documented in the
README's "Serving experiments" section; consumers must ignore payload
fields they do not know, so the schema can grow.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .faults import current_injector

__all__ = [
    "Event",
    "EventBus",
    "JSONLRecorder",
    "read_events",
    "tail_events",
    "JOB_SUBMITTED",
    "JOB_STATE_CHANGED",
    "JOB_CACHE_HIT",
    "JOB_RETRYING",
    "JOB_TIMEOUT",
    "JOB_DEGRADED",
    "JOB_RECOVERED",
    "JOB_QUARANTINED",
    "FAULT_INJECTED",
    "RUN_STARTED",
    "RUN_COMPLETED",
    "EM_ITERATION_COMPLETED",
    "CHECKPOINT_WRITTEN",
]

# ---------------------------------------------------------------------------
# Event kinds (the streaming schema's vocabulary)
# ---------------------------------------------------------------------------

#: A spec entered the spool (payload: ``spec_hash``, ``state``).
JOB_SUBMITTED = "job.submitted"
#: A job moved between states (payload: ``state``, ``attempt``; ``error`` on failure).
JOB_STATE_CHANGED = "job.state_changed"
#: A submission was satisfied from the result store (payload: ``spec_hash``).
JOB_CACHE_HIT = "job.cache_hit"
#: A failed attempt will be retried after a backoff (payload: ``attempt``,
#: ``error``, ``delay_seconds``).
JOB_RETRYING = "job.retrying"
#: A job exceeded ``serve(job_timeout=...)`` and its worker was killed
#: (payload: ``attempt``, ``timeout_seconds``).
JOB_TIMEOUT = "job.timeout"
#: A numerical fault demoted the job one engine-ladder step (payload:
#: ``from_engine``, ``to_engine``, ``error``).
JOB_DEGRADED = "job.degraded"
#: An expired-lease job was requeued by :meth:`ExperimentService.recover`
#: (payload: ``owner``, ``lease_age_seconds``).
JOB_RECOVERED = "job.recovered"
#: A corrupt spool entry was moved aside to ``spool/corrupt/`` (payload:
#: ``reason``).
JOB_QUARANTINED = "job.quarantined"
#: A :class:`~repro.service.faults.FaultPlan` trigger fired (payload:
#: ``site``, ``scope``, ``draw``; site-specific detail fields).
FAULT_INJECTED = "fault.injected"
#: A worker started (or resumed) executing a spec (payload: ``resumed_from_iteration``).
RUN_STARTED = "run.started"
#: A run finished and its report exists (payload: ``theta``, ``n_samples``).
RUN_COMPLETED = "run.completed"
#: One EM iteration finished (payload: ``iteration``, ``driving_theta``,
#: ``theta_estimate``, ``n_samples``, ``n_likelihood_evaluations``,
#: ``wall_time_seconds``, ``m_step_seconds``, ``m_step_surface_evals``,
#: ``m_step_converged``, ``m_step_iterations``, ``acceptance_rate`` (the
#: chain's accepted moves per decision) and ``cache_hit_rate`` (the
#: iteration's share of interior-node lookups served by the engine's cache;
#: 0.0 for engines without one); joint runs add ``demography_params``).
EM_ITERATION_COMPLETED = "em.iteration_completed"
#: A resumable checkpoint was durably written (payload: ``iteration``, ``path``).
CHECKPOINT_WRITTEN = "checkpoint.written"


@dataclass(frozen=True)
class Event:
    """One observable fact about a run, with a JSON-safe payload."""

    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    timestamp: float = field(default_factory=time.time)
    job_id: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """The JSONL wire form."""
        out: dict[str, Any] = {
            "event": self.kind,
            "time": self.timestamp,
            **dict(self.payload),
        }
        if self.job_id is not None:
            out["job_id"] = self.job_id
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Event":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        kind = data.pop("event")
        timestamp = float(data.pop("time", 0.0))
        job_id = data.pop("job_id", None)
        return cls(kind=kind, payload=data, timestamp=timestamp, job_id=job_id)

    def with_job(self, job_id: str) -> "Event":
        """A copy of this event tagged with a job id (producers are job-agnostic)."""
        return Event(kind=self.kind, payload=self.payload, timestamp=self.timestamp, job_id=job_id)


OnEvent = Callable[[Event], None]


class EventBus:
    """Fan one event stream out to any number of subscribers, in order."""

    def __init__(self) -> None:
        self._subscribers: list[OnEvent] = []

    def subscribe(self, callback: OnEvent) -> OnEvent:
        """Register ``callback`` for every subsequent event; returns it (decorator-friendly)."""
        self._subscribers.append(callback)
        return callback

    def unsubscribe(self, callback: OnEvent) -> None:
        """Remove a previously-registered callback (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to every subscriber, in subscription order."""
        for callback in list(self._subscribers):
            callback(event)

    def emit(self, kind: str, *, job_id: str | None = None, **payload: Any) -> Event:
        """Build an :class:`Event` and publish it (the producer convenience)."""
        event = Event(kind=kind, payload=payload, job_id=job_id)
        self.publish(event)
        return event


class JSONLRecorder:
    """Append events to a ``.jsonl`` file, one JSON document per line.

    Each event is appended and flushed in a single short ``open``/``write``
    so that (a) a crash loses at most the in-flight line and (b) a parent
    process and a worker process can interleave whole lines into the same
    log (POSIX ``O_APPEND`` writes of one small line are atomic in
    practice).  Optionally stamps every event with a ``job_id``.
    """

    def __init__(self, path: str | Path, *, job_id: str | None = None) -> None:
        self.path = Path(path)
        self.job_id = job_id
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def __call__(self, event: Event) -> None:
        if self.job_id is not None and event.job_id is None:
            event = event.with_job(self.job_id)
        line = json.dumps(event.to_dict(), sort_keys=True)
        injector = current_injector()
        if injector is not None and injector.fire("torn_write", notify=False, file=self.path.name):
            # A crash mid-append: half the line, no newline, then die with
            # the same typed transient error a killed worker produces.
            # notify=False — reporting this fault would append through this
            # very recorder; the torn half-line *is* the audit artifact.
            self._append(line[: max(1, len(line) // 2)])
            raise injector.crash_error(
                f"injected torn write to {self.path.name} (process died mid-append)"
            )
        self._append(line + "\n")

    def _append(self, text: str) -> None:
        """One ``O_APPEND`` write, healing a torn predecessor line.

        If the previous writer died mid-line the file ends without a
        newline; starting this event on a fresh line keeps the torn
        fragment isolated to *its own* line (which :func:`read_events`
        skips) instead of gluing it to a valid event and losing both.
        """
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                text = "\n" + text
            os.write(fd, text.encode("utf-8"))
        finally:
            os.close(fd)


def read_events(path: str | Path) -> Iterator[Event]:
    """Iterate the events of a JSONL log, skipping unparseable lines.

    A writer that crashes mid-append leaves a torn line; because a retried
    attempt (or the service) keeps appending afterwards, a torn line can sit
    anywhere in the log, not just at the end.  Every line that is not a
    complete event document is skipped — the readable events around it are
    all still delivered.
    """
    path = Path(path)
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield Event.from_dict(json.loads(line))
            except (ValueError, KeyError):
                continue  # a torn line from a crashed writer


def tail_events(path: str | Path, n: int) -> list[Event]:
    """The last ``n`` events of a JSONL log."""
    events = list(read_events(path))
    return events[-n:] if n >= 0 else events
