"""Crash-safe, bit-identical EM checkpoints.

The EM driver's whole state between iterations is small and explicit: the
driving ``(θ, demography)`` point, the carried-forward seed genealogy, the
exact generator state of the run's RNG, and the per-iteration history
accumulated so far.  :class:`EMCheckpoint` freezes exactly that, so a run
killed at iteration *k* resumes with a trajectory bit-identical to the
uninterrupted run: the restored RNG state replays the same draws, the
pickled float64 tree times are exact, and the likelihood engines are
value-deterministic (a resumed engine merely starts with a cold cache —
``engine_cache_warm`` records that the warmth, not the values, was lost).

Checkpoints are written atomically (temp file + ``os.replace``) so a crash
*during* a checkpoint write leaves the previous checkpoint intact, and
carry a ``run_key`` — the content hash of the config and starting point —
so a checkpoint cannot silently resume a different experiment.

This module is deliberately dependency-free within the package (the driver
imports it, not vice versa); the payload objects it pickles —
:class:`~repro.core.mpcgs.EMIteration`, :class:`~repro.genealogy.tree.Genealogy`,
demography models — are all plain dataclasses.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = [
    "EMCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointMismatchError",
    "CheckpointCorruptError",
]

#: Bumped when the on-disk layout changes incompatibly.
CHECKPOINT_VERSION = 1


class CheckpointMismatchError(ValueError):
    """A checkpoint does not belong to the run trying to resume from it."""


class CheckpointCorruptError(ValueError):
    """A checkpoint file could not be unpickled (torn write, truncation, rot).

    Atomic replace makes this unreachable through the normal write path, but
    a disk-level fault or a file touched by something other than
    :func:`save_checkpoint` must degrade to "start the run fresh", not crash
    the scheduler — the job runner catches exactly this type, discards the
    file, and reruns from iteration zero (bit-identically, since a fresh run
    is the resume contract's baseline).
    """


@dataclass
class EMCheckpoint:
    """Everything the EM driver needs to continue after iteration ``completed_iterations``.

    Attributes
    ----------
    run_key:
        Content hash of the run's identity (config + θ₀); resume refuses a
        checkpoint whose key differs from the resuming run's.
    completed_iterations:
        How many EM iterations had fully finished when this was written.
    theta:
        The driving θ for the *next* iteration.
    demography:
        The driving :class:`~repro.demography.base.Demography` for the next
        iteration (``None`` for a parameter-free demography, which has no
        parameters to carry).
    tree:
        The carried-forward seed :class:`~repro.genealogy.tree.Genealogy`.
    rng_state:
        ``rng.bit_generator.state`` captured *after* the completed
        iteration's last draw — restoring it replays the remaining
        trajectory exactly.
    iterations:
        The :class:`~repro.core.mpcgs.EMIteration` history so far.
    engine_name / engine_cache_warm:
        Engine-warmth metadata: which engine ran and whether its
        partial-likelihood cache was warm when the checkpoint was cut.  A
        resumed run rebuilds the cache from scratch (values are unaffected;
        only the first resumed iteration pays cold-cache work again).
    """

    run_key: str
    completed_iterations: int
    theta: float
    demography: Any | None
    tree: Any
    rng_state: dict
    iterations: list = field(default_factory=list)
    engine_name: str = ""
    engine_cache_warm: bool = False
    #: True when the completed iteration satisfied the convergence test — a
    #: resume then returns immediately instead of running extra iterations
    #: the uninterrupted run never performed.
    converged: bool = False
    version: int = CHECKPOINT_VERSION


def save_checkpoint(path: str | Path, checkpoint: EMCheckpoint) -> Path:
    """Durably write ``checkpoint`` to ``path`` (atomic replace, crash-safe)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: str | Path, *, expected_run_key: str | None = None) -> EMCheckpoint:
    """Read a checkpoint back; optionally verify it belongs to ``expected_run_key``."""
    try:
        with open(path, "rb") as handle:
            checkpoint = pickle.load(handle)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError) as exc:
        raise CheckpointCorruptError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(checkpoint, EMCheckpoint):
        raise CheckpointCorruptError(f"{path} does not contain an EMCheckpoint")
    if checkpoint.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {checkpoint.version} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    if expected_run_key is not None and checkpoint.run_key != expected_run_key:
        raise CheckpointMismatchError(
            "checkpoint belongs to a different run "
            f"(checkpoint key {checkpoint.run_key[:12]}…, expected {expected_run_key[:12]}…); "
            "refusing to resume"
        )
    return checkpoint
