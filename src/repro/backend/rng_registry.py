"""Named-stream counter-based RNG registry.

The problem this solves: the repo used to derive per-chain / per-locus /
per-launch randomness with ``rng.spawn``, which hands out child streams in
*request order*.  That ties the random numbers a chain sees to process
topology — run 8 chains on 2 workers and on 4 workers and the spawn trees
differ, so the chains differ, so "bit-reproducible" quietly means
"bit-reproducible on exactly this fleet".

The fix is the counter-based idiom from reikna's CBRNG and elfi's
substream tests: a stream is a *pure function* of ``(master_seed, name)``
where the name is a stable, semantic tuple — ``("chain", 3)``,
``("locus", 1, "iteration", 0)``, ``("proposal_set", 42, "thread", 7)``.
Who asks for the stream, when, in what order, on which worker: irrelevant.
Any subset of chains/loci/workers reproduces bit-identically.

Keys are derived by hashing the canonical encoding of the name components
with SHA-256 and taking 128 bits as the 2-word Philox key.  SHA-256 makes
distinct names collide with probability ~2^-128 and — unlike additive
seed arithmetic (``seed + offset``) — no two distinct component tuples can
alias by sliding values between positions.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "philox_key",
    "named_stream",
    "derive_master_seed",
    "RNGRegistry",
]


def _encode(components: tuple) -> bytes:
    """Canonical byte encoding of a stream name.

    ``repr`` distinguishes types (``5`` vs ``"5"``) and the ``/`` joiner is
    escaped out of string components, so distinct component tuples never
    encode to the same bytes.
    """
    parts = []
    for c in components:
        if isinstance(c, (bool, np.bool_)):
            raise TypeError("stream name components must be int or str, not bool")
        if isinstance(c, (int, np.integer)):
            parts.append(repr(int(c)))
        elif isinstance(c, str):
            parts.append(repr(c.replace("\\", "\\\\").replace("/", "\\s")))
        else:
            raise TypeError(
                f"stream name components must be int or str, got {type(c).__name__}"
            )
    return "/".join(parts).encode("utf-8")


def philox_key(*components) -> np.ndarray:
    """A 2-word uint64 Philox key, a pure function of the name components.

    Components may be ints or strings.  Distinct tuples give independent
    keys (SHA-256, 128 bits kept); identical tuples always give the same
    key, on any machine, in any order, at any time.
    """
    digest = hashlib.sha256(_encode(components)).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


def named_stream(master_seed: int, *name) -> np.random.Generator:
    """A fresh Generator for the stream named ``name`` under ``master_seed``.

    Pure: ``named_stream(s, *n)`` always returns a generator in the same
    initial state.  Each call returns an independent copy, so two call
    sites asking for the same name draw the same sequence (which is the
    point — name streams so that never happens unintentionally).
    """
    key = philox_key(int(master_seed), *name)
    return np.random.Generator(np.random.Philox(key=key))


def derive_master_seed(rng: np.random.Generator | int) -> int:
    """Bridge a Generator-passing API into the named-stream world.

    Callers that receive a caller-supplied ``rng`` take exactly one draw
    from it to fix a master seed, then derive everything else as named
    streams of that master — so downstream reproducibility depends only on
    the master seed, never on how the caller's generator was advanced
    afterwards.  Integers pass through unchanged so explicit seeds remain
    human-readable.
    """
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(rng.integers(1 << 63))


class RNGRegistry:
    """Hands out named streams under one master seed.

    Thin convenience over :func:`named_stream` for code that derives many
    streams from the same master: remembers the names it has served so
    tests (and debugging humans) can enumerate which streams a run used.
    """

    def __init__(self, master_seed: int) -> None:
        self.master_seed = int(master_seed)
        self._served: list[tuple] = []

    def stream(self, *name) -> np.random.Generator:
        """The stream named ``name`` — pure in (master_seed, name)."""
        self._served.append(name)
        return named_stream(self.master_seed, *name)

    @property
    def served(self) -> list[tuple]:
        """Names served so far, in request order (diagnostic only)."""
        return list(self._served)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RNGRegistry(master_seed={self.master_seed}, served={len(self._served)})"
