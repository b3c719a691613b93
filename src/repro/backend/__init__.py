"""Named RNG streams.

:mod:`~repro.backend.rng_registry` provides counter-based named RNG
streams — pure functions of ``(master_seed, name)`` — so reproducibility
is independent of worker count and execution order.
"""

from __future__ import annotations

from .rng_registry import RNGRegistry, derive_master_seed, named_stream, philox_key

__all__ = [
    "RNGRegistry",
    "derive_master_seed",
    "named_stream",
    "philox_key",
]
