"""Baseline samplers: single-proposal Metropolis-Hastings and multiple independent chains."""

from .heated import HeatedChainSampler, default_temperatures
from .lamarc import LamarcSampler
from .multichain import (
    AmdahlModel,
    MultiChainSampler,
    gmh_parallel_time,
    multichain_parallel_time,
)

__all__ = [
    "LamarcSampler",
    "MultiChainSampler",
    "multichain_parallel_time",
    "gmh_parallel_time",
    "AmdahlModel",
    "HeatedChainSampler",
    "default_temperatures",
]
