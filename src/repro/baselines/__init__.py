"""Baseline samplers: single-proposal Metropolis-Hastings and multiple independent chains."""

from .heated import HeatedChainSampler, default_temperatures
from .lamarc import LamarcSampler
from .multichain import AmdahlModel, MultiChainSampler

__all__ = [
    "LamarcSampler",
    "MultiChainSampler",
    "AmdahlModel",
    "HeatedChainSampler",
    "default_temperatures",
]
