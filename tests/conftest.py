"""Shared fixtures: small synthetic datasets, trees, and RNGs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.genealogy.tree import Genealogy
from repro.likelihood.mutation_models import Felsenstein81
from repro.sequences.alignment import Alignment
from repro.simulate.datasets import synthesize_dataset


def pytest_configure(config) -> None:
    config.addinivalue_line("markers", "slow: long-running statistical or end-to-end test")


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(20260615)


@pytest.fixture
def tiny_alignment() -> Alignment:
    """A four-sequence, eight-site alignment with hand-picked differences."""
    return Alignment.from_sequences(
        {
            "alpha": "ACGTACGT",
            "beta": "ACGTACGA",
            "gamma": "ACGTTCGA",
            "delta": "CCGTTCGA",
        }
    )


@pytest.fixture
def tiny_tree() -> Genealogy:
    """A valid four-tip genealogy with known times.

    Topology: ((alpha, beta), (gamma, delta)); coalescent times 0.1, 0.25, 0.6.
    """
    return Genealogy.from_times_and_topology(
        merge_order=[(0, 1), (2, 3), (4, 5)],
        merge_times=[0.1, 0.25, 0.6],
        tip_names=("alpha", "beta", "gamma", "delta"),
    )


@pytest.fixture
def small_dataset(rng):
    """A simulated dataset (8 sequences x 120 sites) at true theta = 1."""
    return synthesize_dataset(n_sequences=8, n_sites=120, true_theta=1.0, rng=rng)


@pytest.fixture
def uniform_model() -> Felsenstein81:
    """F81 model with uniform base frequencies (equivalent to JC69 dynamics)."""
    return Felsenstein81()
