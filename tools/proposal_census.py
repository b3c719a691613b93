#!/usr/bin/env python
"""Census of proposal-kernel failures over seeded (tree, target) draws.

    PYTHONPATH=src python tools/proposal_census.py --draws 2000

Draw ``s`` simulates a 6-tip genealogy with ``numpy.random.default_rng(s)``,
targets its eligible node ``s mod #targets`` and resimulates it as one
proposal set of 3 (``NeighborhoodResimulator.propose_set``, with
``validate=True``) drawn from the same generator.  The draws run under the
constant model and exponential growth g ∈ {−50, −20, −5, 5, 50}, on the set
kernel and the per-proposal reference kernel.  The script prints the failure
counts of every cell and exits 1 on any failure outside the g = −50 cells,
or on a failure there that is not one of the two kinds the g < 0 tail is
known to produce (ROADMAP item 1): the dead-end ``RuntimeError`` of the
conditioned walk, or the ``ValueError`` of a cumulative intensity past the
declining demography's total.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

import numpy as np

from repro.demography.models import ExponentialDemography
from repro.proposals.neighborhood import NeighborhoodResimulator, eligible_targets
from repro.simulate.coalescent_sim import simulate_genealogy

GROWTHS = (None, -50.0, -20.0, -5.0, 5.0, 50.0)

#: The one cell allowed to fail, and the failure kinds it may show.
TAIL_GROWTH = -50.0
TAIL_KINDS = ("dead end", "past total intensity")


def failure_kind(exc: Exception) -> str:
    """``"dead end"``, ``"past total intensity"`` or, for anything else, its type name."""
    if type(exc) is RuntimeError and "dead end" in str(exc):
        return "dead end"
    if type(exc) is ValueError and str(exc).startswith("cumulative intensity exceeds"):
        return "past total intensity"
    return type(exc).__name__


def census(growth: float | None, n_draws: int, batch: bool) -> Counter:
    """Failure kinds over draws ``0 … n_draws−1`` of one (demography, kernel) cell."""
    demography = None if growth is None else ExponentialDemography(growth=growth)
    resim = NeighborhoodResimulator(
        1.0, validate=True, demography=demography, batch_proposals=batch
    )
    failures: Counter = Counter()
    for seed in range(n_draws):
        rng = np.random.default_rng(seed)
        tree = simulate_genealogy(6, 1.0, rng)
        targets = eligible_targets(tree)
        try:
            resim.propose_set(tree, int(targets[seed % targets.size]), 3, rng)
        except Exception as exc:  # every failure is counted by kind
            failures[failure_kind(exc)] += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=2000)
    args = parser.parse_args(argv)
    unexpected = 0
    for batch in (True, False):
        for growth in GROWTHS:
            failures = census(growth, args.draws, batch)
            label = "constant" if growth is None else f"g={growth:+g}"
            kernel = "set" if batch else "reference"
            counts = ", ".join(f"{kind} {n}" for kind, n in sorted(failures.items())) or "none"
            print(f"{kernel:9s} {label:9s} {sum(failures.values()):4d} of {args.draws} failed: {counts}")
            allowed = TAIL_KINDS if growth == TAIL_GROWTH else ()
            unexpected += sum(n for kind, n in failures.items() if kind not in allowed)
    if unexpected:
        print(f"{unexpected} unexpected failures (only the g={TAIL_GROWTH:+g} tail may fail)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
