"""Ablation — likelihood-kernel implementation (Section 5.2.2 design choice).

The data-likelihood evaluation dominates total runtime, so how it is executed
is the whole performance story: per-site scalar (the serial baseline), site-
vectorized (one genealogy at a time), or site- and proposal-vectorized (the
device-style batched kernel).  This ablation times all three on the same
proposal set at two sequence lengths and reports the relative throughput;
the batched path should win, and win by more at longer sequences — the same
mechanism behind Table 4.
"""

from __future__ import annotations

import time

import numpy as np

from repro.likelihood.engines import BatchedEngine, SerialEngine, VectorizedEngine
from repro.likelihood.mutation_models import Felsenstein81
from repro.proposals.neighborhood import NeighborhoodResimulator
from repro.genealogy.upgma import upgma_tree

from conftest import make_dataset

N_PROPOSALS = 24
SEQUENCE_LENGTHS = (100, 600)


def _proposal_set(dataset, seed: int):
    rng = np.random.default_rng(seed)
    tree = upgma_tree(dataset.alignment, 1.0)
    resim = NeighborhoodResimulator(1.0)
    target = resim.choose_target(tree, rng)
    return [outcome.tree for outcome in resim.propose_set(tree, target, N_PROPOSALS, rng)] + [tree]


def _time_engine(engine_cls, dataset, trees) -> tuple[float, np.ndarray]:
    model = Felsenstein81(dataset.alignment.base_frequencies(pseudocount=1.0))
    engine = engine_cls(alignment=dataset.alignment, model=model)
    start = time.perf_counter()
    values = engine.evaluate_batch(trees)
    return time.perf_counter() - start, values


def test_ablation_likelihood_implementations(benchmark, record):
    rows = []
    batched_args = None
    for i, n_sites in enumerate(SEQUENCE_LENGTHS):
        dataset = make_dataset(n_sequences=12, n_sites=n_sites, true_theta=1.0, seed=90 + i)
        trees = _proposal_set(dataset, seed=3)
        serial_t, serial_v = _time_engine(SerialEngine, dataset, trees)
        vector_t, vector_v = _time_engine(VectorizedEngine, dataset, trees)
        batched_t, batched_v = _time_engine(BatchedEngine, dataset, trees)
        assert np.allclose(serial_v, vector_v, rtol=1e-8)
        assert np.allclose(serial_v, batched_v, rtol=1e-8)
        rows.append(
            {
                "n_sites": n_sites,
                "serial_seconds": serial_t,
                "vectorized_seconds": vector_t,
                "batched_seconds": batched_t,
                "speedup_vectorized": serial_t / vector_t,
                "speedup_batched": serial_t / batched_t,
            }
        )
        if batched_args is None:
            batched_args = (dataset, trees)

    model = Felsenstein81(batched_args[0].alignment.base_frequencies(pseudocount=1.0))
    engine = BatchedEngine(alignment=batched_args[0].alignment, model=model)
    benchmark(engine.evaluate_batch, batched_args[1])

    record("ablation_likelihood_impl", {"rows": rows, "n_proposals": N_PROPOSALS})

    # The batched kernel always beats the serial path, and its advantage
    # grows with sequence length (the Table 4 mechanism).
    assert all(r["speedup_batched"] > 1.0 for r in rows)
    assert rows[-1]["speedup_batched"] > rows[0]["speedup_batched"]
