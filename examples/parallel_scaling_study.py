"""Parallel-scaling study: why multiple chains stop scaling and GMH does not.

Reproduces the argument of Section 3 / Fig. 6 / Eq. 27 quantitatively and
then adds the measured ingredient the paper contributes: the per-sample cost
of the batched (device-style) evaluation versus the serial evaluation, as a
function of problem size.

The script prints two blocks:

1. the Amdahl step-count table for the multiple-chains baseline vs GMH, and
2. measured wall-clock cost per retained sample for the serial baseline and
   the batched multi-proposal sampler on the same dataset.

Run with::

    python examples/parallel_scaling_study.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import SamplerConfig, synthesize_dataset, upgma_tree
from repro.baselines.lamarc import LamarcSampler
from repro.baselines.multichain import AmdahlModel
from repro.core.sampler import MultiProposalSampler
from repro.likelihood.engines import BatchedEngine, SerialEngine
from repro.likelihood.mutation_models import Felsenstein81


def amdahl_table() -> None:
    print("=== 1. Step-count scaling (B = 1,000 burn-in, N = 10,000 samples) ===")
    model = AmdahlModel(burn_in=1_000, n_samples=10_000)
    print(f"{'P':>6} {'multi-chain steps':>18} {'GMH steps':>12} "
          f"{'multi-chain speedup':>20} {'GMH speedup':>12}")
    for p in (1, 2, 4, 8, 16, 64, 256, 1024):
        print(
            f"{p:>6} {model.multichain_steps(p):>18.1f} {model.gmh_steps(p):>12.1f} "
            f"{float(model.multichain_speedup(p)):>20.2f} {float(model.gmh_speedup(p)):>12.2f}"
        )
    print(f"multi-chain speedup limit (Amdahl): {model.multichain_speedup_limit():.1f}x\n")


def measured_costs(seed: int = 11) -> None:
    print("=== 2. Measured cost per retained sample (12 sequences) ===")
    rng = np.random.default_rng(seed)
    print(f"{'sites':>8} {'serial ms/sample':>18} {'batched ms/sample':>19} {'speedup':>9}")
    for n_sites in (100, 400, 1000):
        data = synthesize_dataset(n_sequences=12, n_sites=n_sites, true_theta=1.0, rng=rng)
        model = Felsenstein81(data.alignment.base_frequencies(pseudocount=1.0))
        tree = upgma_tree(data.alignment, 1.0)

        serial_cfg = SamplerConfig(n_samples=30, burn_in=10)
        start = time.perf_counter()
        LamarcSampler(SerialEngine(alignment=data.alignment, model=model), 1.0, serial_cfg).run(
            tree, rng
        )
        serial_per_sample = (time.perf_counter() - start) / serial_cfg.n_samples

        gmh_cfg = SamplerConfig(n_proposals=16, n_samples=64, burn_in=16)
        start = time.perf_counter()
        MultiProposalSampler(
            BatchedEngine(alignment=data.alignment, model=model), 1.0, gmh_cfg
        ).run(tree, rng)
        gmh_per_sample = (time.perf_counter() - start) / gmh_cfg.n_samples

        print(
            f"{n_sites:>8} {serial_per_sample * 1e3:>18.2f} {gmh_per_sample * 1e3:>19.2f} "
            f"{serial_per_sample / gmh_per_sample:>9.2f}"
        )
    print()


if __name__ == "__main__":
    amdahl_table()
    measured_costs()
