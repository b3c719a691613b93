"""Generate every workload's input files from the seed, before timing starts.

The program only ever sees the files written here: PHYLIP alignments and
``RunSpec`` JSON documents.  The same seed gives byte-identical files.

Alignments are ordinary coalescent simulations, redrawn (from the seed's
next sub-stream) until the number of distinct site patterns falls inside a
narrow window.  The likelihood cost of a run is proportional to that number,
so the window keeps the cost of a workload steady from seed to seed while the
data stay genuine draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import RunSpec
from repro.core.config import MPCGSConfig, SamplerConfig
from repro.demography import make_demography
from repro.likelihood.mutation_models import F84
from repro.sequences.evolve import evolve_sequences
from repro.sequences.phylip import write_phylip
from repro.simulate.datasets import synthesize_dataset
from repro.simulate.demography_sim import simulate_demography_genealogy

WORKLOAD_TAGS = {"em-long": 1, "em-deep": 2, "service-batch": 3}
MAX_DRAWS = 2000

# The EM workloads leave likelihood_engine at the MPCGSConfig default.
EM_LONG_CONFIG = MPCGSConfig(
    sampler=SamplerConfig(n_proposals=16, n_samples=400, burn_in=100), n_em_iterations=3
)
EM_DEEP_CONFIG = MPCGSConfig(
    sampler=SamplerConfig(n_proposals=16, n_samples=300, burn_in=100),
    n_em_iterations=3,
    demography="exponential",
)
SERVICE_CHAIN = SamplerConfig(n_proposals=8, n_samples=80, burn_in=20)
SERVICE_LOCI = 4
SERVICE_CHAINS = 4


EM_DATASETS = 4


@dataclass
class Inputs:
    config: MPCGSConfig
    spec_paths: list[Path]
    alignment_paths: list[Path]
    draws: int = 0


def _draw(make, window: tuple[int, int], seed: int, *stream: int):
    """First alignment from the seed's sub-streams whose pattern count is in ``window``."""
    lo, hi = window
    for attempt in range(MAX_DRAWS):
        alignment = make(np.random.default_rng([seed, *stream, attempt]))
        if lo <= alignment.site_patterns()[0].shape[1] <= hi:
            return alignment, attempt + 1
    raise RuntimeError(f"no alignment with {lo}-{hi} site patterns in {MAX_DRAWS} draws")


def _em_long(rng):
    return synthesize_dataset(16, 2000, 0.3, rng).alignment


def _em_deep(rng):
    growth = make_demography("exponential", {"growth": 2.0})
    tree = simulate_demography_genealogy(48, 1.0, growth, rng)
    return evolve_sequences(tree, 150, F84(), rng)


def _service_locus(rng):
    return synthesize_dataset(12, 300, 1.0, rng).alignment


def _spec(config: MPCGSConfig, path: Path, seed: int, out: Path) -> Path:
    RunSpec(config=config, sequence_file=str(path), seed=seed).save(out)
    return out


def generate(workload: str, seed: int, work: Path) -> Inputs:
    """Write ``workload``'s input files for ``seed`` under ``work``.

    An EM workload gets ``EM_DATASETS`` alignments, one spec each; the
    service workload gets ``SERVICE_LOCI`` loci with a gmh and a multichain
    spec each.
    """
    tag = WORKLOAD_TAGS[workload]
    specs: list[Path] = []
    alignments: list[Path] = []
    draws = 0
    if workload == "service-batch":
        config = MPCGSConfig(sampler=SERVICE_CHAIN, n_em_iterations=3)
        kinds = {"gmh": config, "multichain": config.with_sampler("multichain", n_chains=SERVICE_CHAINS)}
        make, window, count = _service_locus, (200, 215), SERVICE_LOCI
    elif workload == "em-long":
        config, kinds = EM_LONG_CONFIG, {"em": EM_LONG_CONFIG}
        make, window, count = _em_long, (420, 440), EM_DATASETS
    else:
        config, kinds = EM_DEEP_CONFIG, {"em": EM_DEEP_CONFIG}
        make, window, count = _em_deep, (0, 150), EM_DATASETS
    for k in range(count):
        alignment, used = _draw(make, window, seed, tag, k)
        draws += used
        path = work / f"data{k}.phy"
        write_phylip(alignment, str(path))
        alignments.append(path)
        for kind, kind_config in kinds.items():
            specs.append(_spec(kind_config, path, seed + k, work / f"data{k}.{kind}.json"))
    return Inputs(config, specs, alignments, draws)
