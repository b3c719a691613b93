"""repro — multi-proposal (Generalized Metropolis-Hastings) coalescent genealogy sampler.

A from-scratch reproduction of Davis (2016/2017), *Scalable Parallelization
of a Markov Coalescent Genealogy Sampler*: the mpcgs sampler, its
LAMARC-style single-proposal baseline, the population-genetics substrates
they share (coalescent genealogies, Felsenstein pruning likelihoods,
mutation models, neutral-coalescent and sequence-evolution simulators), and
the experiment service that runs them.

Quickstart::

    import numpy as np
    from repro import run_experiment, synthesize_dataset

    rng = np.random.default_rng(7)
    data = synthesize_dataset(n_sequences=8, n_sites=200, true_theta=1.0, rng=rng)
    report = run_experiment(data, theta0=0.1, seed=7)
    print(report.theta)

Samplers, likelihood engines, and mutation models are discoverable by name
(``available_samplers()`` / ``available_engines()`` / ``available_models()``)
and constructed through the registries in :mod:`repro.core.registry`; whole
experiments serialize to JSON via :class:`repro.api.RunSpec`.
"""

from .api import Experiment, RunReport, RunSpec, run_experiment
from .core.bayesian import BayesianResult, BayesianSampler, ThetaPrior
from .core.config import EstimatorConfig, MPCGSConfig, SamplerConfig
from .core.estimator import (
    DemographyEstimate,
    RelativeLikelihood,
    ThetaEstimate,
    maximize_demography,
    maximize_theta,
)
from .core.gmh import GeneralizedMetropolisHastings, ProposalSet
from .core.mpcgs import (
    MPCGS,
    EMIteration,
    MPCGSResult,
    MultiLocusResult,
    run_multilocus,
)
from .core.registry import (
    Sampler,
    available_engines,
    available_models,
    available_samplers,
    make_sampler,
    register_sampler,
)
from .demography import (
    BottleneckDemography,
    ConstantDemography,
    Demography,
    ExponentialDemography,
    LogisticDemography,
    available_demographies,
    make_demography,
    register_demography,
)
from .core.sampler import MultiProposalSampler
from .baselines.heated import HeatedChainSampler, default_temperatures
from .baselines.lamarc import LamarcSampler
from .baselines.multichain import MultiChainSampler, WorkerCrashError
from .service.checkpoint import EMCheckpoint, load_checkpoint, save_checkpoint
from .service.events import Event, EventBus, JSONLRecorder, read_events
from .service.store import ResultStore
from .genealogy.newick import from_newick, to_newick
from .genealogy.tree import Genealogy
from .genealogy.upgma import upgma_tree
from .likelihood.coalescent_prior import PooledThetaLikelihood
from .likelihood.demography_prior import (
    CombinedDemographyLikelihood,
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)
from .likelihood.engines import (
    BatchedEngine,
    ConstantEngine,
    SerialEngine,
    VectorizedEngine,
    make_engine,
)
from .likelihood.felsenstein import batched_log_likelihood, log_likelihood
from .likelihood.mutation_models import (
    F84,
    HKY85,
    Felsenstein81,
    JukesCantor69,
    Kimura80,
    make_model,
)
from .sequences.alignment import Alignment
from .sequences.fasta import read_fasta, write_fasta
from .sequences.phylip import read_phylip, write_phylip
from .sequences.popgen_stats import summarize_alignment
from .simulate.coalescent_sim import simulate_genealogy
from .simulate.datasets import SyntheticDataset, synthesize_dataset
from .simulate.demography_sim import (
    simulate_demography_genealogy,
    simulate_demography_intervals,
)
from .simulate.growth_sim import simulate_growth_genealogy

# Imported last: the runner composes the repro.api facade above.
from .service.runner import ExperimentService, JobRecord

__version__ = "1.0.0"

__all__ = [
    "Experiment",
    "RunReport",
    "RunSpec",
    "run_experiment",
    "Sampler",
    "make_sampler",
    "register_sampler",
    "available_samplers",
    "available_engines",
    "available_models",
    "MPCGS",
    "MPCGSConfig",
    "MPCGSResult",
    "EMIteration",
    "SamplerConfig",
    "EstimatorConfig",
    "MultiProposalSampler",
    "GeneralizedMetropolisHastings",
    "ProposalSet",
    "LamarcSampler",
    "MultiChainSampler",
    "RelativeLikelihood",
    "ThetaEstimate",
    "maximize_theta",
    "Genealogy",
    "upgma_tree",
    "to_newick",
    "from_newick",
    "Alignment",
    "read_phylip",
    "write_phylip",
    "log_likelihood",
    "batched_log_likelihood",
    "make_engine",
    "SerialEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "make_model",
    "Felsenstein81",
    "JukesCantor69",
    "Kimura80",
    "F84",
    "HKY85",
    "simulate_genealogy",
    "synthesize_dataset",
    "SyntheticDataset",
    "simulate_growth_genealogy",
    "BayesianSampler",
    "BayesianResult",
    "ThetaPrior",
    "HeatedChainSampler",
    "default_temperatures",
    "ConstantEngine",
    "PooledThetaLikelihood",
    "read_fasta",
    "write_fasta",
    "summarize_alignment",
    "Demography",
    "ConstantDemography",
    "ExponentialDemography",
    "BottleneckDemography",
    "LogisticDemography",
    "make_demography",
    "register_demography",
    "available_demographies",
    "DemographyEstimate",
    "maximize_demography",
    "DemographyRelativeLikelihood",
    "DemographyPooledLikelihood",
    "CombinedDemographyLikelihood",
    "MultiLocusResult",
    "run_multilocus",
    "simulate_demography_genealogy",
    "simulate_demography_intervals",
    "WorkerCrashError",
    "ExperimentService",
    "JobRecord",
    "ResultStore",
    "EMCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "Event",
    "EventBus",
    "JSONLRecorder",
    "read_events",
    "__version__",
]
