"""Likelihood substrate: mutation models, Felsenstein pruning, coalescent prior, log-space math."""

from .coalescent_prior import (
    CoalescentSufficientStats,
    PooledThetaLikelihood,
    batched_log_prior,
    log_coalescent_prior,
    log_prior_from_intervals,
    sufficient_stats,
)
from .engines import (
    BatchedEngine,
    ConstantEngine,
    LikelihoodEngine,
    SerialEngine,
    VectorizedEngine,
    make_engine,
)
from .incremental import CachedEngine
from .fused import FusedEngine
from .demography_prior import (
    CombinedDemographyLikelihood,
    DemographyPooledLikelihood,
    DemographyRelativeLikelihood,
)
from .growth_prior import batched_log_growth_prior, log_growth_prior
from .felsenstein import (
    SiteData,
    batched_log_likelihood,
    log_likelihood,
    log_likelihood_reference,
    site_log_likelihoods,
)
from .logspace import LOG_ZERO, LogAccumulator, log_add, log_mean, log_normalize, log_sum
from .mutation_models import F84, HKY85, Felsenstein81, JukesCantor69, Kimura80, make_model

__all__ = [
    "CoalescentSufficientStats",
    "PooledThetaLikelihood",
    "batched_log_prior",
    "log_coalescent_prior",
    "log_prior_from_intervals",
    "sufficient_stats",
    "LikelihoodEngine",
    "SerialEngine",
    "VectorizedEngine",
    "BatchedEngine",
    "CachedEngine",
    "FusedEngine",
    "ConstantEngine",
    "make_engine",
    "DemographyRelativeLikelihood",
    "DemographyPooledLikelihood",
    "CombinedDemographyLikelihood",
    "batched_log_growth_prior",
    "log_growth_prior",
    "SiteData",
    "log_likelihood",
    "log_likelihood_reference",
    "batched_log_likelihood",
    "site_log_likelihoods",
    "LOG_ZERO",
    "LogAccumulator",
    "log_add",
    "log_mean",
    "log_normalize",
    "log_sum",
    "Felsenstein81",
    "JukesCantor69",
    "Kimura80",
    "F84",
    "HKY85",
    "make_model",
]
