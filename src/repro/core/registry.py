"""Named registries for samplers, likelihood engines, and mutation models.

The package grew five samplers — the multi-proposal GMH chain, the
LAMARC-style single-proposal baseline, the multiple-independent-chains and
Metropolis-coupled ("heated") baselines, and the Bayesian joint (G, θ)
sampler — that all produce a :class:`~repro.diagnostics.traces.ChainResult`
but exposed incompatible construction APIs.  This module normalizes them
behind one :class:`Sampler` protocol and a string-keyed
:class:`Registry`, the same front-door idiom LAMARC 2.0 uses to offer its
ML and Bayesian modes through a single interface:

* ``make_sampler("lamarc", engine=..., theta=0.7)`` builds any registered
  sampler from a uniform set of keyword arguments;
* ``register_sampler("mine", builder)`` adds a new sampler without touching
  the drivers, the :mod:`repro.api` facade, or the CLI, all of which look
  the sampler up by name;
* the existing ``make_engine``/``make_model`` factories are mirrored into
  the same registry machinery (``ENGINES``, ``MODELS``), and the demography
  registry (:mod:`repro.demography.registry`) uses the identical
  :class:`~repro.core.registry_base.Registry` class, so discovery —
  ``available_samplers()``, ``available_engines()``, ``available_models()``,
  ``available_demographies()`` — works identically across all four
  extension points.  Sampler entries carry a ``supports_demography``
  capability flag consulted by :func:`require_demography_support`, the one
  shared guard behind every non-constant demography run.

Every sampler builder receives the *normalized* construction inputs

``engine_factory``
    Zero-argument callable returning a fresh
    :class:`~repro.likelihood.engines.LikelihoodEngine`.  Samplers that hold
    a single engine call it once; the multi-chain baseline calls it once per
    chain so each chain keeps its own work counters.
``theta``
    Driving θ (for the Bayesian sampler: the initial θ of the joint chain).
``config``
    A :class:`~repro.core.config.SamplerConfig` of chain lengths.
``**options``
    Per-sampler keyword options (``n_chains``, ``temperatures``,
    ``prior_shape``, …) — exactly the dictionary that
    :class:`~repro.core.config.MPCGSConfig` carries as ``sampler_options``,
    which is what makes a whole experiment serializable.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..baselines.heated import HeatedChainSampler, default_temperatures
from ..baselines.lamarc import LamarcSampler
from ..baselines.multichain import MultiChainSampler
from ..demography.registry import available_demographies
from ..diagnostics.traces import ChainResult
from ..genealogy.tree import Genealogy
from ..likelihood.engines import _ENGINES, LikelihoodEngine
from ..likelihood.engines import make_engine as _make_engine
from ..likelihood.mutation_models import MODEL_NAMES, MutationModel
from ..likelihood.mutation_models import make_model as _make_model
from .bayesian import BayesianResult, BayesianSampler, ThetaPrior
from .config import SamplerConfig
from .registry_base import Registry
from .sampler import MultiProposalSampler

__all__ = [
    "Sampler",
    "EngineFactory",
    "Registry",
    "SAMPLERS",
    "ENGINES",
    "MODELS",
    "BayesianSamplerAdapter",
    "make_sampler",
    "register_sampler",
    "make_engine",
    "make_model",
    "available_samplers",
    "available_engines",
    "available_models",
    "available_demographies",
    "demography_capable_samplers",
    "require_demography_support",
]


@runtime_checkable
class Sampler(Protocol):
    """What every genealogy sampler looks like to the drivers and the CLI."""

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        """Run the chain from ``initial_tree`` and return the recorded samples."""
        ...


EngineFactory = Callable[[], LikelihoodEngine]


# ---------------------------------------------------------------------------
# Sampler registry
# ---------------------------------------------------------------------------

SAMPLERS = Registry("sampler")


class BayesianSamplerAdapter:
    """Present :class:`~repro.core.bayesian.BayesianSampler` as a :class:`Sampler`.

    The Bayesian sampler natively returns a
    :class:`~repro.core.bayesian.BayesianResult`; this adapter runs it and
    returns the underlying :class:`~repro.diagnostics.traces.ChainResult`
    with the posterior summaries folded into ``extras`` (``theta_samples``,
    ``posterior_mean``, ``posterior_median``, ``credible_90``).  The full
    posterior object from the most recent run stays available as
    :attr:`last_posterior` for callers (the :mod:`repro.api` facade) that
    want credible intervals at other masses.
    """

    def __init__(
        self,
        engine: LikelihoodEngine,
        theta: float,
        config: SamplerConfig | None = None,
        *,
        prior_shape: float = 0.0,
        prior_scale: float = 0.0,
    ) -> None:
        self.sampler = BayesianSampler(
            engine,
            prior=ThetaPrior(shape=prior_shape, scale=prior_scale),
            config=config,
            initial_theta=theta,
        )
        self.last_posterior: BayesianResult | None = None

    def run(self, initial_tree: Genealogy, rng: np.random.Generator) -> ChainResult:
        posterior = self.sampler.run(initial_tree, rng)
        self.last_posterior = posterior
        chain = posterior.chain
        lo, hi = posterior.credible_interval(0.90)
        chain.extras.update(
            theta_samples=posterior.theta_samples,
            posterior_mean=posterior.posterior_mean(),
            posterior_median=posterior.posterior_median(),
            credible_90=(lo, hi),
        )
        return chain


def _build_gmh(
    engine_factory: EngineFactory, theta: float, config: SamplerConfig | None, **options
) -> MultiProposalSampler:
    return MultiProposalSampler(engine=engine_factory(), theta=theta, config=config, **options)


def _build_lamarc(
    engine_factory: EngineFactory, theta: float, config: SamplerConfig | None, **options
) -> LamarcSampler:
    return LamarcSampler(engine=engine_factory(), theta=theta, config=config, **options)


def _build_multichain(
    engine_factory: EngineFactory,
    theta: float,
    config: SamplerConfig | None,
    *,
    n_chains: int = 4,
    **options,
) -> MultiChainSampler:
    return MultiChainSampler(
        engine_factory=engine_factory,
        theta=theta,
        n_chains=n_chains,
        config=config or SamplerConfig(),
        **options,
    )


def _build_heated(
    engine_factory: EngineFactory,
    theta: float,
    config: SamplerConfig | None,
    *,
    n_chains: int | None = None,
    temperatures: tuple[float, ...] | list[float] | None = None,
    **options,
) -> HeatedChainSampler:
    if temperatures is None and n_chains is not None:
        temperatures = default_temperatures(n_chains)
    elif temperatures is not None:
        temperatures = tuple(temperatures)
        if n_chains is not None and len(temperatures) != n_chains:
            raise ValueError(
                f"heated sampler got n_chains={n_chains} but {len(temperatures)} "
                "temperatures; pass one of them, or a matching pair"
            )
    return HeatedChainSampler(
        engine=engine_factory(), theta=theta, temperatures=temperatures, config=config, **options
    )


def _build_bayesian(
    engine_factory: EngineFactory, theta: float, config: SamplerConfig | None, **options
) -> BayesianSamplerAdapter:
    return BayesianSamplerAdapter(engine_factory(), theta=theta, config=config, **options)


SAMPLERS.register(
    "gmh",
    _build_gmh,
    description="multi-proposal Generalized Metropolis-Hastings chain (the paper's sampler)",
    metadata={"supports_demography": True},
)
SAMPLERS.register(
    "lamarc",
    _build_lamarc,
    description="single-proposal Metropolis-Hastings baseline (Kuhner et al. 1995)",
    metadata={"supports_demography": True},
)
SAMPLERS.register(
    "multichain",
    _build_multichain,
    description=(
        "P independent chains with pooled samples (Fig. 6 baseline); "
        "options n_chains, n_workers (process-parallel execution), "
        "mode ('process' or 'stacked' lock-step batched execution)"
    ),
    metadata={"supports_demography": False},
)
SAMPLERS.register(
    "heated",
    _build_heated,
    description="Metropolis-coupled MC3 heated chains; options n_chains/temperatures/swap_interval",
    metadata={"supports_demography": True},
)
SAMPLERS.register(
    "bayesian",
    _build_bayesian,
    description="joint (genealogy, theta) sampler: GMH moves + conjugate Gibbs theta draws",
    metadata={"supports_demography": False},
)


def demography_capable_samplers() -> tuple[str, ...]:
    """Registered samplers whose builders can target a non-constant demography."""
    return tuple(
        name
        for name in SAMPLERS.names()
        if SAMPLERS.metadata(name).get("supports_demography", False)
    )


def require_demography_support(config) -> None:
    """The single capability check behind every non-constant demography run.

    Looks up the ``supports_demography`` flag on the sampler's registry
    entry, so a custom sampler registered with
    ``register_sampler(..., metadata={"supports_demography": True})`` is
    accepted everywhere (library, :mod:`repro.api`, and CLI) without
    touching any of them.  Raises :class:`ValueError` with one shared
    message for every incapable sampler, the Bayesian one included.
    """
    if config.demography == "constant":
        return
    if SAMPLERS.metadata(config.sampler_name).get("supports_demography", False):
        return
    capable = ", ".join(demography_capable_samplers())
    raise ValueError(
        f"sampler {config.sampler_name!r} does not support "
        f"demography={config.demography!r}; choose a growth-aware "
        f"(demography-capable) sampler ({capable}) — e.g. "
        f"`mpcgs run --demography {config.demography}`"
    )


def register_sampler(
    name: str,
    builder: Callable | None = None,
    *,
    description: str = "",
    metadata: dict | None = None,
) -> Callable:
    """Register a sampler builder under ``name`` (usable as a decorator).

    The builder must accept ``(engine_factory, theta, config, **options)``
    and return an object satisfying the :class:`Sampler` protocol.  Pass
    ``metadata={"supports_demography": True}`` if the builder accepts a
    ``demography=`` option and targets the corresponding posterior; the
    drivers consult this flag before handing a non-constant demography to
    the sampler.
    """
    return SAMPLERS.register(name, builder, description=description, metadata=metadata)


def make_sampler(
    name: str,
    *,
    engine: LikelihoodEngine | None = None,
    engine_factory: EngineFactory | None = None,
    theta: float = 1.0,
    config: SamplerConfig | None = None,
    **options,
) -> Sampler:
    """Construct any registered sampler from normalized keyword arguments.

    Exactly one of ``engine`` (a ready-made engine, reused by every chain)
    or ``engine_factory`` (a zero-argument callable producing a fresh engine
    per chain — required for honest per-chain work counters in the
    multi-chain baseline) must be provided.
    """
    if (engine is None) == (engine_factory is None):
        raise ValueError("provide exactly one of engine= or engine_factory=")
    if engine_factory is None:
        def engine_factory() -> LikelihoodEngine:  # noqa: F811 - deliberate rebind
            return engine
    return SAMPLERS.create(name, engine_factory, theta, config, **options)


# ---------------------------------------------------------------------------
# Engine and model registries (mirrors of the existing factories)
# ---------------------------------------------------------------------------

def _first_doc_line(cls) -> str:
    lines = (cls.__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


ENGINES = Registry("engine")
for _name, _cls in _ENGINES.items():
    ENGINES.register(
        _name,
        (lambda cls: lambda alignment, model, **kw: cls(alignment=alignment, model=model, **kw))(_cls),
        description=_first_doc_line(_cls),
    )

MODELS = Registry("mutation model")
for _name, _cls in MODEL_NAMES.items():
    MODELS.register(
        _name,
        (lambda n: lambda **kw: _make_model(n, **kw))(_name),
        description=_first_doc_line(_cls),
    )


def make_engine(
    name: str, alignment, model: MutationModel, backend: str = "numpy"
) -> LikelihoodEngine:
    """Construct a likelihood engine by registry name (with unknown-name listing).

    ``backend`` must be ``"numpy"``, the only array library the likelihood
    kernels run on; any other value raises ``ValueError``.
    """
    ENGINES.get(name)  # uniform error message listing valid names
    if str(backend).lower() != "numpy":
        raise ValueError(f"unknown backend {backend!r}; the likelihood kernels run on numpy only")
    return _make_engine(name, alignment, model)


def make_model(name: str, base_frequencies=None, **kwargs) -> MutationModel:
    """Construct a mutation model by registry name (with unknown-name listing)."""
    MODELS.get(name)
    return _make_model(name, base_frequencies=base_frequencies, **kwargs)


def available_samplers() -> dict[str, str]:
    """Registered sampler names with one-line descriptions."""
    return SAMPLERS.describe()


def available_engines() -> dict[str, str]:
    """Registered engine names with one-line descriptions."""
    return ENGINES.describe()


def available_models() -> dict[str, str]:
    """Registered mutation-model names with one-line descriptions."""
    return MODELS.describe()
