"""Run configuration for the multi-proposal coalescent genealogy sampler.

Collects every tunable of the program flow in Fig. 11 — proposal-set size,
burn-in length, samples per EM iteration, number of EM iterations, and the
likelihood/maximization knobs — in one validated dataclass so drivers,
benchmarks, and the CLI share a single source of truth.

Every config is fully serializable: ``to_dict``/``from_dict`` round-trip
losslessly and ``MPCGSConfig.to_json``/``from_json`` make a whole experiment
one portable document, which is what the ``--config spec.json`` path of the
CLI and the :mod:`repro.api` facade consume.  The JSON document uses the key
``"sampler"`` for the sampler *name* (mirroring how LAMARC's menu selects a
strategy by name) and ``"chain"`` for the chain-length block.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Mapping

from ..demography import (
    DEMOGRAPHY_ALIASES,
    Demography,
    demography_class,
    make_demography,
)
from ..demography.registry import DEMOGRAPHIES as _DEMOGRAPHY_REGISTRY

__all__ = [
    "SamplerConfig",
    "EstimatorConfig",
    "MPCGSConfig",
    "DEFAULT_SAMPLER",
    "DEFAULT_ENGINE",
    "DEMOGRAPHIES",
    "MULTICHAIN_MODES",
]

DEFAULT_SAMPLER = "gmh"

#: The likelihood engine a config runs on unless it names another: the
#: sparse dirty-path kernel stacked across the whole proposal set.
DEFAULT_ENGINE = "fused"

#: Execution modes of the multichain baseline sampler: ``"process"`` runs
#: the chains on OS processes (``n_workers`` of them), ``"stacked"`` runs
#: them lock-step through one shared batching engine
#: (:class:`repro.parallel.stacked.StackedMultiChain`).  Both modes pool
#: bit-identical traces; only the execution shape differs.  Defined here —
#: not in the sampler module — so the CLI and the experiment service can
#: validate a mode name without importing sampler machinery.
MULTICHAIN_MODES = ("process", "stacked")


def _demography_names() -> tuple[str, ...]:
    """Every name a config's ``demography`` field accepts (registry + aliases)."""
    return tuple(sorted(set(_DEMOGRAPHY_REGISTRY.names()) | set(DEMOGRAPHY_ALIASES)))


#: Demographic models the EM driver can estimate under — every name in the
#: demography registry (:mod:`repro.demography.registry`) plus its aliases
#: ("growth" is the pre-registry spelling of "exponential").  Evaluated at
#: import time for CLI choices; custom models registered later are accepted
#: by the config validation regardless, which consults the live registry.
DEMOGRAPHIES = _demography_names()

#: Names whose initial growth rate may come from the legacy ``growth0`` field.
_GROWTH_NAMES = ("growth", "exponential")


def _canonical_value(value: Any) -> Any:
    """Reduce a config value to plain JSON types with sorted mapping keys.

    Serialization must be *canonical* so that content addressing (the
    experiment service keys its result store by a hash of this document)
    sees one byte stream per logical config: mapping keys are emitted in
    sorted order regardless of insertion history, tuples become lists, and
    numpy scalars collapse to their Python values (whose shortest-roundtrip
    ``repr`` is what ``json`` writes — deterministic for IEEE doubles).
    """
    if isinstance(value, Mapping):
        return {k: _canonical_value(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    item = getattr(value, "item", None)
    if callable(item) and not isinstance(value, (str, bytes, int, float, bool)):
        return _canonical_value(item())
    return value


def _check_known_keys(cls, data: Mapping[str, Any]) -> None:
    """Reject unknown keys so a typo in a spec file fails loudly, not silently."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys {unknown}; valid keys are {sorted(known)}"
        )


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration of one Markov chain run (burn-in + sampling).

    Attributes
    ----------
    n_proposals:
        Size N of each GMH proposal set (the paper's device-thread count per
        proposal kernel launch).  ``1`` reduces GMH to standard
        Metropolis-Hastings.
    samples_per_set:
        How many times the index variable I is sampled from each proposal
        set's stationary distribution before a new set is generated
        (Algorithm 1 samples N times; it may be any positive number).
    n_samples:
        Total number of genealogy samples to record after burn-in.
    burn_in:
        Number of genealogy samples to discard as burn-in before recording.
    thin:
        Keep one recorded sample every ``thin`` draws (1 = keep all).
    """

    n_proposals: int = 32
    samples_per_set: int | None = None
    n_samples: int = 400
    burn_in: int = 100
    thin: int = 1

    def __post_init__(self) -> None:
        if self.n_proposals < 1:
            raise ValueError("n_proposals must be at least 1")
        if self.samples_per_set is not None and self.samples_per_set < 1:
            raise ValueError("samples_per_set must be at least 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in cannot be negative")
        if self.thin < 1:
            raise ValueError("thin must be at least 1")

    @property
    def effective_samples_per_set(self) -> int:
        """Samples drawn per proposal set (defaults to the proposal count, as in Algorithm 1)."""
        return self.samples_per_set if self.samples_per_set is not None else self.n_proposals

    def scaled(self, **changes) -> "SamplerConfig":
        """Return a copy with the given fields replaced (convenience for sweeps)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe).

        The document carries the constant ``"batch_proposals": True``, the
        key that once selected the proposal-set kernel, so spec documents
        (and the experiment service's content hashes) stay as they were.
        """
        return {**asdict(self), "batch_proposals": True}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SamplerConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``.

        ``"batch_proposals"`` may be omitted or true.  False selected the
        per-proposal reference kernel, which is now a test oracle and no
        longer runs chains, so a document asking for it is rejected.
        """
        data = dict(data)
        if not data.pop("batch_proposals", True):
            raise ValueError(
                "batch_proposals=false selected the per-proposal reference kernel, "
                "which is now a test oracle (tests/reference_kernel.py); "
                "chains run on the proposal-set kernel only"
            )
        _check_known_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class EstimatorConfig:
    """Configuration of the likelihood-curve maximization (Algorithm 2).

    ``max_theta_step_factor`` and ``max_growth_step`` bound how far one
    joint (θ, g) maximization may move from the driving values — a trust
    region for the two-parameter surface, whose importance-sampled estimate
    degenerates far from the driving point (a handful of samples dominate
    the reweighting).  The EM loop re-drives every iteration, so the bounds
    limit one M-step, not the final estimate.  They do not affect the
    single-parameter :func:`~repro.core.estimator.maximize_theta` path.
    """

    gradient_delta: float = 1e-4
    convergence_tol: float = 1e-5
    max_iterations: int = 200
    max_step_halvings: int = 40
    max_theta_step_factor: float = 3.0
    max_growth_step: float = 3.0

    def __post_init__(self) -> None:
        if self.gradient_delta <= 0:
            raise ValueError("gradient_delta must be positive")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.max_step_halvings < 1:
            raise ValueError("max_step_halvings must be at least 1")
        if self.max_theta_step_factor <= 1:
            raise ValueError("max_theta_step_factor must be greater than 1")
        if self.max_growth_step <= 0:
            raise ValueError("max_growth_step must be positive")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EstimatorConfig":
        """Inverse of :meth:`to_dict`; unknown keys raise ``ValueError``."""
        _check_known_keys(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class MPCGSConfig:
    """Top-level configuration of the EM driver (Fig. 11 main loop).

    ``sampler`` holds the chain-length block (a :class:`SamplerConfig`);
    ``sampler_name`` selects which registered sampler runs the chain
    (``"gmh"`` is the paper's multi-proposal sampler, and any name from
    :func:`repro.core.registry.available_samplers` works), with
    ``sampler_options`` passed through to that sampler's builder.  As a
    convenience ``MPCGSConfig(sampler="lamarc")`` — a string instead of a
    ``SamplerConfig`` — is accepted and treated as ``sampler_name``.

    ``likelihood_engine`` names any engine from
    :func:`repro.core.registry.available_engines`; ``"fused"`` (the
    default) is the fastest GMH hot path (sparse dirty-path work, stacked
    across the whole proposal set), and ``"batched"`` is the paper's literal
    full-pruning kernel layout.  All engines compute the same likelihoods
    up to floating-point accumulation order: batched and fused differ in the
    last bits (up to ~1e-13), so a fixed-seed chain keeps its trajectory on
    either unless such a difference flips an accept decision.

    ``demography`` selects the coalescent prior the EM loop estimates under,
    by registry name (:func:`repro.demography.available_demographies`):
    ``"constant"`` (the paper's single-parameter θ workload, the default),
    ``"growth"``/``"exponential"`` (joint (θ, g) estimation under
    exponential growth, with ``growth0`` the initial driving rate), or any
    other registered model (``"bottleneck"``, ``"logistic"``, custom ones).
    ``demography_params`` holds the model's initial/driving parameter
    values (missing ones take the model's declared defaults); the
    structured spec form ``demography={"name": ..., "params": {...}}`` is
    accepted everywhere a name string is, including JSON documents.

    ``backend`` must be ``"numpy"``, the only array library the likelihood
    kernels run on; any other value is rejected.
    """

    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    n_em_iterations: int = 4
    theta_convergence_tol: float = 1e-3
    likelihood_engine: str = DEFAULT_ENGINE
    mutation_model: str = "F81"
    sampler_name: str = DEFAULT_SAMPLER
    sampler_options: dict = field(default_factory=dict)
    demography: str = "constant"
    growth0: float = 0.0
    demography_params: dict = field(default_factory=dict)
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if isinstance(self.sampler, str):
            # MPCGSConfig(sampler="lamarc") selects a sampler by name while
            # keeping default chain lengths.
            object.__setattr__(self, "sampler_name", self.sampler)
            object.__setattr__(self, "sampler", SamplerConfig())
        if self.n_em_iterations < 1:
            raise ValueError("n_em_iterations must be at least 1")
        if self.theta_convergence_tol <= 0:
            raise ValueError("theta_convergence_tol must be positive")
        if not self.sampler_name:
            raise ValueError("sampler_name must be a non-empty sampler name")
        # Registry keys are lowercase; canonicalize here so name comparisons
        # (e.g. the CLI's bayesian dispatch) cannot miss on case.
        object.__setattr__(self, "sampler_name", self.sampler_name.lower())
        if isinstance(self.demography, Mapping):
            # Structured spec {"name": ..., "params": {...}} — accepted both
            # from JSON documents and from the constructor.
            spec = dict(self.demography)
            name = spec.pop("name", None)
            params = spec.pop("params", {}) or {}
            if name is None or spec:
                raise ValueError(
                    "a structured demography must be {'name': ..., 'params': {...}}"
                )
            if self.demography_params:
                raise ValueError(
                    "give demography parameters either inside the structured "
                    "demography spec or as demography_params, not both"
                )
            object.__setattr__(self, "demography", str(name))
            object.__setattr__(self, "demography_params", dict(params))
        object.__setattr__(self, "demography", str(self.demography).lower())
        try:
            model_cls = demography_class(self.demography)
        except ValueError:
            raise ValueError(
                f"unknown demography {self.demography!r}; choose from {_demography_names()}"
            ) from None
        object.__setattr__(self, "growth0", float(self.growth0))
        if self.demography not in _GROWTH_NAMES and self.growth0 != 0.0:
            # A stray growth0 under the constant demography would otherwise
            # be silently ignored (and silently activate if demography is
            # later flipped); reject it wherever the config is built —
            # spec files, the library, and the CLI alike.
            raise ValueError(
                "growth0 is only meaningful with demography='growth'; "
                "set demography='growth' or drop growth0"
            )
        params = {str(k): float(v) for k, v in dict(self.demography_params).items()}
        object.__setattr__(self, "demography_params", params)
        if self.growth0 != 0.0 and "growth" in params:
            raise ValueError(
                "give the initial growth rate either as growth0 or as "
                "demography_params['growth'], not both"
            )
        valid = {spec.name for spec in model_cls.param_specs}
        unknown = sorted(set(params) - valid)
        if unknown:
            raise ValueError(
                f"unknown {self.demography} demography parameter(s) {unknown}; "
                f"valid parameters are {sorted(valid)}"
            )
        object.__setattr__(self, "backend", str(self.backend).lower())
        if self.backend != "numpy":
            raise ValueError(
                f"unknown backend {self.backend!r}; the likelihood kernels run on numpy only"
            )

    def demography_model(self) -> Demography:
        """Build the configured :class:`~repro.demography.base.Demography`.

        Merges the model's declared defaults with ``demography_params`` and
        the legacy ``growth0`` field (which seeds the exponential model's
        ``growth`` parameter when the name is ``"growth"``/``"exponential"``).
        """
        params = dict(self.demography_params)
        if self.demography in _GROWTH_NAMES:
            params.setdefault("growth", self.growth0)
        return make_demography(self.demography, params)

    def with_sampler(self, name: str, **options) -> "MPCGSConfig":
        """Copy of this config selecting a different sampler (and its options).

        Passing any keyword options replaces ``sampler_options`` wholesale.
        Passing none keeps the current options only when ``name`` is the
        current sampler; switching samplers drops them, because options are
        per-sampler (a leftover ``n_chains`` would crash the gmh builder).
        """
        if options:
            new_options = dict(options)
        elif name.lower() == self.sampler_name:
            new_options = dict(self.sampler_options)
        else:
            new_options = {}
        return replace(self, sampler_name=name, sampler_options=new_options)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict: ``"sampler"`` is the sampler *name*, ``"chain"`` the lengths.

        The document is canonical — nested option mappings are emitted with
        sorted keys and values reduced to plain Python types — so two
        logically-equal configs serialize to byte-identical JSON regardless
        of how their option dicts were built.  That stability is what the
        experiment service's content hash (and with it the result-store
        dedup) rests on.

        ``"backend"`` is never emitted (it can only be ``"numpy"``), so a
        document that names it hashes as one that does not.
        ``"likelihood_engine"`` is emitted only when it is not
        :data:`DEFAULT_ENGINE`: a document written when ``batched`` was the
        default names it explicitly, so it still loads as ``batched`` and
        keeps its content hash; a config left at the ``fused`` default
        hashes without the key.
        """
        doc = {
            "sampler": self.sampler_name,
            "sampler_options": _canonical_value(self.sampler_options),
            "chain": self.sampler.to_dict(),
            "estimator": self.estimator.to_dict(),
            "n_em_iterations": self.n_em_iterations,
            "theta_convergence_tol": self.theta_convergence_tol,
            "mutation_model": self.mutation_model,
            "demography": self.demography,
            "growth0": self.growth0,
            "demography_params": _canonical_value(self.demography_params),
        }
        if self.likelihood_engine != DEFAULT_ENGINE:
            doc["likelihood_engine"] = self.likelihood_engine
        return doc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MPCGSConfig":
        """Inverse of :meth:`to_dict`.

        Accepts both the serialized layout (``"sampler"`` a name string and
        ``"chain"`` the length block) and the constructor layout
        (``"sampler"`` a nested ``SamplerConfig`` dict, ``"sampler_name"`` a
        string), so hand-written and machine-written specs both load.
        """
        data = dict(data)
        kwargs: dict[str, Any] = {}

        sampler_value = data.pop("sampler", None)
        if isinstance(sampler_value, str):
            kwargs["sampler_name"] = sampler_value
        elif isinstance(sampler_value, Mapping):
            kwargs["sampler"] = SamplerConfig.from_dict(sampler_value)
        elif sampler_value is not None:
            raise ValueError("'sampler' must be a sampler name or a chain-config mapping")

        if "chain" in data:
            kwargs["sampler"] = SamplerConfig.from_dict(data.pop("chain"))
        if "sampler_name" in data:
            kwargs["sampler_name"] = data.pop("sampler_name")
        if "sampler_options" in data:
            kwargs["sampler_options"] = dict(data.pop("sampler_options"))
        if "estimator" in data:
            kwargs["estimator"] = EstimatorConfig.from_dict(data.pop("estimator"))

        _check_known_keys(cls, data)
        kwargs.update(data)
        return cls(**kwargs)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON document (the CLI's ``--config`` format).

        Keys are sorted so the document, like :meth:`to_dict`, is
        key-order-deterministic.
        """
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MPCGSConfig":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a config document must be a JSON object")
        return cls.from_dict(data)
