"""High-level experiment facade: one call from sequence data to a θ estimate.

This is the package's front door.  It composes the layers the way the
proof-of-concept program of Fig. 11 does — read sequences, build the
mutation model and likelihood engine, seed a UPGMA genealogy, run a sampler,
maximize the likelihood curve — but behind a single, serializable surface:

* :class:`RunSpec` — a portable JSON document naming the data file, the
  initial θ, the seed, and a full :class:`~repro.core.config.MPCGSConfig`
  (which itself names the sampler, engine, and mutation model), so a whole
  experiment can be shipped, archived, and replayed;
* :class:`Experiment` / :func:`run_experiment` — build everything from a
  spec (or from in-memory objects) and run it, returning a structured
  :class:`RunReport`;
* :class:`RunReport` — the θ estimate, the EM trajectory, work counters, and
  per-iteration diagnostics, with a JSON-safe ``to_dict``.

Maximum-likelihood estimation (every sampler that emits a plain
:class:`~repro.diagnostics.traces.ChainResult`) runs through the
:class:`~repro.core.mpcgs.MPCGS` EM driver; the ``"bayesian"`` sampler has
no maximization stage, so the facade runs the joint (G, θ) chain once and
reports posterior summaries instead.  With the default config and seed the
facade reproduces ``MPCGS(...).run(...)`` bit-for-bit.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .core.bayesian import BayesianResult
from .core.config import MPCGSConfig
from .core.mpcgs import MPCGS, MPCGSResult, MultiLocusResult, run_multilocus
from .core.registry import (
    SAMPLERS,
    make_engine,
    make_model,
    make_sampler,
    require_demography_support,
)
from .genealogy.upgma import upgma_tree
from .sequences.alignment import Alignment
from .sequences.phylip import read_phylip
from .service.hashing import content_hash as _content_hash
from .service.hashing import digest_file, digest_files

__all__ = ["RunSpec", "RunReport", "Experiment", "run_experiment"]


@dataclass(frozen=True)
class RunSpec:
    """A complete, portable description of one experiment.

    ``sequence_file`` may be ``None`` when the alignment is supplied
    in-memory (the spec then documents everything but the data).
    ``sequence_files`` names several unlinked loci sharing one demography —
    the multi-locus workload of :func:`repro.core.mpcgs.run_multilocus`
    (mutually exclusive with ``sequence_file``).  ``theta0`` defaults to
    the Watterson moment estimate of the alignment at run time; ``seed`` of
    ``None`` means OS entropy (a non-reproducible run).
    """

    config: MPCGSConfig = field(default_factory=MPCGSConfig)
    sequence_file: str | None = None
    theta0: float | None = None
    seed: int | None = None
    sequence_files: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.theta0 is not None and self.theta0 <= 0:
            raise ValueError("theta0 must be positive")
        if self.sequence_files is not None:
            object.__setattr__(
                self, "sequence_files", tuple(str(p) for p in self.sequence_files)
            )
            if not self.sequence_files:
                raise ValueError("sequence_files must name at least one locus")
            if self.sequence_file is not None:
                raise ValueError("give sequence_file or sequence_files, not both")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict with the config nested under ``"config"``."""
        out: dict[str, Any] = {
            "sequence_file": self.sequence_file,
            "theta0": self.theta0,
            "seed": self.seed,
            "config": self.config.to_dict(),
        }
        if self.sequence_files is not None:
            out["sequence_files"] = list(self.sequence_files)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_dict`.

        Also accepts a *flat* document: any keys beyond
        ``sequence_file``/``sequence_files``/``theta0``/``seed`` are
        interpreted as the config block, so a bare
        :meth:`MPCGSConfig.to_dict` document is a valid spec too.
        """
        data = dict(data)
        sequence_file = data.pop("sequence_file", None)
        sequence_files = data.pop("sequence_files", None)
        theta0 = data.pop("theta0", None)
        seed = data.pop("seed", None)
        if "config" in data:
            config_data = data.pop("config")
            if data:
                raise ValueError(f"unknown RunSpec keys {sorted(data)}")
            config = MPCGSConfig.from_dict(config_data)
        elif data:
            config = MPCGSConfig.from_dict(data)
        else:
            config = MPCGSConfig()
        return cls(
            config=config,
            sequence_file=sequence_file,
            theta0=theta0,
            seed=seed,
            sequence_files=tuple(sequence_files) if sequence_files is not None else None,
        )

    def data_digest(self) -> str | None:
        """SHA-256 digest of the named sequence data *bytes*.

        ``None`` when the spec names no files (in-memory data).  Hashing the
        bytes rather than the paths means a renamed or relocated copy of the
        same alignment still content-addresses to the same experiment.
        """
        if self.sequence_files is not None:
            return digest_files(self.sequence_files)
        if self.sequence_file is not None:
            return digest_file(self.sequence_file)
        return None

    def content_hash(self, *, data_digest: str | None = None) -> str:
        """Canonical content address of this experiment.

        SHA-256 over the canonical (sorted-key, shortest-float-repr) JSON of
        the full config, θ₀, the seed, and the digest of the data bytes —
        everything the result is a deterministic function of, and nothing
        it is not (file *paths* are excluded).  Two specs hash equal exactly
        when rerunning one would reproduce the other, which is what lets the
        result store return a cached report instead of recomputing.

        ``data_digest`` short-circuits the file read for callers that have
        already digested the data (or hold it in memory with no file to
        digest).  A spec with ``seed=None`` draws OS entropy — the hash
        still includes the ``None``, so such specs dedupe against each
        other by design (the spec document is the identity, not the draw).
        """
        digest = data_digest if data_digest is not None else self.data_digest()
        return _content_hash(
            {
                "config": self.config.to_dict(),
                "theta0": self.theta0,
                "seed": self.seed,
                "data": digest,
                "multilocus": self.sequence_files is not None,
            }
        )

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize to a JSON document (the CLI's ``--config`` format)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a run spec must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: str | Path) -> None:
        """Write the spec to ``path`` as JSON."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "RunSpec":
        """Read a spec (or a bare config document) from a JSON file."""
        return cls.from_json(Path(path).read_text())


@dataclass
class RunReport:
    """Structured outcome of one experiment.

    ``result`` keeps the underlying driver object
    (:class:`~repro.core.mpcgs.MPCGSResult` for maximum-likelihood runs,
    :class:`~repro.core.bayesian.BayesianResult` for Bayesian runs) for
    callers that need raw traces; everything else is JSON-safe via
    :meth:`to_dict`.
    """

    sampler: str
    theta: float
    theta_trajectory: np.ndarray
    theta0: float
    seed: int | None
    config: MPCGSConfig
    n_samples: int
    n_likelihood_evaluations: int
    wall_time_seconds: float
    diagnostics: dict[str, Any] = field(default_factory=dict)
    result: MPCGSResult | MultiLocusResult | BayesianResult | None = None
    growth: float | None = None
    demography_params: dict[str, float] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (drops the raw ``result`` object)."""
        return {
            "sampler": self.sampler,
            "theta": self.theta,
            "theta_trajectory": [float(x) for x in np.asarray(self.theta_trajectory)],
            "theta0": self.theta0,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "n_samples": self.n_samples,
            "n_likelihood_evaluations": self.n_likelihood_evaluations,
            "wall_time_seconds": self.wall_time_seconds,
            "growth": self.growth,
            "demography_params": _json_safe(self.demography_params),
            "diagnostics": _json_safe(self.diagnostics),
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        """Serialize the summary to JSON (the CLI's ``--json`` output)."""
        return json.dumps(self.to_dict(), indent=indent)


def _json_safe(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _coerce_alignment(data: Alignment | str | Path | Any) -> Alignment:
    """Accept an Alignment, a PHYLIP path, or anything with an ``alignment`` attribute."""
    if isinstance(data, Alignment):
        return data
    if isinstance(data, (str, Path)):
        return read_phylip(str(data))
    alignment = getattr(data, "alignment", None)
    if isinstance(alignment, Alignment):
        return alignment
    raise TypeError(
        "data must be an Alignment, a PHYLIP file path, or an object with an "
        f".alignment attribute; got {type(data).__name__}"
    )


class Experiment:
    """A fully-composed run: data + config + starting point + seed.

    Parameters
    ----------
    data:
        An :class:`~repro.sequences.alignment.Alignment`, a PHYLIP file
        path, or an object exposing an ``alignment`` attribute (e.g. a
        :class:`~repro.simulate.datasets.SyntheticDataset`).
    config:
        The run configuration; defaults to :class:`MPCGSConfig` (the
        paper's multi-proposal sampler with the fused engine).
    theta0:
        Initial driving θ; defaults to the alignment's Watterson estimate.
    seed:
        Seed for the run's random generator (``None`` = OS entropy).
    """

    def __init__(
        self,
        data: Alignment | str | Path | Any,
        config: MPCGSConfig | None = None,
        *,
        theta0: float | None = None,
        seed: int | None = None,
    ) -> None:
        self.loci: list[Alignment] | None = None
        self.source_files: tuple[str, ...] | None = None
        if isinstance(data, (list, tuple)):
            # Several unlinked loci sharing one demography (the multi-locus
            # workload); a single-element list still runs the multi-locus
            # driver so specs behave uniformly.
            self.loci = [_coerce_alignment(item) for item in data]
            if not self.loci:
                raise ValueError("need at least one locus alignment")
            if all(isinstance(item, (str, Path)) for item in data):
                # Remember the paths so spec() round-trips the experiment.
                self.source_files = tuple(str(item) for item in data)
            self.alignment = self.loci[0]
        else:
            self.alignment = _coerce_alignment(data)
        self.config = config if config is not None else MPCGSConfig()
        SAMPLERS.get(self.config.sampler_name)  # fail fast on unknown samplers
        self.config.demography_model()  # fail fast on bad demography params
        # Fail fast at construction (MPCGS.run re-validates for direct
        # library callers): an incapable sampler — the Bayesian one
        # included — would otherwise only fail deep inside the run, or
        # silently ignore the demography.  One shared registry check covers
        # the library, this facade, and the CLI.
        require_demography_support(self.config)
        if self.loci is not None and self.config.sampler_name.lower() == "bayesian":
            raise ValueError(
                "the bayesian sampler estimates a single-locus posterior; "
                "multi-locus runs need an EM sampler (mpcgs run --loci ...)"
            )
        if theta0 is None:
            if self.loci is not None:
                # One shared θ across loci: the mean Watterson estimate.
                theta0 = float(
                    np.mean([locus.watterson_theta() for locus in self.loci])
                )
            else:
                theta0 = float(self.alignment.watterson_theta())
        if theta0 <= 0:
            raise ValueError("theta0 must be positive")
        self.theta0 = float(theta0)
        self.seed = seed

    @classmethod
    def from_spec(
        cls,
        spec: RunSpec | Mapping[str, Any] | str | Path,
        *,
        data: Alignment | str | Path | Any | None = None,
    ) -> "Experiment":
        """Build an experiment from a spec document, dict, or file path.

        ``data`` overrides the spec's ``sequence_file`` (useful for running
        one spec against many datasets).
        """
        if isinstance(spec, (str, Path)):
            spec = RunSpec.load(spec)
        elif isinstance(spec, Mapping):
            spec = RunSpec.from_dict(spec)
        if data is None:
            if spec.sequence_files is not None:
                data = list(spec.sequence_files)
            elif spec.sequence_file is not None:
                data = spec.sequence_file
            else:
                raise ValueError("the spec names no sequence_file; pass data= explicitly")
        return cls(data, spec.config, theta0=spec.theta0, seed=spec.seed)

    def spec(
        self,
        sequence_file: str | None = None,
        sequence_files: tuple[str, ...] | list[str] | None = None,
    ) -> RunSpec:
        """The portable :class:`RunSpec` describing this experiment.

        A multi-locus experiment built from file paths remembers them, so
        its spec round-trips through :meth:`from_spec` without re-naming
        the loci; pass ``sequence_files`` explicitly to override (e.g.
        when the loci were supplied as in-memory alignments).
        """
        if sequence_files is None and sequence_file is None and self.loci is not None:
            sequence_files = self.source_files
        if sequence_file is not None and self.loci is not None:
            raise ValueError(
                "this is a multi-locus experiment; name its data via sequence_files"
            )
        return RunSpec(
            config=self.config,
            sequence_file=sequence_file,
            theta0=self.theta0,
            seed=self.seed,
            sequence_files=tuple(sequence_files) if sequence_files is not None else None,
        )

    @property
    def supports_checkpointing(self) -> bool:
        """True when this experiment runs the checkpointable single-locus EM path.

        The multi-locus and Bayesian paths have no per-iteration resume
        point yet; passing checkpoint arguments to them is an error rather
        than a silent full re-run.
        """
        return self.loci is None and self.config.sampler_name.lower() != "bayesian"

    def run(
        self,
        rng: np.random.Generator | None = None,
        *,
        on_event=None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 1,
        resume_from=None,
    ) -> RunReport:
        """Execute the experiment and return a :class:`RunReport`.

        A caller-supplied ``rng`` overrides the spec's seed (the CLI and the
        reproducibility tests always go through the seed).

        ``on_event``/``checkpoint_path``/``checkpoint_every``/``resume_from``
        stream per-iteration :class:`~repro.service.events.Event` objects
        and cut resumable EM checkpoints on the single-locus
        maximum-likelihood path (see :meth:`repro.core.mpcgs.MPCGS.run`).
        Checkpoint arguments on a non-checkpointable experiment
        (:attr:`supports_checkpointing` is False) raise rather than silently
        recomputing from scratch; ``on_event`` is simply unused there (those
        paths emit no EM iteration events).
        """
        if rng is None:
            rng = np.random.default_rng(self.seed)
        if not self.supports_checkpointing and (
            checkpoint_path is not None or resume_from is not None
        ):
            raise ValueError(
                "checkpoint/resume is only supported on the single-locus "
                "maximum-likelihood path (not multi-locus or bayesian runs)"
            )
        if self.loci is not None:
            return self._run_multilocus(rng)
        if self.config.sampler_name.lower() == "bayesian":
            return self._run_bayesian(rng)
        return self._run_ml(
            rng,
            on_event=on_event,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
        )

    def _run_ml(
        self,
        rng: np.random.Generator,
        *,
        on_event=None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int = 1,
        resume_from=None,
    ) -> RunReport:
        """Maximum-likelihood path: the EM driver over any ChainResult sampler.

        Covers both demographies: under ``demography="growth"`` each EM
        iteration's estimate carries a growth rate alongside θ and the
        report's ``growth``/``growth_trajectory`` fields are populated.
        """
        cfg = self.config
        driver = MPCGS(self.alignment, cfg)
        result = driver.run(
            theta0=self.theta0,
            rng=rng,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            on_event=on_event,
            resume_from=resume_from,
        )
        growth_run = result.growth is not None
        demography_run = result.demography_params is not None
        iterations = [
            {
                "iteration": it.iteration,
                "driving_theta": it.driving_theta,
                "estimate": it.estimate.theta,
                "converged": it.estimate.converged,
                "acceptance_rate": it.chain.acceptance_rate,
                "n_samples": it.chain.n_samples,
                "n_likelihood_evaluations": it.chain.n_likelihood_evaluations,
                "wall_time_seconds": it.chain.wall_time_seconds,
                **(
                    {
                        "driving_growth": it.driving_growth,
                        "growth_estimate": it.estimate.growth,
                    }
                    if growth_run
                    else {}
                ),
                **(
                    {
                        "driving_params": it.driving_params,
                        "params_estimate": dict(
                            zip(it.driving_params, it.estimate.params)
                        ),
                    }
                    if demography_run and it.driving_params is not None
                    else {}
                ),
            }
            for it in result.iterations
        ]
        diagnostics = {
            "mode": "maximum_likelihood",
            "demography": cfg.demography,
            "n_em_iterations": len(result.iterations),
            "iterations": iterations,
        }
        if growth_run:
            diagnostics["growth_trajectory"] = result.growth_trajectory
        if demography_run:
            diagnostics["demography_params"] = result.demography_params
        return RunReport(
            sampler=cfg.sampler_name,
            theta=result.theta,
            theta_trajectory=result.theta_trajectory,
            theta0=self.theta0,
            seed=self.seed,
            config=cfg,
            n_samples=result.total_samples,
            n_likelihood_evaluations=result.total_likelihood_evaluations,
            wall_time_seconds=result.wall_time_seconds,
            diagnostics=diagnostics,
            result=result,
            growth=result.growth,
            demography_params=result.demography_params,
        )

    def _run_multilocus(self, rng: np.random.Generator) -> RunReport:
        """Multi-locus path: per-locus chains, one shared demography estimate."""
        cfg = self.config
        start = time.perf_counter()
        result = run_multilocus(self.loci, cfg, theta0=self.theta0, rng=rng)
        elapsed = time.perf_counter() - start
        diagnostics = {
            "mode": "multilocus",
            "demography": cfg.demography,
            "n_loci": result.n_loci,
            "n_em_iterations": result.n_iterations,
            "trajectory": [list(point) for point in result.trajectory],
            "demography_params": dict(result.params),
        }
        return RunReport(
            sampler=cfg.sampler_name,
            theta=result.theta,
            theta_trajectory=np.asarray([point[0] for point in result.trajectory]),
            theta0=self.theta0,
            seed=self.seed,
            config=cfg,
            n_samples=result.total_samples,
            n_likelihood_evaluations=result.total_likelihood_evaluations,
            wall_time_seconds=elapsed,
            diagnostics=diagnostics,
            result=result,
            growth=result.growth,
            demography_params=dict(result.params) if result.params else None,
        )

    def _run_bayesian(self, rng: np.random.Generator) -> RunReport:
        """Bayesian path: one joint (G, θ) chain, posterior summaries, no EM."""
        cfg = self.config
        base_freqs = self.alignment.base_frequencies(pseudocount=1.0)
        model = make_model(cfg.mutation_model, base_frequencies=base_freqs)
        engine = make_engine(cfg.likelihood_engine, self.alignment, model)
        adapter = make_sampler(
            "bayesian",
            engine=engine,
            theta=self.theta0,
            config=cfg.sampler,
            **cfg.sampler_options,
        )
        tree = upgma_tree(self.alignment, driving_theta=self.theta0)
        chain = adapter.run(tree, rng)
        posterior: BayesianResult = adapter.last_posterior
        lo, hi = posterior.credible_interval(0.95)
        return RunReport(
            sampler=cfg.sampler_name,
            theta=posterior.posterior_mean(),
            theta_trajectory=np.asarray(posterior.theta_samples),
            theta0=self.theta0,
            seed=self.seed,
            config=cfg,
            n_samples=chain.n_samples,
            n_likelihood_evaluations=chain.n_likelihood_evaluations,
            wall_time_seconds=chain.wall_time_seconds,
            diagnostics={
                "mode": "bayesian",
                "posterior_mean": posterior.posterior_mean(),
                "posterior_median": posterior.posterior_median(),
                "credible_95": (lo, hi),
                "acceptance_rate": chain.acceptance_rate,
            },
            result=posterior,
        )


def run_experiment(
    data: Alignment | str | Path | Any,
    config: MPCGSConfig | None = None,
    *,
    theta0: float | None = None,
    seed: int | None = None,
    sampler: str | None = None,
    **sampler_options,
) -> RunReport:
    """One-call façade: compose reader → model → engine → sampler → estimator.

    ``sampler`` (plus any ``**sampler_options``) overrides the config's
    sampler selection, so ``run_experiment(aln, sampler="multichain",
    n_chains=8)`` needs no config surgery.  Everything else follows
    :class:`Experiment`.
    """
    if config is None:
        config = MPCGSConfig()
    if sampler is not None:
        config = config.with_sampler(sampler, **sampler_options)
    elif sampler_options:
        config = config.with_sampler(config.sampler_name, **sampler_options)
    return Experiment(data, config, theta0=theta0, seed=seed).run()
