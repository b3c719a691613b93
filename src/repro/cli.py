"""Command-line interface: ``mpcgs <subcommand>``.

The CLI is a thin shell over the :mod:`repro.api` facade and the sampler /
engine / model registries of :mod:`repro.core.registry`:

``mpcgs run``
    Maximum-likelihood θ estimation — the EM driver of Fig. 11 — with any
    registered chain sampler (``--sampler gmh|lamarc|multichain|heated``),
    under any registered demography (``--demography``, with initial
    parameters via ``--growth0`` or ``--demography-params``), from one
    alignment or several unlinked loci (``--loci``).
``mpcgs bayes``
    Bayesian θ estimation with the joint (genealogy, θ) sampler: posterior
    mean/median and credible interval instead of a likelihood maximizer.
``mpcgs baseline``
    The classic single-proposal baselines end-to-end (defaults to the
    LAMARC-style sampler), for accuracy comparisons against ``run``.
``mpcgs info``
    List the registered samplers, likelihood engines, mutation models, and
    demographies (``--json`` for a machine-readable document).
``mpcgs submit`` / ``mpcgs serve`` / ``mpcgs status``
    The experiment service: ``submit`` spools a run-spec JSON into a job
    queue (an identical, already-computed spec is answered from the
    content-addressed result store without recomputing), ``serve`` claims
    and executes queued jobs on a persistent worker fleet (streaming their
    typed events, retrying crashed workers from their last EM checkpoint),
    and ``status`` reports a job's state and recent events.  All three
    share ``--spool`` (default ``$MPCGS_SPOOL`` or ``./mpcgs-spool``).

Every run subcommand accepts ``--config spec.json`` — a serialized
:class:`~repro.api.RunSpec` (or bare :class:`~repro.core.config.MPCGSConfig`
document) — with explicit flags overriding the spec, and ``--save-config``
to write the fully-resolved spec back out for replay.

The original flat invocation ``mpcgs <seqdata.phy> <init theta> [options]``
(Section 5.1.1 of the paper) still works: when the first argument is not a
subcommand it is routed through the legacy parser unchanged.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import Sequence

import numpy as np

import json as _json

from .api import Experiment, RunSpec
from .core.config import (
    DEFAULT_ENGINE,
    DEMOGRAPHIES,
    MULTICHAIN_MODES,
    EstimatorConfig,
    MPCGSConfig,
    SamplerConfig,
)
from .core.registry import (
    available_demographies,
    available_engines,
    available_models,
    available_samplers,
    require_demography_support,
)
from .sequences.phylip import read_phylip

__all__ = ["build_parser", "build_cli", "main"]

SUBCOMMANDS = ("run", "bayes", "baseline", "info", "submit", "serve", "status")


# ---------------------------------------------------------------------------
# Legacy flat parser (``mpcgs data.phy 0.5 --proposals 8``)
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The legacy flat mpcgs argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="mpcgs",
        description="Multi-proposal coalescent genealogy sampler: estimate θ from sequence data.",
    )
    parser.add_argument("sequence_file", help="PHYLIP file of aligned sequences")
    parser.add_argument("initial_theta", type=float, help="initial driving value of θ (positive)")
    parser.add_argument(
        "--proposals", type=int, default=32, help="GMH proposal-set size N (default: 32)"
    )
    parser.add_argument(
        "--samples", type=int, default=400, help="genealogy samples per EM iteration (default: 400)"
    )
    parser.add_argument(
        "--burn-in", type=int, default=100, help="burn-in samples per EM iteration (default: 100)"
    )
    parser.add_argument(
        "--em-iterations", type=int, default=5, help="number of EM iterations (default: 5)"
    )
    parser.add_argument(
        "--engine",
        choices=sorted(available_engines()),
        default=DEFAULT_ENGINE,
        help=f"likelihood evaluation engine (default: {DEFAULT_ENGINE})",
    )
    parser.add_argument(
        "--model",
        choices=("F81", "JC69", "K80", "F84", "HKY85"),
        default="F81",
        help="nucleotide substitution model (default: F81)",
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed (default: entropy)")
    parser.add_argument(
        "--quiet", action="store_true", help="print only the final θ estimate"
    )
    return parser


def _main_legacy(argv: Sequence[str]) -> int:
    """The original flat invocation, kept byte-compatible for scripts."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.initial_theta <= 0:
        parser.error("initial_theta must be positive")
    if args.proposals < 1:
        parser.error("--proposals must be at least 1")

    try:
        alignment = read_phylip(args.sequence_file)
    except (OSError, ValueError) as exc:
        print(f"error reading {args.sequence_file!r}: {exc}", file=sys.stderr)
        return 2

    config = MPCGSConfig(
        sampler=SamplerConfig(
            n_proposals=args.proposals,
            n_samples=args.samples,
            burn_in=args.burn_in,
        ),
        estimator=EstimatorConfig(),
        n_em_iterations=args.em_iterations,
        likelihood_engine=args.engine,
        mutation_model=args.model,
    )
    experiment = Experiment(alignment, config, theta0=args.initial_theta, seed=args.seed)

    if not args.quiet:
        print(
            f"mpcgs: {alignment.n_sequences} sequences x {alignment.n_sites} sites, "
            f"N={args.proposals} proposals, engine={args.engine}, model={args.model}"
        )
        print(f"Watterson theta (sanity anchor): {alignment.watterson_theta():.4f}")

    report = experiment.run()

    if not args.quiet:
        _print_em_iterations(report)
    print(f"theta estimate: {report.theta:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Subcommand CLI
# ---------------------------------------------------------------------------


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "sequence_file",
        nargs="?",
        default=None,
        help="PHYLIP file of aligned sequences (optional when --config names one)",
    )
    parser.add_argument(
        "initial_theta",
        nargs="?",
        type=float,
        default=None,
        help="initial driving θ (default: the spec's theta0, else the Watterson estimate)",
    )


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="SPEC.JSON",
        default=None,
        help="run-spec JSON document (flags given explicitly override it)",
    )
    parser.add_argument(
        "--save-config",
        metavar="OUT.JSON",
        default=None,
        help="write the fully-resolved run spec to this file before running",
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed (default: spec/entropy)")
    parser.add_argument("--quiet", action="store_true", help="print only the final estimate")
    parser.add_argument("--json", action="store_true", help="print the full report as JSON")


def _add_chain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--proposals", type=int, default=None, help="GMH proposal-set size N")
    parser.add_argument("--samples", type=int, default=None, help="genealogy samples per chain run")
    parser.add_argument("--burn-in", type=int, default=None, help="burn-in samples per chain run")
    parser.add_argument("--thin", type=int, default=None, help="keep one sample every THIN draws")
    parser.add_argument(
        "--engine", choices=sorted(available_engines()), default=None, help="likelihood engine"
    )
    parser.add_argument(
        "--model",
        choices=sorted(name.upper() for name in available_models()),
        default=None,
        help="nucleotide substitution model",
    )


def build_cli() -> argparse.ArgumentParser:
    """The subcommand-based mpcgs parser (``run``/``bayes``/``baseline``/``info``)."""
    parser = argparse.ArgumentParser(
        prog="mpcgs",
        description=(
            "Multi-proposal coalescent genealogy sampler: estimate θ from sequence data. "
            "Legacy flat invocation (mpcgs data.phy 0.5 [options]) is still accepted."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="maximum-likelihood θ estimation (EM driver, any registered sampler)"
    )
    _add_data_arguments(p_run)
    _add_spec_arguments(p_run)
    _add_chain_arguments(p_run)
    p_run.add_argument(
        "--sampler",
        choices=[n for n in available_samplers() if n != "bayesian"],
        default=None,
        help="chain sampler driving the EM loop (default: the spec's, else gmh)",
    )
    p_run.add_argument("--em-iterations", type=int, default=None, help="number of EM iterations")
    p_run.add_argument(
        "--n-chains", type=int, default=None, help="chain count for multichain/heated samplers"
    )
    p_run.add_argument(
        "--demography",
        choices=DEMOGRAPHIES,
        default=None,
        help=(
            "coalescent demography (any registered model): 'constant' estimates "
            "theta alone (the paper's workload); 'growth'/'exponential', "
            "'bottleneck', and 'logistic' estimate theta jointly with the "
            "model's parameters (default: the spec's, else constant)"
        ),
    )
    p_run.add_argument(
        "--growth0",
        type=float,
        default=None,
        help="initial driving growth rate for --demography growth (default 0)",
    )
    p_run.add_argument(
        "--demography-params",
        metavar="JSON",
        default=None,
        help=(
            "initial demography parameters as a JSON object, e.g. "
            "'{\"start\": 0.2, \"strength\": 0.1}' (missing parameters take "
            "the model's defaults)"
        ),
    )
    p_run.add_argument(
        "--loci",
        nargs="+",
        metavar="SEQ.PHY",
        default=None,
        help=(
            "PHYLIP files of several unlinked loci sharing one demography; "
            "runs the multi-locus joint estimation instead of the "
            "single-alignment EM loop"
        ),
    )
    p_run.set_defaults(handler=_cmd_run, default_sampler=None)

    p_bayes = sub.add_parser(
        "bayes", help="Bayesian θ estimation (joint genealogy-θ sampler, posterior summaries)"
    )
    _add_data_arguments(p_bayes)
    _add_spec_arguments(p_bayes)
    _add_chain_arguments(p_bayes)
    p_bayes.add_argument(
        "--prior-shape", type=float, default=None, help="inverse-gamma prior shape (default 0)"
    )
    p_bayes.add_argument(
        "--prior-scale", type=float, default=None, help="inverse-gamma prior scale (default 0)"
    )
    p_bayes.add_argument(
        "--credible-mass", type=float, default=0.95, help="credible-interval mass (default 0.95)"
    )
    p_bayes.set_defaults(handler=_cmd_bayes)

    p_baseline = sub.add_parser(
        "baseline", help="classic single-proposal baselines end-to-end (default: lamarc)"
    )
    _add_data_arguments(p_baseline)
    _add_spec_arguments(p_baseline)
    _add_chain_arguments(p_baseline)
    p_baseline.add_argument(
        "--sampler",
        choices=("lamarc", "multichain", "heated"),
        default=None,
        help="baseline sampler (default: lamarc)",
    )
    p_baseline.add_argument("--em-iterations", type=int, default=None, help="number of EM iterations")
    p_baseline.add_argument(
        "--n-chains", type=int, default=None, help="chain count for multichain/heated samplers"
    )
    p_baseline.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "run the multichain baseline's chains on this many OS processes "
            "(measured parallel wall time; output is identical to --workers 1)"
        ),
    )
    p_baseline.add_argument(
        "--mode",
        choices=MULTICHAIN_MODES,
        default=None,
        help=(
            "multichain execution mode: 'process' runs chains independently "
            "(per --workers), 'stacked' advances them lock-step through one "
            "batched engine (output is identical either way)"
        ),
    )
    p_baseline.set_defaults(handler=_cmd_run, default_sampler="lamarc")

    p_info = sub.add_parser(
        "info",
        help=(
            "list registered samplers, likelihood engines, mutation models "
            "and demographies"
        ),
    )
    p_info.add_argument("--json", action="store_true", help="print the registries as JSON")
    p_info.set_defaults(handler=_cmd_info)

    def add_spool(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spool",
            default=None,
            help="job spool directory (default: $MPCGS_SPOOL, else ./mpcgs-spool)",
        )

    p_submit = sub.add_parser(
        "submit", help="spool a run-spec JSON for the experiment service"
    )
    p_submit.add_argument("spec", help="run-spec JSON document (the --config format)")
    add_spool(p_submit)
    p_submit.add_argument("--json", action="store_true", help="print the job record as JSON")
    p_submit.set_defaults(handler=_cmd_submit)

    p_serve = sub.add_parser(
        "serve", help="claim and execute queued jobs on a persistent worker fleet"
    )
    add_spool(p_serve)
    p_serve.add_argument(
        "--workers", type=int, default=1, help="worker-fleet size (default 1: in-process)"
    )
    p_serve.add_argument(
        "--max-jobs", type=int, default=None, help="stop after claiming this many jobs"
    )
    p_serve.add_argument(
        "--idle-timeout",
        type=float,
        default=0.0,
        help="seconds to keep polling an empty queue (default 0: drain and exit)",
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.1, help="queue poll interval in seconds"
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="EM-checkpoint cadence in iterations (default 1)",
    )
    p_serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries for jobs whose worker process died (default 2)",
    )
    p_serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hung-job watchdog: kill and retry jobs running longer than this "
        "(default: off; forces pool execution even with --workers 1)",
    )
    p_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="active-job lease lifetime; expired leases are requeued at serve "
        "start (default 60)",
    )
    p_serve.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the exponential retry backoff, 0 to disable (default 0.5)",
    )
    p_serve.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan: a JSON document or a path to "
        "one (see repro.service.faults.FaultPlan; default: $MPCGS_FAULT_PLAN)",
    )
    p_serve.add_argument("--quiet", action="store_true", help="suppress the event stream")
    p_serve.add_argument("--json", action="store_true", help="print the final tally as JSON")
    p_serve.set_defaults(handler=_cmd_serve)

    p_status = sub.add_parser("status", help="report a job's state and recent events")
    p_status.add_argument("job_id", help="job id returned by `mpcgs submit`")
    add_spool(p_status)
    p_status.add_argument(
        "--events", type=int, default=5, metavar="N", help="show the last N events (default 5)"
    )
    p_status.add_argument("--json", action="store_true", help="print the record as JSON")
    p_status.set_defaults(handler=_cmd_status)

    return parser


def _resolve_spec(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunSpec:
    """Merge ``--config`` (if any) with explicitly-given flags into one spec."""
    if args.config is not None:
        try:
            spec = RunSpec.load(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load --config {args.config!r}: {exc}")
    else:
        spec = RunSpec()
    cfg = spec.config

    chain_changes = {}
    if args.proposals is not None:
        chain_changes["n_proposals"] = args.proposals
    if args.samples is not None:
        chain_changes["n_samples"] = args.samples
    if args.burn_in is not None:
        chain_changes["burn_in"] = args.burn_in
    if args.thin is not None:
        chain_changes["thin"] = args.thin
    if chain_changes:
        cfg = replace(cfg, sampler=cfg.sampler.scaled(**chain_changes))

    config_changes = {}
    if args.engine is not None:
        config_changes["likelihood_engine"] = args.engine
    if args.model is not None:
        config_changes["mutation_model"] = args.model
    if getattr(args, "em_iterations", None) is not None:
        config_changes["n_em_iterations"] = args.em_iterations
    if getattr(args, "demography", None) is not None:
        config_changes["demography"] = args.demography
    if getattr(args, "growth0", None) is not None:
        config_changes["growth0"] = args.growth0
    if getattr(args, "demography_params", None) is not None:
        try:
            params = _json.loads(args.demography_params)
        except ValueError as exc:
            parser.error(f"--demography-params is not valid JSON: {exc}")
        if not isinstance(params, dict):
            parser.error("--demography-params must be a JSON object of name: value pairs")
        config_changes["demography_params"] = params
    if config_changes:
        try:
            cfg = replace(cfg, **config_changes)
        except ValueError as exc:
            # e.g. --growth0 without --demography growth; the config's own
            # validation is the single source of truth for the message.
            parser.error(str(exc))

    loci = getattr(args, "loci", None)
    if loci is not None and args.sequence_file is not None and args.initial_theta is None:
        # ``mpcgs run --loci a.phy b.phy --seed 3 0.5``: with the files
        # consumed by --loci, the bare number lands in the sequence_file slot.
        try:
            args.initial_theta = float(args.sequence_file)
        except ValueError:
            pass
        else:
            args.sequence_file = None
    if loci is not None and args.initial_theta is None and len(loci) > 1:
        # ``mpcgs run --loci a.phy b.phy 0.5``: the greedy nargs="+" of
        # --loci swallows a trailing initial θ; a bare number is never a
        # sequence file, so pop it back out.
        try:
            args.initial_theta = float(loci[-1])
        except ValueError:
            pass
        else:
            loci = loci[:-1]
    sequence_files = tuple(loci) if loci is not None else spec.sequence_files
    sequence_file = args.sequence_file if args.sequence_file is not None else spec.sequence_file
    theta0 = args.initial_theta if args.initial_theta is not None else spec.theta0
    seed = args.seed if args.seed is not None else spec.seed
    if sequence_files is not None:
        if args.sequence_file is not None:
            parser.error("give loci via --loci or one file positionally, not both")
        sequence_file = None
    elif sequence_file is None:
        parser.error("no sequence file given (positionally, via --loci, or via --config)")
    if theta0 is not None and theta0 <= 0:
        parser.error("initial_theta must be positive")
    return RunSpec(
        config=cfg,
        sequence_file=sequence_file,
        theta0=theta0,
        seed=seed,
        sequence_files=sequence_files,
    )


def _build_experiment(spec: RunSpec, args: argparse.Namespace) -> Experiment | None:
    """Build the experiment, or print an error and return ``None`` (exit code 2)."""
    if args.save_config is not None:
        spec.save(args.save_config)
    source = (
        spec.sequence_file if spec.sequence_files is None else list(spec.sequence_files)
    )
    try:
        return Experiment.from_spec(spec)
    except (OSError, ValueError) as exc:
        print(f"error reading {source!r}: {exc}", file=sys.stderr)
        return None


def _print_em_iterations(report) -> None:
    growth_run = getattr(report, "growth", None) is not None
    for it in report.result.iterations:
        growth_part = (
            f", growth={it.driving_growth:.4f} -> {it.estimate.growth:.4f}"
            if growth_run
            else ""
        )
        print(
            f"  EM iteration {it.iteration + 1}: driving theta={it.driving_theta:.5f} "
            f"-> estimate {it.estimate.theta:.5f}{growth_part} "
            f"(acceptance {it.chain.acceptance_rate:.2f}, "
            f"{it.chain.n_likelihood_evaluations} likelihood evaluations, "
            f"{it.chain.wall_time_seconds:.2f}s)"
        )


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``mpcgs run`` and ``mpcgs baseline``: EM maximum-likelihood estimation."""
    spec = _resolve_spec(args, parser)
    cfg = spec.config
    sampler = args.sampler or args.default_sampler
    if sampler is not None:
        # with_sampler drops the spec's old per-sampler options on a switch
        # (a leftover n_chains would not be accepted by the gmh builder).
        cfg = cfg.with_sampler(sampler)
    if args.n_chains is not None:
        if cfg.sampler_name not in ("multichain", "heated"):
            parser.error(
                f"--n-chains applies to the multichain and heated samplers, "
                f"not {cfg.sampler_name!r}"
            )
        cfg = replace(cfg, sampler_options={**cfg.sampler_options, "n_chains": args.n_chains})
    workers = getattr(args, "workers", None)
    if workers is not None:
        if cfg.sampler_name != "multichain":
            parser.error(
                f"--workers applies to the multichain sampler, not {cfg.sampler_name!r}"
            )
        if workers < 1:
            parser.error("--workers must be at least 1")
        cfg = replace(cfg, sampler_options={**cfg.sampler_options, "n_workers": workers})
    mode = getattr(args, "mode", None)
    if mode is not None:
        if cfg.sampler_name != "multichain":
            parser.error(
                f"--mode applies to the multichain sampler, not {cfg.sampler_name!r}"
            )
        cfg = replace(cfg, sampler_options={**cfg.sampler_options, "mode": mode})
    if cfg.sampler_name == "bayesian":
        parser.error("the bayesian sampler has no maximization stage; use `mpcgs bayes`")
    # Report sampler/demography incompatibility as a usage error here;
    # letting Experiment construction raise it would mislabel it as a
    # file-reading failure.
    try:
        require_demography_support(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    spec = replace(spec, config=cfg)

    experiment = _build_experiment(spec, args)
    if experiment is None:
        return 2
    alignment = experiment.alignment
    if not args.quiet and not args.json:
        demography_part = (
            f", demography={cfg.demography}" if cfg.demography != "constant" else ""
        )
        if experiment.loci is not None:
            sizes = " + ".join(str(locus.n_sequences) for locus in experiment.loci)
            print(
                f"mpcgs: {len(experiment.loci)} loci ({sizes} sequences), "
                f"sampler={cfg.sampler_name}, engine={cfg.likelihood_engine}, "
                f"model={cfg.mutation_model}{demography_part}"
            )
        else:
            print(
                f"mpcgs: {alignment.n_sequences} sequences x {alignment.n_sites} sites, "
                f"sampler={cfg.sampler_name}, engine={cfg.likelihood_engine}, "
                f"model={cfg.mutation_model}{demography_part}"
            )
            print(f"Watterson theta (sanity anchor): {alignment.watterson_theta():.4f}")

    report = experiment.run()

    if args.json:
        print(report.to_json())
        return 0
    if not args.quiet:
        if report.diagnostics.get("mode") == "multilocus":
            for i, point in enumerate(report.diagnostics["trajectory"]):
                values = ", ".join(f"{v:.5f}" for v in point)
                label = "start" if i == 0 else f"EM iteration {i}"
                print(f"  {label}: ({values})")
        else:
            _print_em_iterations(report)
    print(f"theta estimate: {report.theta:.6f}")
    if report.growth is not None:
        print(f"growth estimate: {report.growth:.6f}")
    if report.demography_params is not None and report.growth is None:
        rendered = ", ".join(f"{k}={v:.6f}" for k, v in report.demography_params.items())
        print(f"demography estimate ({report.config.demography}): {rendered}")
    return 0


def _cmd_bayes(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``mpcgs bayes``: posterior summaries from the joint (G, θ) sampler."""
    spec = _resolve_spec(args, parser)
    cfg = spec.config
    if spec.sequence_files is not None:
        parser.error(
            "the bayesian sampler estimates a single-locus posterior; "
            "use `mpcgs run --loci ...` for multi-locus estimation"
        )
    if cfg.demography != "constant":
        # One shared capability message (the registry check below would say
        # the same once the sampler is switched to bayesian).
        try:
            require_demography_support(replace(cfg, sampler_name="bayesian"))
        except ValueError as exc:
            parser.error(str(exc))
    options = dict(cfg.sampler_options)
    if args.prior_shape is not None:
        options["prior_shape"] = args.prior_shape
    if args.prior_scale is not None:
        options["prior_scale"] = args.prior_scale
    if cfg.sampler_name != "bayesian":
        options = {k: v for k, v in options.items() if k in ("prior_shape", "prior_scale")}
    cfg = replace(cfg, sampler_name="bayesian", sampler_options=options)
    spec = replace(spec, config=cfg)

    experiment = _build_experiment(spec, args)
    if experiment is None:
        return 2
    alignment = experiment.alignment
    if not args.quiet and not args.json:
        print(
            f"mpcgs bayes: {alignment.n_sequences} sequences x {alignment.n_sites} sites, "
            f"engine={cfg.likelihood_engine}, model={cfg.mutation_model}"
        )

    report = experiment.run()

    if args.json:
        print(report.to_json())
        return 0
    posterior = report.result
    if not args.quiet:
        lo, hi = posterior.credible_interval(args.credible_mass)
        print(f"posterior median: {posterior.posterior_median():.6f}")
        print(
            f"{100 * args.credible_mass:.0f}% credible interval: [{lo:.6f}, {hi:.6f}] "
            f"({report.n_samples} retained draws)"
        )
    print(f"posterior mean theta: {report.theta:.6f}")
    return 0


def _cmd_info(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``mpcgs info``: discoverability for the four registries.

    ``--json`` emits a machine-readable document (used by CI to assert the
    registries are populated and importable).
    """
    from . import __version__

    registries = {
        "samplers": available_samplers(),
        "engines": available_engines(),
        "models": {name.upper(): desc for name, desc in available_models().items()},
        "demographies": available_demographies(),
    }
    if args.json:
        print(_json.dumps({"version": __version__, **registries}, indent=2))
        return 0
    print(f"mpcgs {__version__}")
    for section, entries in registries.items():
        print(f"\n{section}:")
        width = max(len(name) for name in entries)
        for name, description in entries.items():
            print(f"  {name:<{width}}  {description}")
    return 0


def _spool_dir(args: argparse.Namespace) -> str:
    """Resolve the service spool directory: flag > $MPCGS_SPOOL > ./mpcgs-spool."""
    if args.spool is not None:
        return args.spool
    return os.environ.get("MPCGS_SPOOL", "mpcgs-spool")


def _cmd_submit(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``mpcgs submit``: spool one run-spec for the service."""
    from .service import ExperimentService

    service = ExperimentService(_spool_dir(args))
    try:
        record = service.submit(args.spec)
    except (OSError, ValueError) as exc:
        print(f"error submitting {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"job id: {record.job_id}")
    print(f"spec hash: {record.spec_hash}")
    if record.cache_hit:
        print("state: done (cache hit: identical spec already computed)")
    else:
        print(f"state: {record.state}")
    return 0


def _cmd_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``mpcgs serve``: execute queued jobs until the queue drains."""
    from .service import ExperimentService

    if args.workers < 1:
        parser.error("--workers must be at least 1")

    def printer(event) -> None:
        payload = ", ".join(f"{k}={v}" for k, v in event.payload.items())
        print(f"[{event.job_id}] {event.kind}" + (f" ({payload})" if payload else ""))

    if args.job_timeout is not None and args.job_timeout <= 0:
        parser.error("--job-timeout must be positive")
    if args.lease_ttl <= 0:
        parser.error("--lease-ttl must be positive")
    if args.retry_backoff < 0:
        parser.error("--retry-backoff must be non-negative")

    service = ExperimentService(
        _spool_dir(args),
        n_workers=args.workers,
        max_retries=args.max_retries,
        checkpoint_every=args.checkpoint_every,
        lease_ttl=args.lease_ttl,
        retry_backoff=args.retry_backoff,
        fault_plan=args.chaos,
        on_event=None if args.quiet else printer,
    )
    with service:
        stats = service.serve(
            max_jobs=args.max_jobs,
            idle_timeout=args.idle_timeout,
            poll_interval=args.poll,
            job_timeout=args.job_timeout,
        )
    if args.json:
        print(_json.dumps(stats, indent=2, sort_keys=True))
    else:
        tally = (
            f"served: {stats['completed']} completed "
            f"({stats['executed']} executed, {stats['cache_hits']} cache hits), "
            f"{stats['failed']} failed, {stats['retries']} retries"
        )
        # Fault-tolerance counters only when they fired, keeping the common
        # tally line stable for scripts that match on it.
        for key in ("timeouts", "recovered", "quarantined"):
            if stats.get(key):
                tally += f", {stats[key]} {key}"
        print(tally)
    return 1 if stats["failed"] else 0


def _cmd_status(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """``mpcgs status``: one job's state, result (when done), and recent events."""
    from .service import ExperimentService

    service = ExperimentService(_spool_dir(args))
    try:
        record = service.status(args.job_id)
    except FileNotFoundError:
        print(f"unknown job id {args.job_id!r}", file=sys.stderr)
        return 2
    report = service.report_for(args.job_id)
    if args.json:
        document = dict(record.to_dict())
        if report is not None:
            document["report"] = report
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"job id: {record.job_id}")
    print(f"state: {record.state}" + (" (cache hit)" if record.cache_hit else ""))
    print(f"spec hash: {record.spec_hash}")
    print(f"attempts: {record.attempts}/{record.max_attempts}")
    if record.error is not None:
        print(f"error: {record.error}")
    if report is not None:
        print(f"theta estimate: {report['theta']:.6f}")
    events = service.job_events(args.job_id, args.events)
    if events:
        print(f"last {len(events)} events:")
        for event in events:
            payload = ", ".join(f"{k}={v}" for k, v in event.payload.items())
            print(f"  {event.kind}" + (f" ({payload})" if payload else ""))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Dispatches to the subcommand parser when the first argument names a
    subcommand, and to the legacy flat parser otherwise.
    """
    args_list = list(sys.argv[1:] if argv is None else argv)
    try:
        if args_list and args_list[0] in SUBCOMMANDS:
            parser = build_cli()
            args = parser.parse_args(args_list)
            return args.handler(args, parser)
        return _main_legacy(args_list)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly instead of
        # tracebacking (the dup2 avoids a second error at shutdown).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
