"""The timed and traced loops of the three workloads.

Each workload function returns a :class:`Outcome`: the metrics, how many
operations were attempted and how many failed (a failed correctness check
counts as a failure), plus notes and the per-layer table for the report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import layers
from inputs import Inputs, SERVICE_CHAINS
from repro.api import Experiment, RunSpec
from repro.core.registry import make_engine, make_model
from repro.sequences.phylip import read_phylip
from repro.service.events import (
    CHECKPOINT_WRITTEN,
    EM_ITERATION_COMPLETED,
    JOB_STATE_CHANGED,
    JOB_SUBMITTED,
    RUN_COMPLETED,
    RUN_STARTED,
)
from repro.service.runner import ExperimentService
from spans import Tracer, merge_snapshots

SETUP_REPEATS = 5
MIN_EM_RUNS = 3
MIN_BATCHES = 2

# Machine-speed calibration.  The host's speed drifts by up to 2x over
# minutes (other tenants), which no statistic over one run can remove, so
# every timed sample is bracketed by a fixed pure-Python + numpy kernel and
# scaled by REFERENCE_CALIBRATION_S / (mean of the two kernel times): times
# are reported in seconds of the reference machine at its quiet speed.  The
# kernel uses no repository code, so a code change moves the scaled time as
# much as the raw one.  Raw times are in the notes.
REFERENCE_CALIBRATION_S = 0.125
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.random((64, 400, 4))
_CAL_B = _CAL_RNG.random((64, 4, 4))


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)
    table: list[tuple] = field(default_factory=list)
    trace_doc: dict | None = None

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.setdefault("failures", []).append(what)


# -- shared helpers -----------------------------------------------------------


def calibration_s() -> float:
    """Seconds the fixed calibration kernel takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    for _ in range(60):
        np.matmul(_CAL_A, _CAL_B).max(axis=2)
    return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """Scale of a sample bracketed by kernel times ``before`` and ``after``."""
    return REFERENCE_CALIBRATION_S / ((before + after) / 2)


def setup_times(root: Path, mode: str, target, work: Path) -> list[tuple[float, float]]:
    """(raw seconds, speed factor) of ``SETUP_REPEATS`` fresh interpreters'
    set-up, after one warm-up interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    before = calibration_s()
    for i in range(SETUP_REPEATS + 1):
        arg = str(work / f"setup-spool-{i}") if mode == "service" else str(target)
        out = subprocess.run(
            [sys.executable, str(probe), mode, arg],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        after = calibration_s()
        if i:  # the first interpreter warms the page cache and writes bytecode
            raw = json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]
            samples.append((raw, speed_factor(before, after)))
        before = after
    return samples


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    return [raw * factor for raw, factor in samples]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process, in MiB (``VmHWM``)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def child_pids() -> list[int]:
    """Live direct children of this process."""
    me, kids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            kids.append(int(entry.name))
    return kids


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    q = 100.0 * (n - 10) / n
    return q, float(np.percentile(values, q))


def trajectory_hash(trajectory) -> str:
    return hashlib.sha256(np.asarray(trajectory, dtype=float).tobytes()).hexdigest()[:16]


def theta_ok(theta: float) -> bool:
    return math.isfinite(theta) and theta > 0


def engine_class(config, alignment):
    model = make_model(config.mutation_model, base_frequencies=alignment.base_frequencies(pseudocount=1.0))
    return type(make_engine(config.likelihood_engine, alignment, model, backend=config.backend))


def short(config):
    """The warm-up config: every code path of ``config``, a fraction of the work."""
    chain = replace(config.sampler, n_samples=40, burn_in=10)
    return replace(config, sampler=chain, n_em_iterations=1)


def _layer_table(values: dict[str, float], unit_wall: float) -> list[tuple]:
    """Rows of (metric, value, unit, share of ``unit_wall``).

    Shares are given for seconds spent inside EM runs, ``unit_wall`` being
    the wall time of the runs (per EM run, or summed over a batch's jobs).
    """
    units = {name: unit for name, unit, _ in layers.LAYER_METRICS}
    rows = []
    for name, value in values.items():
        in_run = units[name] == "s" and not name.startswith("service.")
        share = value / unit_wall if in_run and unit_wall > 0 else None
        rows.append((name, value, units[name], share))
    return rows


def _fits(start: float, budget: float, durations: list[float]) -> bool:
    """Whether one more repetition, as long as the median so far, ends within budget."""
    typical = statistics.median(durations) if durations else 0.0
    return time.perf_counter() - start + typical <= budget


# -- em-long / em-deep ----------------------------------------------------------


def _em_loop(specs: list[RunSpec], budget: float, min_runs: int, out: Outcome, ref: dict,
             after_run=None, segmented: bool = True) -> list[tuple[float, float]]:
    """Back-to-back EM runs, cycling over the workload's datasets, for
    ``budget`` seconds; returns (raw wall, speed factor) per run.

    ``Experiment(...).run()`` is what ``run_experiment`` calls.  With
    ``segmented`` the calibration kernel also runs at every EM-iteration
    boundary (its time is excluded from the wall), so each iteration is
    scaled by the machine speed measured around it; the traced half of a
    ``--trace 1`` run brackets whole runs only, to keep the kernel out of
    the spans.

    Every run is checked: θ̂ finite and positive, and a θ trajectory
    bit-identical to the first run on the same dataset (``ref``).
    ``after_run()`` runs after each timed run, outside the timing.
    """
    samples, attempts = [], 0
    start = time.perf_counter()
    calibration = calibration_s()
    while attempts < min_runs or _fits(start, budget, [wall for wall, _ in samples]):
        spec = specs[attempts % len(specs)]
        attempts += 1
        pieces: list[tuple[float, float, float]] = []  # (seconds, kernel before, kernel after)
        mark = [time.perf_counter(), calibration]

        def boundary(event=None):
            if event is not None and event.kind != EM_ITERATION_COMPLETED:
                return
            now = time.perf_counter()
            after = calibration_s()
            pieces.append((now - mark[0], mark[1], after))
            mark[:] = [time.perf_counter(), after]

        experiment = Experiment(spec.sequence_file, spec.config, seed=spec.seed)
        try:
            report = experiment.run(on_event=boundary if segmented else None)
        except Exception as exc:  # a failed run counts against the error rate
            out.check(False, f"run raised {type(exc).__name__}: {exc}")
            calibration = calibration_s()
            continue
        boundary()
        calibration = pieces[-1][2]
        wall = sum(seconds for seconds, _, _ in pieces)
        scaled_wall = sum(seconds * speed_factor(a, b) for seconds, a, b in pieces)
        samples.append((wall, scaled_wall / wall))
        if after_run is not None:
            after_run()
        digest = trajectory_hash(report.theta_trajectory)
        expected = ref.setdefault(Path(spec.sequence_file).name, digest)
        out.check(theta_ok(report.theta), f"theta estimate {report.theta!r}")
        out.check(digest == expected, f"theta trajectory {digest} != {expected}")
    if not samples:
        raise RuntimeError("every EM run failed")
    return samples


def em_workload(inputs: Inputs, seconds: float, trace: bool, root: Path, work: Path) -> Outcome:
    out = Outcome()
    config = inputs.config
    specs = [RunSpec.load(path) for path in inputs.spec_paths]
    alignments = [read_phylip(str(path)) for path in inputs.alignment_paths]
    engine_cls = engine_class(config, alignments[0])
    out.notes.update(
        engine=config.likelihood_engine,
        engine_class=engine_cls.__name__,
        site_patterns=[int(a.site_patterns()[0].shape[1]) for a in alignments],
        input_draws=inputs.draws,
    )
    Experiment(specs[0].sequence_file, short(config), seed=specs[0].seed).run()  # warm-up
    ref: dict = {}

    if not trace:
        setup = setup_times(root, "experiment", inputs.spec_paths[0], work)
        samples = _em_loop(specs, seconds, MIN_EM_RUNS, out, ref)
        walls = scaled(samples)
        out.metrics = {
            "em_wall_s": statistics.median(walls),
            "setup_s": statistics.median(scaled(setup)),
            "peak_rss_mb": vm_hwm_mb(),
            "jobs_per_s": len(walls) / sum(walls),
            "job_latency_p50_s": statistics.median(walls),
        }
        out.notes.update(
            em_runs=len(walls), em_wall_tail=tail_percentile(walls),
            job_latency_p90_s=float(np.percentile(walls, 90)), theta_trajectory_hashes=ref,
            raw_em_walls_s=[wall for wall, _ in samples],
            speed_factors=[factor for _, factor in samples],
            raw_setup_s=[raw for raw, _ in setup],
        )
        return out

    untraced = scaled(_em_loop(specs, seconds / 2, 2, out, ref, segmented=False))
    tracer = Tracer()
    layers.install(tracer, engine_cls)
    try:
        traced_samples = _em_loop(specs, seconds / 2, 2, out, ref, tracer.fold, segmented=False)
    finally:
        tracer.restore()
    traced = scaled(traced_samples)
    snap = tracer.snapshot()
    n = len(traced)
    values = layers.layer_values(snap, n)
    unit_wall = sum(wall for wall, _ in traced_samples) / n  # layer times are raw
    values.update(_no_service())
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["trace.unattributed_s"] = unit_wall - snap["root_s"] / n
    out.metrics = values
    out.table = _layer_table(values, unit_wall)
    out.notes.update(
        traced_runs=n, untraced_runs=len(untraced), traced_wall_s=unit_wall,
        untraced_em_wall_s=statistics.median(untraced), theta_trajectory_hashes=ref,
    )
    out.trace_doc = {"spans": tracer.spans, "snapshot": snap}
    return out


def _no_service() -> dict[str, float]:
    return {name: 0.0 for name, _, _ in layers.LAYER_METRICS if name.startswith("service.")}


# -- service-batch ----------------------------------------------------------------


def _capture_in_workers(tracer: Tracer, out_dir: Path) -> None:
    """Have each forked pool worker write its job's layer snapshot to ``out_dir``.

    Pool workers fork from this process after the layer wraps are installed,
    so they inherit them; wrapping the job entry point lets each worker
    reset its copy of the tracer before a job and dump it after.
    """
    import repro.service.runner as runner

    original = runner._execute_job
    parent = os.getpid()

    def _execute_job(spool, job_id, *args):
        if os.getpid() == parent:
            return original(spool, job_id, *args)
        tracer.reset()
        start = time.perf_counter()
        try:
            return original(spool, job_id, *args)
        finally:
            tracer.count("job.wall_s", time.perf_counter() - start)
            (out_dir / f"{job_id}.json").write_text(json.dumps(tracer.snapshot()))

    # Pickled by reference: the name must resolve to this wrapper.
    _execute_job.__module__ = original.__module__
    _execute_job.__qualname__ = original.__qualname__
    tracer.patch(runner, "_execute_job", _execute_job)


def _batch(inputs: Inputs, spool: Path, out: Outcome, ref: dict) -> dict:
    """One closed batch: 8 specs + 4 duplicates, serve to drain, 8 resubmits."""
    paths = inputs.spec_paths
    kinds = ["gmh" if p.name.endswith(".gmh.json") else "multichain" for p in paths]
    service = ExperimentService(spool, n_workers=2, multichain_mode="stacked", checkpoint_every=1)
    try:
        leaders = [service.submit(p) for p in paths]
        duplicates = [service.submit(p) for p in paths[-4:]]
        t0 = time.perf_counter()
        stats = service.serve()
        makespan = time.perf_counter() - t0
        rss = vm_hwm_mb() + sum(vm_hwm_mb(pid) for pid in child_pids())

        records = [service.status(r.job_id) for r in leaders + duplicates]
        latencies = [r.updated_at - r.created_at for r in records]
        reports = [service.report_for(r.job_id) for r in leaders]
        for record, report, path in zip(records, reports, paths):
            ok = record.state == "done" and report is not None
            out.check(ok and theta_ok(report["theta"]), f"{path.name} did not finish done")
            if ok:
                digest = trajectory_hash(report["theta_trajectory"])
                out.check(ref.setdefault(path.name, digest) == digest,
                          f"{path.name} trajectory changed between batches")
        for dup, leader_report in zip(records[len(paths):], reports[-4:]):
            got = service.report_for(dup.job_id)
            out.check(dup.state == "done" and got == leader_report, "duplicate report differs")
        out.check(stats["executed"] == len(paths) and stats["failed"] == 0,
                  f"serve tally {stats}")

        run_s = {"gmh": [], "multichain": []}
        waits, checkpoints, lines = [], 0, 0
        for record, kind in zip(leaders, kinds):
            events = service.job_events(record.job_id)
            lines += len(events)
            checkpoints += sum(e.kind == CHECKPOINT_WRITTEN for e in events)
            first = {}
            for e in events:
                key = e.kind if e.kind != JOB_STATE_CHANGED else f"state.{e.payload.get('state')}"
                first.setdefault(key, e.timestamp)
            last_done = max(e.timestamp for e in events if e.kind == RUN_COMPLETED)
            run_s[kind].append(last_done - first[RUN_STARTED])
            waits.append(first["state.running"] - first[JOB_SUBMITTED])
        for record in duplicates:
            lines += len(service.job_events(record.job_id))

        resubmits, hits = [], 0
        for path, leader_report in zip(paths, reports):
            t1 = time.perf_counter()
            record = service.submit(path)
            got = service.report_for(record.job_id)
            resubmits.append(time.perf_counter() - t1)
            hits += record.cache_hit
            out.check(record.cache_hit and got == leader_report, f"resubmit of {path.name} missed")
        spool_bytes = sum(f.stat().st_size for f in spool.rglob("*") if f.is_file())
    finally:
        service.close()
    return {
        "makespan": makespan,
        "executed": stats["executed"],
        "latencies": latencies,
        "run_s": run_s,
        "queue_wait_s": statistics.mean(waits),
        "checkpoint_writes": checkpoints,
        "event_lines": lines,
        "spool_bytes": spool_bytes,
        "cache_hits": stats["cache_hits"] + hits,
        "retries": stats["retries"],
        "failed": stats["failed"],
        "resubmits": resubmits,
        "rss": rss,
    }


def _batches(inputs, work: Path, budget: float, min_batches: int, out, ref, tag: str):
    batches = []
    start = time.perf_counter()
    before = calibration_s()
    while len(batches) < min_batches or _fits(start, budget, [b["wall"] for b in batches]):
        t0 = time.perf_counter()
        batch = _batch(inputs, work / f"spool-{tag}-{len(batches)}", out, ref)
        batch["wall"] = time.perf_counter() - t0
        after = calibration_s()
        batch["factor"] = speed_factor(before, after)
        before = after
        batches.append(batch)
    return batches


def _mean_job_run(batch: dict) -> float:
    """Mean in-worker EM run time of the batch's jobs, speed-scaled."""
    runs = batch["run_s"]["gmh"] + batch["run_s"]["multichain"]
    return batch["factor"] * sum(runs) / len(runs)


def _warm_service(inputs: Inputs) -> None:
    """Run each job kind once in-process, shortened, so lazy imports are done
    before the pool workers fork."""
    for path in inputs.spec_paths[:2]:
        spec = RunSpec.load(path)
        config = short(spec.config)
        if config.sampler_name == "multichain":
            config = config.with_sampler("multichain", n_chains=SERVICE_CHAINS, mode="stacked")
        Experiment(spec.sequence_file, config, seed=spec.seed).run()


def service_workload(inputs: Inputs, seconds: float, trace: bool, root: Path,
                     work: Path) -> Outcome:
    out = Outcome()
    first = RunSpec.load(inputs.spec_paths[0])
    alignment = read_phylip(first.sequence_file)
    engine_cls = engine_class(first.config, alignment)
    out.notes.update(engine=first.config.likelihood_engine, engine_class=engine_cls.__name__,
                     input_draws=inputs.draws)
    _warm_service(inputs)
    ref: dict = {}

    if not trace:
        setup = setup_times(root, "service", None, work)
        batches = _batches(inputs, work, seconds, MIN_BATCHES, out, ref, "timed")
        latencies = [x * b["factor"] for b in batches for x in b["latencies"]]
        resubmits = [x for b in batches for x in b["resubmits"]]
        out.metrics = {
            "em_wall_s": statistics.median(_mean_job_run(b) for b in batches),
            "setup_s": statistics.median(scaled(setup)),
            "peak_rss_mb": max(b["rss"] for b in batches),
            "jobs_per_s": statistics.median(
                b["executed"] / (b["makespan"] * b["factor"]) for b in batches
            ),
            "job_latency_p50_s": statistics.median(latencies),
        }
        out.notes.update(
            job_latency_p90_s=float(np.percentile(latencies, 90)),
            resubmit_ms=1e3 * statistics.median(resubmits),
            batches=len(batches), raw_makespans_s=[b["makespan"] for b in batches],
            speed_factors=[b["factor"] for b in batches], raw_setup_s=[raw for raw, _ in setup],
            latency_samples=len(latencies), latency_tail=tail_percentile(latencies),
            resubmit_samples=len(resubmits),
        )
        return out

    untraced = _batches(inputs, work, seconds / 2, 1, out, ref, "untraced")
    tracer = Tracer()
    layers.install(tracer, engine_cls)
    tracer.wrap(ExperimentService, "submit", "service.submit")
    tracer.wrap(ExperimentService, "serve", "service.serve")
    capture = work / "worker-snapshots"
    capture.mkdir()
    _capture_in_workers(tracer, capture)
    try:
        traced = _batches(inputs, work, seconds / 2, 1, out, ref, "traced")
    finally:
        tracer.restore()
    n = len(traced)
    parent = tracer.snapshot()
    workers = merge_snapshots([json.loads(p.read_text()) for p in sorted(capture.iterdir())])
    values = layers.layer_values(workers, n)
    job_wall = workers["counters"].get("job.wall_s", 0.0) / n
    values.update({
        "service.submit.s": parent["spans"]["service.submit"]["total_s"] / n,
        "service.serve.s": parent["spans"]["service.serve"]["total_s"] / n,
        "service.queue_wait_s": statistics.mean(b["queue_wait_s"] for b in traced),
        "service.job_run_s.gmh": statistics.mean(x for b in traced for x in b["run_s"]["gmh"]),
        "service.job_run_s.multichain": statistics.mean(
            x for b in traced for x in b["run_s"]["multichain"]
        ),
    })
    values["service.resubmit_ms"] = 1e3 * statistics.median(
        x for b in traced for x in b["resubmits"]
    )
    for key in ("checkpoint_writes", "event_lines", "spool_bytes", "cache_hits", "retries", "failed"):
        values[f"service.{key}"] = sum(b[key] for b in traced) / n
    values["trace.overhead_s"] = (
        statistics.median(_mean_job_run(b) for b in traced)
        - statistics.median(_mean_job_run(b) for b in untraced)
    )
    values["trace.unattributed_s"] = job_wall - workers["root_s"] / n
    out.metrics = values
    out.table = _layer_table(values, job_wall)
    out.notes.update(
        traced_batches=n, untraced_batches=len(untraced), worker_job_wall_s=job_wall,
        worker_snapshots=len(list(capture.iterdir())),
    )
    out.trace_doc = {"parent_spans": tracer.spans, "parent": parent, "workers": workers}
    return out
