"""The repository benchmark: a whole EM run, and each layer, on three workloads.

    python3 perfbench/run.py --workload em-long --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It generates the workload's inputs from
``--seed`` (PHYLIP files and spec documents), then, with ``--trace 0``, times
back-to-back runs for ``--seconds`` seconds and reports every end-to-end
metric; with ``--trace 1`` it reports the per-layer metrics, from a traced
half of the run compared against an untraced half.  Every run checks its
results; the last line of standard output is one JSON object::

    {"correct": true, "attempted": 46, "failed": 0, "metrics": {...}}

and the exit code is non-zero when any check failed.  Workloads, metrics and
their bounds are declared in ``BENCHMARK.json``; ``perfbench/README.md``
describes them.  Scratch files go to ``.perfbench_work/`` (removed on exit);
traced runs leave their spans in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread per process, so the two service workers do not contend
# with OpenBLAS threads.  Set before numpy is first imported.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_THREADS)

ROOT = Path.cwd()
WORKLOADS = ("em-long", "em-deep", "service-batch")


def environment(notes: dict) -> dict:
    """What the numbers depend on besides the code."""
    import hashlib
    import multiprocessing
    import platform
    import subprocess

    import numpy
    import scipy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "engine": notes.get("engine"),
        "engine_class": notes.get("engine_class"),
    }


def declared(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def print_report(args, outcome, env: dict, units: dict[str, str]) -> None:
    from layers import LAYER_METRICS

    why = {name: moves for name, _, moves in LAYER_METRICS}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if outcome.table:
        print(f"{'layer metric':40s} {'value':>14s} {'unit':9s} {'share':>7s}  should move")
        for name, value, unit, share in outcome.table:
            pct = f"{100 * share:6.1f}%" if share is not None else ""
            print(f"{name:40s} {value:14.6g} {unit:9s} {pct:>7s}  {why[name]}")
    else:
        for name, value in outcome.metrics.items():
            print(f"{name:24s} {value:14.6g} {units[name]}")
    print("notes " + json.dumps(outcome.notes, sort_keys=True, default=str))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (needs src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import inputs
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        generated = inputs.generate(args.workload, args.seed, work)
        run = workloads.service_workload if args.workload == "service-batch" else workloads.em_workload
        outcome = run(generated, args.seconds, bool(args.trace), ROOT, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = declared(bool(args.trace))
    if set(units) != set(outcome.metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(units) ^ set(outcome.metrics)}")
    env = environment(outcome.notes)
    print_report(args, outcome, env, units)
    if outcome.trace_doc is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        doc = {"environment": env, "notes": outcome.notes, "metrics": outcome.metrics,
               **outcome.trace_doc}
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc, default=str))
        print(f"spans written to {path.relative_to(ROOT)}")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
