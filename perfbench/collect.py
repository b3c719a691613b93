"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --workloads em-long em-deep --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --trace-seed 1 --baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median over seeds and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound is flagged (``setup_s`` is exempt: only its median is compared).
``--trace-seed`` adds one traced run per workload, and ``--baseline`` writes
everything, with the per-layer split, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()

    def tagged(tag: str) -> dict:
        return json.loads(next(l for l in lines if l.startswith(tag + " "))[len(tag) + 1:])

    return {"result": json.loads(lines[-1]), "environment": tagged("environment"),
            "notes": tagged("notes")}


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        environment = None
        for seed in args.seeds:
            out = run(workload, seed, args.seconds, 0)
            environment = out["environment"]
            for name, metric in out["result"]["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        entry = {"environment": environment, "seeds": args.seeds, "end_to_end": {}}
        for name, series in values.items():
            median, share = spread(series)
            ok = name == "setup_s" or share < bounds[name] / 3
            steady &= ok
            entry["end_to_end"][name] = {"median": median, "iqr_share": share, "values": series}
            print(f"  {name:20s} median {median:12.6g}  spread {100 * share:5.1f}%"
                  f"  bound {100 * bounds[name]:4.0f}%  {'ok' if ok else 'TOO WIDE'}", flush=True)
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, args.seconds, 1)
            # Seconds inside EM runs, as a share of the traced runs' wall time.
            wall = traced["notes"].get("traced_wall_s") or traced["notes"]["worker_job_wall_s"]
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer"] = {
                name: {"value": m["value"], "unit": m["unit"]}
                | ({"share": m["value"] / wall}
                   if m["unit"] == "s" and not name.startswith("service.") else {})
                for name, m in traced["result"]["metrics"].items()
            }
        summary[workload] = entry
    if args.baseline is not None:
        sys.path.insert(0, str(Path(__file__).parent))
        from layers import LAYER_METRICS

        doc = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        doc["workloads_why"] = {w["name"]: w["why"] for w in bench["workloads"]}
        doc["end_to_end"] = {m["name"]: {"unit": m["unit"], "bound": m["bound"]}
                             for m in bench["end_to_end"]}
        doc["per_layer"] = {name: {"unit": unit, "should_move": moves}
                            for name, unit, moves in LAYER_METRICS}
        doc.setdefault("results", {}).update(summary)
        args.baseline.write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
