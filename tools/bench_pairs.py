#!/usr/bin/env python
"""Alternating parent/change pairs of the repository benchmark, with a verdict.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload em-deep --seed 1 --pairs 10
    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --control CONTROL_DIR ...

Each directory is a full checkout (e.g. the parent made with ``git archive``
into a scratch directory).  Pair ``i`` runs ``perfbench/run.py`` once in each
checkout, the parent first on even pairs and the change first on odd ones,
with identical arguments.  With ``--control``, ``CONTROL_DIR`` is a second
fresh checkout of the parent: every pair runs it too, first, between the
other two or last (parent and change still alternate), so the pairs
measure an A/A difference
(parent against an identical parent) under the same conditions as the
change.  For every end-to-end metric declared in the change's
``BENCHMARK.json`` it prints each side's median and quartiles, how many pairs
the change won (ties count for neither side), with a control the control's
median and its difference from the parent's (the A/A noise the verdict has
to beat), and a verdict:

* ``gain``: the change won at least nine tenths of the pairs and the medians
  differ, in the better direction, by more than the parent's quartile
  distance;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound (a fraction of the parent median);
* ``unresolved``: neither, and the parent's quartile distance is wider than
  the bound, so no regression can be ruled out; ``better`` instead when
  every change run reads better than every parent run;
* ``within bound``: otherwise.

Every side must produce bit-identical θ trajectories: the script exits with
status 1 when the ``theta_trajectory_hashes`` notes of any run differ from
the first parent run's, and with status 2 when a run fails or reports a
failed check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

WIN_SHARE = 0.9


@dataclass
class RunResult:
    """What one ``perfbench/run.py`` invocation reported."""

    metrics: dict[str, float]
    hashes: dict[str, str]
    correct: bool
    failed: int


@dataclass
class Sides:
    """Every run of every side, in pair order (``control`` stays empty without one)."""

    parent: list[RunResult] = field(default_factory=list)
    change: list[RunResult] = field(default_factory=list)
    control: list[RunResult] = field(default_factory=list)


def parse_output(text: str) -> RunResult:
    """Read the result line (the last line) and the ``notes`` line of a run."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed nothing")
    result = json.loads(lines[-1])
    notes: dict = {}
    for line in lines:
        if line.startswith("notes "):
            notes = json.loads(line[len("notes "):])
    return RunResult(
        metrics={name: float(entry["value"]) for name, entry in result["metrics"].items()},
        hashes=dict(notes.get("theta_trajectory_hashes", {})),
        correct=bool(result["correct"]),
        failed=int(result["failed"]),
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired samples of one metric by the alternating-pairs rule."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    parent_iqr = p_q3 - p_q1
    gain = sign * (c_median - p_median)
    if wins >= WIN_SHARE * len(parent) and gain > parent_iqr:
        status = "gain"
    elif -gain > bound * abs(p_median):
        status = "worse"
    elif parent_iqr > bound * abs(p_median):
        every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
        status = "better" if every_run_better else "unresolved"
    else:
        status = "within bound"
    return {
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "parent_iqr": parent_iqr,
        "status": status,
    }


def hash_mismatches(sides: Sides) -> list[str]:
    """Descriptions of runs whose θ-trajectory hashes differ from the first parent run."""
    runs = [
        (side, i, r)
        for side in ("parent", "change", "control")
        for i, r in enumerate(getattr(sides, side))
    ]
    if not runs:
        return []
    reference = runs[0][2].hashes
    return [
        f"{side} run {i}: {run.hashes} != {reference}"
        for side, i, run in runs
        if run.hashes != reference
    ]


def run_once(checkout: Path, args: argparse.Namespace) -> RunResult:
    command = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    out = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        return parse_output(out.stdout)
    except (ValueError, KeyError) as exc:
        raise RuntimeError(
            f"{checkout}: benchmark exited {out.returncode} without a result line\n"
            f"{out.stderr[-2000:]}"
        ) from exc


def report(sides: Sides, benchmark: dict) -> list[str]:
    """One line per end-to-end metric present in every run."""
    lines = []
    for entry in benchmark["end_to_end"]:
        name = entry["name"]
        if not all(name in r.metrics for r in sides.parent + sides.change + sides.control):
            continue
        v = verdict(
            [r.metrics[name] for r in sides.parent],
            [r.metrics[name] for r in sides.change],
            entry["better"],
            float(entry["bound"]),
        )
        (pq1, pm, pq3), (cq1, cm, cq3) = v["parent"], v["change"]
        control = ""
        if sides.control:
            am = statistics.median(r.metrics[name] for r in sides.control)
            control = f"control {am:.4g} (A/A {(am - pm) / abs(pm):+.1%})  "
        lines.append(
            f"{name:18s} parent {pm:.4g} [{pq1:.4g}, {pq3:.4g}]  "
            f"change {cm:.4g} [{cq1:.4g}, {cq3:.4g}]  "
            f"wins {v['wins']}/{v['pairs']} (losses {v['losses']})  "
            f"parent IQR {v['parent_iqr']:.3g}  {control}{v['status']}"
        )
    return lines


def pair_order(i: int, checkouts: dict[str, Path]) -> list[tuple[str, Path]]:
    """The runs of pair ``i``: parent and change alternate which goes first;
    a control goes first, between them or last, moving on every two pairs,
    so six pairs run the three checkouts in all six orders."""
    pair = [("parent", checkouts["parent"]), ("change", checkouts["change"])]
    if i % 2:
        pair.reverse()
    if "control" in checkouts:
        pair.insert((i // 2) % 3, ("control", checkouts["control"]))
    return pair


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument(
        "--control", type=Path, default=None,
        help="a second fresh checkout of the parent, run in every pair for an A/A difference",
    )
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent, "change": args.change}
    if args.control is not None:
        checkouts["control"] = args.control
    sides = Sides()
    for i in range(args.pairs):
        for side, checkout in pair_order(i, checkouts):
            try:
                result = run_once(checkout, args)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            getattr(sides, side).append(result)
            shown = ", ".join(f"{k}={v:.4g}" for k, v in sorted(result.metrics.items()))
            print(f"pair {i} {side}: {shown}", flush=True)
            if not result.correct or result.failed:
                print(f"{side} run reported {result.failed} failed checks", file=sys.stderr)
                return 2

    print(f"{args.workload} seed={args.seed} pairs={args.pairs} seconds={args.seconds}")
    for line in report(sides, benchmark):
        print(line)
    mismatches = hash_mismatches(sides)
    for line in mismatches:
        print(f"theta trajectory mismatch: {line}", file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
