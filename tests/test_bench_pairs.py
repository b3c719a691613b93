"""``tools/bench_pairs.py``: result parsing and the alternating-pairs verdict.

Canned benchmark output only; no benchmark runs here.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    path = REPO_ROOT / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    # Registered before executing: dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_tool()


def _output(em_wall_s: float, hashes: dict[str, str], failed: int = 0) -> str:
    metrics = {
        "em_wall_s": {"value": em_wall_s, "unit": "s"},
        "peak_rss_mb": {"value": 53.4, "unit": "MiB"},
    }
    notes = {"em_runs": 20, "theta_trajectory_hashes": hashes}
    result = {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics}
    return "\n".join(
        [
            "perfbench em-deep seed=1 seconds=30.0 trace=0",
            'environment {"nproc": 2}',
            f"em_wall_s                      {em_wall_s} s",
            "notes " + json.dumps(notes, sort_keys=True),
            json.dumps(result),
            "",
        ]
    )


HASHES = {"data0.phy": "d3ea6385d5a50837", "data1.phy": "a59cfea5ac6d94a9"}


class TestParse:
    def test_reads_metrics_hashes_and_checks(self):
        run = bench_pairs.parse_output(_output(0.712, HASHES))
        assert run.metrics == {"em_wall_s": 0.712, "peak_rss_mb": 53.4}
        assert run.hashes == HASHES
        assert run.correct and run.failed == 0

    def test_failed_checks_are_reported(self):
        run = bench_pairs.parse_output(_output(0.7, HASHES, failed=2))
        assert not run.correct and run.failed == 2

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError):
            bench_pairs.parse_output("\n")


class TestVerdict:
    def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr(self):
        parent = [0.86, 0.85, 0.88, 0.84, 0.87, 0.86, 0.90, 0.85, 0.86, 0.87]
        change = [0.70, 0.69, 0.71, 0.68, 0.70, 0.69, 0.72, 0.70, 0.69, 0.70]
        v = bench_pairs.verdict(parent, change, "lower", 0.25)
        assert (v["wins"], v["losses"], v["pairs"]) == (10, 0, 10)
        assert v["status"] == "gain"
        assert v["parent"][1] == pytest.approx(0.86)
        assert v["change"][1] == pytest.approx(0.70)

    def test_eight_wins_in_ten_is_not_a_gain(self):
        parent = [1.0] * 10
        change = [0.8] * 8 + [1.2, 1.2]
        v = bench_pairs.verdict(parent, change, "lower", 0.25)
        assert v["wins"] == 8
        assert v["status"] == "within bound"

    def test_ties_count_for_neither_side(self):
        v = bench_pairs.verdict([1.0, 1.0], [1.0, 0.9], "lower", 0.25)
        assert (v["wins"], v["losses"]) == (1, 0)

    def test_higher_is_better_metrics(self):
        parent = [1.10, 1.11, 1.09, 1.10, 1.12, 1.10, 1.08, 1.10, 1.11, 1.10]
        change = [1.33, 1.34, 1.32, 1.35, 1.33, 1.34, 1.33, 1.31, 1.36, 1.34]
        assert bench_pairs.verdict(parent, change, "higher", 0.25)["status"] == "gain"
        assert bench_pairs.verdict(change, parent, "higher", 0.1)["status"] == "worse"

    def test_worse_beyond_bound(self):
        v = bench_pairs.verdict([53.0, 53.1, 53.0], [60.0, 60.1, 60.2], "lower", 0.1)
        assert v["status"] == "worse"

    def test_wide_parent_spread_is_unresolved_unless_every_run_is_better(self):
        parent = [1.0, 2.0, 1.0, 2.0]
        mixed = [1.5, 1.5, 1.5, 1.5]
        assert bench_pairs.verdict(parent, mixed, "lower", 0.1)["status"] == "unresolved"
        assert bench_pairs.verdict(parent, [0.9] * 4, "lower", 0.1)["status"] == "better"


class TestHashes:
    def test_identical_hashes_pass(self):
        sides = bench_pairs.Sides(
            parent=[bench_pairs.parse_output(_output(0.8, HASHES))],
            change=[bench_pairs.parse_output(_output(0.7, HASHES))],
        )
        assert bench_pairs.hash_mismatches(sides) == []

    def test_a_changed_trajectory_is_flagged(self):
        moved = dict(HASHES, **{"data1.phy": "0000000000000000"})
        sides = bench_pairs.Sides(
            parent=[bench_pairs.parse_output(_output(0.8, HASHES))],
            change=[bench_pairs.parse_output(_output(0.7, moved))],
        )
        (line,) = bench_pairs.hash_mismatches(sides)
        assert line.startswith("change run 0")

    def test_report_lists_each_metric_with_its_verdict(self):
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        sides = bench_pairs.Sides(
            parent=[bench_pairs.parse_output(_output(w, HASHES)) for w in (0.86, 0.85, 0.87)],
            change=[bench_pairs.parse_output(_output(w, HASHES)) for w in (0.70, 0.69, 0.71)],
        )
        lines = bench_pairs.report(sides, benchmark)
        assert [line.split()[0] for line in lines] == ["em_wall_s", "peak_rss_mb"]
        assert lines[0].endswith("gain")
        assert "wins 3/3" in lines[0]


    def test_report_shows_the_control_and_its_aa_difference(self):
        benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        sides = bench_pairs.Sides(
            parent=[bench_pairs.parse_output(_output(w, HASHES)) for w in (0.86, 0.85, 0.87)],
            change=[bench_pairs.parse_output(_output(w, HASHES)) for w in (0.70, 0.69, 0.71)],
            control=[bench_pairs.parse_output(_output(w, HASHES)) for w in (0.90, 0.89, 0.91)],
        )
        lines = bench_pairs.report(sides, benchmark)
        assert "control 0.9 (A/A +4.7%)" in lines[0]
        assert lines[0].endswith("gain")
        assert "control 53.4 (A/A +0.0%)" in lines[1]


class TestPairOrder:
    def test_parent_and_change_alternate_without_a_control(self):
        checkouts = {"parent": Path("p"), "change": Path("c")}
        assert [side for side, _ in bench_pairs.pair_order(0, checkouts)] == ["parent", "change"]
        assert [side for side, _ in bench_pairs.pair_order(1, checkouts)] == ["change", "parent"]

    def test_a_control_visits_every_position(self):
        checkouts = {"parent": Path("p"), "change": Path("c"), "control": Path("a")}
        orders = [tuple(side for side, _ in bench_pairs.pair_order(i, checkouts)) for i in range(6)]
        assert orders[0] == ("control", "parent", "change")
        assert orders[1] == ("control", "change", "parent")
        assert len(set(orders)) == 6
        assert bench_pairs.pair_order(6, checkouts) == bench_pairs.pair_order(0, checkouts)

    def test_parent_runs_first_in_half_the_pairs_with_a_control(self):
        checkouts = {"parent": Path("p"), "change": Path("c"), "control": Path("a")}
        for pairs in (2, 4, 10, 12):
            orders = [[side for side, _ in bench_pairs.pair_order(i, checkouts)]
                      for i in range(pairs)]
            parent_first = sum(o.index("parent") < o.index("change") for o in orders)
            assert parent_first == pairs // 2


class TestMain:
    @staticmethod
    def _run(monkeypatch, outputs: dict[str, list[str]], control: bool = False) -> int:
        """``main`` over two pairs, with each side's runs replaced by canned output."""
        def run_once(checkout, args):
            return bench_pairs.parse_output(outputs[checkout.name].pop(0))

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        argv = [str(REPO_ROOT / "parent"), str(REPO_ROOT), "--workload", "em-deep", "--pairs", "2"]
        if control:
            argv += ["--control", str(REPO_ROOT / "control")]
        return bench_pairs.main(argv)

    def test_a_control_runs_in_every_pair_and_is_reported(self, monkeypatch, capsys):
        outputs = {
            "parent": [_output(0.86, HASHES), _output(0.85, HASHES)],
            REPO_ROOT.name: [_output(0.70, HASHES), _output(0.69, HASHES)],
            "control": [_output(0.88, HASHES), _output(0.87, HASHES)],
        }
        assert self._run(monkeypatch, outputs, control=True) == 0
        # Every checkout ran once in each pair.
        assert all(not left for left in outputs.values())
        out = capsys.readouterr().out
        assert "pair 1 control" in out
        assert "control 0.875 (A/A +2.3%)" in out

    def test_a_control_with_a_moved_trajectory_exits_one(self, monkeypatch):
        moved = dict(HASHES, **{"data0.phy": "0000000000000000"})
        outputs = {
            "parent": [_output(0.86, HASHES), _output(0.85, HASHES)],
            REPO_ROOT.name: [_output(0.70, HASHES), _output(0.69, HASHES)],
            "control": [_output(0.88, HASHES), _output(0.87, moved)],
        }
        assert self._run(monkeypatch, outputs, control=True) == 1

    def test_identical_trajectories_exit_zero(self, monkeypatch, capsys):
        outputs = {
            "parent": [_output(0.86, HASHES), _output(0.85, HASHES)],
            REPO_ROOT.name: [_output(0.70, HASHES), _output(0.69, HASHES)],
        }
        assert self._run(monkeypatch, outputs) == 0
        assert "em_wall_s" in capsys.readouterr().out

    def test_a_moved_trajectory_exits_one(self, monkeypatch):
        moved = dict(HASHES, **{"data0.phy": "0000000000000000"})
        outputs = {
            "parent": [_output(0.86, HASHES), _output(0.85, HASHES)],
            REPO_ROOT.name: [_output(0.70, HASHES), _output(0.69, moved)],
        }
        assert self._run(monkeypatch, outputs) == 1

    def test_a_failed_check_exits_two(self, monkeypatch):
        outputs = {
            "parent": [_output(0.86, HASHES)],
            REPO_ROOT.name: [_output(0.70, HASHES, failed=1)],
        }
        assert self._run(monkeypatch, outputs) == 2
