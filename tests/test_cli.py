"""Tests for the mpcgs command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_cli, build_parser, main
from repro.sequences.phylip import write_phylip
from repro.simulate.datasets import synthesize_dataset


@pytest.fixture
def phylip_file(tmp_path, rng):
    data = synthesize_dataset(n_sequences=6, n_sites=80, true_theta=1.0, rng=rng)
    path = tmp_path / "seqs.phy"
    write_phylip(data.alignment, path)
    return str(path)


class TestParser:
    def test_required_arguments(self):
        parser = build_parser()
        args = parser.parse_args(["data.phy", "0.5"])
        assert args.sequence_file == "data.phy"
        assert args.initial_theta == 0.5
        assert args.engine == "fused"

    def test_options(self):
        args = build_parser().parse_args(
            ["d.phy", "1.0", "--proposals", "8", "--samples", "50", "--engine", "serial",
             "--model", "F84", "--seed", "3", "--quiet"]
        )
        assert args.proposals == 8
        assert args.samples == 50
        assert args.engine == "serial"
        assert args.model == "F84"
        assert args.quiet

    def test_missing_arguments_exit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["d.phy", "1.0", "--engine", "gpu"])


class TestMain:
    def test_end_to_end_estimate(self, phylip_file, capsys):
        rc = main(
            [
                phylip_file,
                "0.5",
                "--samples", "40",
                "--burn-in", "10",
                "--proposals", "4",
                "--em-iterations", "2",
                "--seed", "7",
            ]
        )
        captured = capsys.readouterr().out
        assert rc == 0
        assert "theta estimate:" in captured
        final = float(captured.strip().splitlines()[-1].split(":")[1])
        assert final > 0

    def test_quiet_mode_prints_only_estimate(self, phylip_file, capsys):
        rc = main(
            [phylip_file, "0.5", "--samples", "20", "--burn-in", "5", "--proposals", "2",
             "--em-iterations", "1", "--seed", "1", "--quiet"]
        )
        out_lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        assert rc == 0
        assert len(out_lines) == 1
        assert out_lines[0].startswith("theta estimate:")

    def test_missing_file_returns_error_code(self, capsys):
        rc = main(["/nonexistent/file.phy", "1.0"])
        assert rc == 2
        assert "error reading" in capsys.readouterr().err

    def test_malformed_file_returns_error_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.phy"
        bad.write_text("this is not phylip\n")
        assert main([str(bad), "1.0"]) == 2

    def test_negative_theta_rejected(self, phylip_file):
        with pytest.raises(SystemExit):
            main([phylip_file, "-1.0"])

    def test_seed_makes_runs_reproducible(self, phylip_file, capsys):
        outputs = []
        for _ in range(2):
            main(
                [phylip_file, "0.5", "--samples", "30", "--burn-in", "5", "--proposals", "4",
                 "--em-iterations", "1", "--seed", "99", "--quiet"]
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


FAST_ARGS = ["--samples", "20", "--burn-in", "5", "--proposals", "4", "--seed", "7"]


class TestSubcommandParser:
    def test_subcommands_exist(self):
        parser = build_cli()
        for command in ("run", "bayes", "baseline", "info"):
            args = parser.parse_args([command] if command == "info" else [command, "d.phy", "1.0"])
            assert args.command == command

    def test_unknown_subcommand_falls_back_to_legacy(self, phylip_file, capsys):
        # A PHYLIP path is not a subcommand, so the flat interface still works.
        rc = main([phylip_file, "0.5", *FAST_ARGS, "--em-iterations", "1", "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("theta estimate:")


class TestRunSubcommand:
    def test_matches_legacy_estimate(self, phylip_file, capsys):
        legacy_argv = [phylip_file, "0.5", *FAST_ARGS, "--em-iterations", "2", "--quiet"]
        assert main(legacy_argv) == 0
        legacy_out = capsys.readouterr().out
        assert main(["run", *legacy_argv]) == 0
        assert capsys.readouterr().out == legacy_out

    def test_config_spec_drives_the_run(self, phylip_file, tmp_path, capsys):
        spec = {
            "sequence_file": phylip_file,
            "theta0": 0.5,
            "seed": 7,
            "config": {
                "sampler": "gmh",
                "chain": {"n_proposals": 4, "n_samples": 20, "burn_in": 5},
                "n_em_iterations": 2,
            },
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["run", "--config", str(spec_path), "--quiet"]) == 0
        from_spec = capsys.readouterr().out
        assert main([phylip_file, "0.5", *FAST_ARGS, "--em-iterations", "2", "--quiet"]) == 0
        assert from_spec == capsys.readouterr().out

    def test_json_report(self, phylip_file, capsys):
        rc = main(["run", phylip_file, "0.5", *FAST_ARGS, "--em-iterations", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampler"] == "gmh"
        assert payload["theta"] > 0
        assert payload["config"]["chain"]["n_proposals"] == 4

    def test_save_config_writes_resolved_spec(self, phylip_file, tmp_path, capsys):
        out = tmp_path / "resolved.json"
        rc = main(
            ["run", phylip_file, "0.5", *FAST_ARGS, "--em-iterations", "1",
             "--save-config", str(out), "--quiet"]
        )
        assert rc == 0
        saved = json.loads(out.read_text())
        assert saved["sequence_file"] == phylip_file
        assert saved["config"]["chain"]["n_proposals"] == 4
        capsys.readouterr()

    def test_non_gmh_sampler_end_to_end(self, phylip_file, capsys):
        rc = main(
            ["run", phylip_file, "0.5", "--sampler", "multichain", "--n-chains", "2",
             *FAST_ARGS, "--em-iterations", "1", "--quiet"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("theta estimate:")

    def test_bayesian_rejected_with_pointer_to_bayes(self, phylip_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"sequence_file": phylip_file, "sampler": "bayesian"}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(spec_path)])

    def test_missing_sequence_file_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["run", "--seed", "1"])

    def test_unreadable_file_returns_error_code(self, capsys):
        assert main(["run", "/nonexistent/file.phy", "1.0", "--quiet"]) == 2
        assert "error reading" in capsys.readouterr().err


class TestBaselineSubcommand:
    def test_defaults_to_lamarc(self, phylip_file, capsys):
        rc = main(["baseline", phylip_file, "0.5", *FAST_ARGS, "--em-iterations", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sampler=lamarc" in out
        assert "theta estimate:" in out

    def test_heated_baseline(self, phylip_file, capsys):
        rc = main(
            ["baseline", phylip_file, "0.5", "--sampler", "heated", "--n-chains", "2",
             *FAST_ARGS, "--em-iterations", "1", "--quiet"]
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("theta estimate:")


class TestBayesSubcommand:
    def test_posterior_summaries(self, phylip_file, capsys):
        rc = main(["bayes", phylip_file, *FAST_ARGS])
        assert rc == 0
        out = capsys.readouterr().out
        assert "posterior mean theta:" in out
        assert "credible interval" in out

    def test_json_report(self, phylip_file, capsys):
        rc = main(["bayes", phylip_file, *FAST_ARGS, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampler"] == "bayesian"
        assert payload["diagnostics"]["mode"] == "bayesian"

    def test_seeded_runs_reproducible(self, phylip_file, capsys):
        outputs = []
        for _ in range(2):
            assert main(["bayes", phylip_file, *FAST_ARGS, "--quiet"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestInfoSubcommand:
    def test_lists_all_registries(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for section in ("samplers:", "engines:", "models:"):
            assert section in out
        for name in ("gmh", "lamarc", "multichain", "heated", "bayesian"):
            assert name in out
        assert "batched" in out
        assert "fused" in out
        assert "F81" in out

    def test_json_output(self, capsys):
        assert main(["info", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["samplers"]) == {"bayesian", "gmh", "heated", "lamarc", "multichain"}
        assert "fused" in payload["engines"]
        assert "version" in payload


class TestSamplerSwitchHygiene:
    """CLI regression tests for stale-option and case-normalization crashes."""

    def test_sampler_override_drops_spec_options(self, phylip_file, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "sequence_file": phylip_file,
                    "theta0": 0.5,
                    "seed": 7,
                    "config": {
                        "sampler": "multichain",
                        "sampler_options": {"n_chains": 2},
                        "chain": {"n_proposals": 4, "n_samples": 20, "burn_in": 5},
                        "n_em_iterations": 1,
                    },
                }
            )
        )
        assert main(["run", "--config", str(spec_path), "--sampler", "gmh", "--quiet"]) == 0
        assert capsys.readouterr().out.startswith("theta estimate:")

    def test_n_chains_rejected_for_single_chain_samplers(self, phylip_file):
        with pytest.raises(SystemExit):
            main(["run", phylip_file, "0.5", "--n-chains", "3", *FAST_ARGS])

    def test_mixed_case_bayesian_spec_still_routed_to_bayes_error(self, phylip_file, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"sequence_file": phylip_file, "sampler": "Bayesian"}))
        with pytest.raises(SystemExit):
            main(["run", "--config", str(spec_path)])


class TestServiceCLI:
    """``mpcgs submit`` / ``serve`` / ``status``: the experiment service."""

    @pytest.fixture
    def spec_file(self, phylip_file, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "sequence_file": phylip_file,
                    "theta0": 1.0,
                    "seed": 7,
                    "config": {
                        "n_em_iterations": 2,
                        "sampler": {"n_samples": 20, "burn_in": 5, "n_proposals": 4},
                    },
                }
            )
        )
        return str(path)

    def test_submit_serve_status_flow(self, spec_file, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["submit", spec_file, "--spool", spool]) == 0
        out = capsys.readouterr().out
        assert "state: queued" in out
        job_id = out.splitlines()[0].split(": ")[1]

        assert main(["serve", "--spool", spool, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "1 completed (1 executed, 0 cache hits)" in out

        assert main(["status", job_id, "--spool", spool]) == 0
        out = capsys.readouterr().out
        assert "state: done" in out
        assert "theta estimate:" in out
        assert "em.iteration_completed" in out or "run.completed" in out

    def test_duplicate_submit_is_cache_hit(self, spec_file, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["submit", spec_file, "--spool", spool]) == 0
        capsys.readouterr()
        assert main(["serve", "--spool", spool, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["submit", spec_file, "--spool", spool]) == 0
        out = capsys.readouterr().out
        assert "cache hit" in out

    def test_submit_json_output(self, spec_file, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["submit", spec_file, "--spool", spool, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["state"] == "queued"
        assert len(record["spec_hash"]) == 64

    def test_status_unknown_job(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["status", "job-000042-nope", "--spool", spool]) == 2
        assert "unknown job id" in capsys.readouterr().err

    def test_submit_missing_spec(self, tmp_path, capsys):
        spool = str(tmp_path / "spool")
        assert main(["submit", str(tmp_path / "absent.json"), "--spool", spool]) == 2
        assert "error submitting" in capsys.readouterr().err

    def test_serve_reports_failure_exit_code(self, phylip_file, tmp_path, capsys):
        # A spec naming a data file that vanishes after submit fails the job
        # deterministically (no retries) and serve exits non-zero.
        data = tmp_path / "gone.phy"
        data.write_text((tmp_path / "spec_src.phy").name)  # placeholder content
        import shutil

        shutil.copyfile(phylip_file, data)
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "sequence_file": str(data),
                    "theta0": 1.0,
                    "seed": 7,
                    "config": {
                        "n_em_iterations": 1,
                        "sampler": {"n_samples": 10, "burn_in": 5, "n_proposals": 2},
                    },
                }
            )
        )
        spool = str(tmp_path / "spool")
        assert main(["submit", str(spec), "--spool", spool]) == 0
        capsys.readouterr()
        data.unlink()
        assert main(["serve", "--spool", spool, "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "1 failed" in out
