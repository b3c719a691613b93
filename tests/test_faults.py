"""Deterministic fault injection and the machinery it exercises.

Covers the :mod:`repro.service.faults` primitives (plans, injectors,
named-stream determinism), the torn-write hooks in the event recorder and
job records, the typed numerical-health path in the likelihood engines, the
runner's engine-degradation ladder — and the headline chaos invariant: a
seeded 20-job batch under 10% crash/hang/NaN rates drains with every job
either *done with a report bit-identical to the unfaulted run* or *failed
with a typed error*, leaving no orphaned leases and emitting monotone
backoff delays.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import RunSpec
from repro.backend.rng_registry import named_stream
from repro.baselines.multichain import WorkerCrashError
from repro.core.config import MPCGSConfig, SamplerConfig
from repro.likelihood.engines import (
    DEGRADATION_LADDER,
    NumericalFaultError,
    checked_loglik,
)
from repro.sequences.phylip import write_phylip
from repro.service import (
    FAULT_PLAN_ENV,
    Event,
    ExperimentService,
    FaultPlan,
    JSONLRecorder,
    current_injector,
    fault_scope,
    read_events,
    stable_job_key,
)
from repro.service import runner as runner_module
from repro.service.runner import JobRecord
from repro.simulate.datasets import synthesize_dataset

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: Report fields that legitimately differ between engines / executions:
#: timing, and the engine identity embedded in the config.  Everything else
#: must match across retries, and across the engine ladder at the tests'
#: fixed seeds (the ladder's engines differ in the last bits, so a different
#: seed could flip an accept decision).
SCRUB_KEYS = {
    "wall_time_seconds",
    "likelihood_engine",
    "config",
    "parallel_wall_seconds",
    "engine",
}


def scrub(doc):
    """Strip timing/engine-identity fields, recursively."""
    if isinstance(doc, dict):
        return {k: scrub(v) for k, v in doc.items() if k not in SCRUB_KEYS}
    if isinstance(doc, list):
        return [scrub(v) for v in doc]
    return doc


CHAOS_CONFIG = MPCGSConfig(
    n_em_iterations=2,
    sampler=SamplerConfig(n_samples=10, burn_in=3, n_proposals=2),
)


@pytest.fixture
def phylip_file(tmp_path, rng):
    data = synthesize_dataset(n_sequences=5, n_sites=60, true_theta=1.0, rng=rng)
    path = tmp_path / "seqs.phy"
    write_phylip(data.alignment, path)
    return str(path)


def make_spec(phylip_file, seed):
    return RunSpec(config=CHAOS_CONFIG, sequence_file=phylip_file, theta0=1.0, seed=seed)


# ---------------------------------------------------------------------------
# FaultPlan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError, match="worker_crash_rate"):
            FaultPlan(worker_crash_rate=1.5)
        with pytest.raises(ValueError, match="nan_rate"):
            FaultPlan(nan_rate=-0.1)
        with pytest.raises(ValueError, match="hang_seconds"):
            FaultPlan(hang_seconds=-1.0)
        with pytest.raises(ValueError, match="nan_window"):
            FaultPlan(nan_window=0)

    def test_enabled_only_with_nonzero_rates(self):
        assert not FaultPlan().enabled
        assert not FaultPlan(seed=9, hang_seconds=1.0).enabled
        assert FaultPlan(torn_write_rate=0.01).enabled

    def test_round_trip_ignores_unknown_keys(self):
        plan = FaultPlan(seed=3, worker_crash_rate=0.2, nan_rate=0.1, nan_window=8)
        doc = plan.to_dict()
        doc["some_future_knob"] = "ignored"
        assert FaultPlan.from_dict(doc) == plan

    def test_coerce_accepts_every_spelling(self, tmp_path):
        plan = FaultPlan(seed=5, worker_hang_rate=0.25)
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(json.dumps(plan.to_dict())) == plan
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.coerce(path) == plan
        assert FaultPlan.coerce(str(path)) == plan

    def test_from_env(self, tmp_path):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULT_PLAN_ENV: "  "}) is None
        plan = FaultPlan(seed=1, torn_write_rate=0.5)
        inline = FaultPlan.from_env({FAULT_PLAN_ENV: json.dumps(plan.to_dict())})
        assert inline == plan
        path = plan.save(tmp_path / "p.json")
        assert FaultPlan.from_env({FAULT_PLAN_ENV: str(path)}) == plan

    def test_service_constructor_coerces_and_normalizes(self, tmp_path):
        # A disabled plan (all rates zero) is normalized away entirely.
        service = ExperimentService(tmp_path / "a", fault_plan=FaultPlan())
        assert service.fault_plan is None
        service = ExperimentService(
            tmp_path / "b", fault_plan={"seed": 2, "nan_rate": 0.1}
        )
        assert service.fault_plan == FaultPlan(seed=2, nan_rate=0.1)


class TestStableJobKey:
    def test_strips_the_random_suffix(self):
        assert stable_job_key("job-000007-9f2c1a") == "job-000007"
        assert stable_job_key("job-000007") == "job-000007"

    def test_foreign_ids_pass_through(self):
        assert stable_job_key("my-custom-id") == "my-custom-id"
        assert stable_job_key("job-xyz-1") == "job-xyz-1"


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_draws_are_a_pure_function_of_plan_and_scope(self):
        plan = FaultPlan(seed=11, worker_crash_rate=0.5)
        a = [plan.injector("job-000001", 1).fire("worker_crash") for _ in range(1)]
        seq1 = [plan.injector("job-000001", 1) for _ in range(1)][0]
        seq2 = plan.injector("job-000001", 1)
        draws1 = [seq1.fire("worker_crash") for _ in range(32)]
        draws2 = [seq2.fire("worker_crash") for _ in range(32)]
        assert draws1 == draws2
        assert any(draws1) and not all(draws1)  # rate 0.5 actually mixes
        del a

    def test_scope_changes_the_stream(self):
        plan = FaultPlan(seed=11, worker_crash_rate=0.5)
        base = [plan.injector("job-000001", 1).fire("worker_crash") for _ in range(1)]
        other_job = plan.injector("job-000002", 1)
        other_attempt = plan.injector("job-000001", 2)
        d_job = [other_job.fire("worker_crash") for _ in range(32)]
        d_attempt = [other_attempt.fire("worker_crash") for _ in range(32)]
        ref = plan.injector("job-000001", 1)
        d_ref = [ref.fire("worker_crash") for _ in range(32)]
        assert d_job != d_ref
        assert d_attempt != d_ref
        del base

    def test_zero_rate_never_draws(self):
        injector = FaultPlan(seed=0, worker_crash_rate=0.0).injector("j", 1)
        assert not injector.fire("worker_crash")
        assert injector._streams == {}  # the stream was never even built

    def test_fire_records_triggers_and_notifies(self):
        plan = FaultPlan(seed=0, torn_write_rate=1.0)
        seen = []
        injector = plan.injector("j", 1, on_fault=seen.append)
        assert injector.fire("torn_write", file="x.jsonl")
        assert injector.triggers[0]["site"] == "torn_write"
        assert injector.triggers[0]["file"] == "x.jsonl"
        assert seen == injector.triggers
        assert injector.fire("torn_write", notify=False)
        assert len(injector.triggers) == 2 and len(seen) == 1

    def test_derived_injectors_share_the_audit_trail(self):
        plan = FaultPlan(seed=0, torn_write_rate=1.0)
        parent = plan.injector("j", 1)
        child = parent.derive("engine", "fused")
        child.fire("torn_write")
        assert parent.triggers == child.triggers
        assert child.scope == ("j", 1, "engine", "fused")

    def test_pulse_raises_typed_crash(self):
        injector = FaultPlan(seed=0, worker_crash_rate=1.0).injector("j", 1)
        with pytest.raises(WorkerCrashError, match="injected worker crash"):
            injector.pulse()

    def test_corrupt_likelihood_is_one_shot(self):
        plan = FaultPlan(seed=0, nan_rate=1.0, nan_window=4)
        injector = plan.injector("j", 1)
        values = [injector.corrupt_likelihood(1.0) for _ in range(16)]
        poisoned = [v for v in values if np.isnan(v)]
        assert len(poisoned) == 1
        offset = injector.triggers[0]["evaluation_offset"]
        assert np.isnan(values[offset])

    def test_corrupt_likelihood_array_copies(self):
        plan = FaultPlan(seed=0, nan_rate=1.0, nan_window=1)  # offset 0: first value
        injector = plan.injector("j", 1)
        original = np.array([1.0, 2.0, 3.0])
        poisoned = injector.corrupt_likelihood(original)
        assert np.isnan(poisoned).sum() == 1
        assert not np.isnan(original).any()  # engine-owned arrays never mutated

    def test_fault_scope_nests_and_restores(self):
        injector = FaultPlan(seed=0, nan_rate=0.5).injector("j", 1)
        inner = injector.derive("inner")
        assert current_injector() is None
        with fault_scope(injector):
            assert current_injector() is injector
            with fault_scope(inner):
                assert current_injector() is inner
            assert current_injector() is injector
        assert current_injector() is None


# ---------------------------------------------------------------------------
# Torn writes (satellite: recorder + record hooks, reader tolerance)
# ---------------------------------------------------------------------------


class TestTornWrites:
    def test_recorder_tears_then_raises_typed_crash(self, tmp_path):
        path = tmp_path / "events.jsonl"
        recorder = JSONLRecorder(path)
        recorder(Event(kind="a.first", payload={"n": 1}))
        injector = FaultPlan(seed=0, torn_write_rate=1.0).injector("j", 1)
        with fault_scope(injector):
            with pytest.raises(WorkerCrashError, match="torn write"):
                recorder(Event(kind="b.torn", payload={"n": 2}))
        text = path.read_text()
        assert not text.endswith("\n")  # the torn fragment has no newline
        # A later (retry) append starts a fresh line, so the torn fragment
        # stays isolated and both valid events are readable.
        recorder(Event(kind="c.after", payload={"n": 3}))
        kinds = [e.kind for e in read_events(path)]
        assert kinds == ["a.first", "c.after"]

    def test_read_events_skips_torn_lines_mid_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps({"event": "x.ok", "time": 1.0})
        path.write_text(good + "\n" + '{"event": "y.torn", "ti' + "\n" + good + "\n")
        kinds = [e.kind for e in read_events(path)]
        assert kinds == ["x.ok", "x.ok"]

    def test_job_record_save_tears_tmp_but_keeps_the_record(self, tmp_path):
        path = tmp_path / "job.json"
        record = JobRecord(job_id="job-000001-aaaaaa", spec_hash="h", state="running")
        record.save(path)
        injector = FaultPlan(seed=0, torn_write_rate=1.0).injector("j", 1)
        updated = JobRecord(job_id="job-000001-aaaaaa", spec_hash="h", state="done")
        with fault_scope(injector):
            with pytest.raises(WorkerCrashError, match="torn write"):
                updated.save(path)
        # The real record is intact (atomic replace never happened) and the
        # half-written temp file is the only debris.
        assert JobRecord.load(path).state == "running"
        debris = list(tmp_path.glob("job.json.tmp-*"))
        assert len(debris) == 1
        with pytest.raises(json.JSONDecodeError):
            json.loads(debris[0].read_text())

    def test_record_save_outside_scope_is_unaffected(self, tmp_path):
        path = tmp_path / "job.json"
        JobRecord(job_id="j", spec_hash="h").save(path)
        assert JobRecord.load(path).job_id == "j"
        assert list(tmp_path.glob("*.tmp-*")) == []


# ---------------------------------------------------------------------------
# Numerical health (engines raise typed errors on non-finite values)
# ---------------------------------------------------------------------------


class TestEngineHealth:
    def test_checked_loglik_passes_finite_values(self):
        assert checked_loglik(-12.5, "X") == -12.5
        arr = np.array([-1.0, -2.0])
        assert checked_loglik(arr, "X") is arr

    def test_checked_loglik_raises_on_nan_and_inf(self):
        with pytest.raises(NumericalFaultError, match="X produced"):
            checked_loglik(float("nan"), "X")
        with pytest.raises(NumericalFaultError):
            checked_loglik(np.array([-1.0, -np.inf]), "Y")

    def test_numerical_fault_is_arithmetic_error(self):
        assert issubclass(NumericalFaultError, ArithmeticError)

    def test_checked_loglik_applies_active_injector(self):
        injector = FaultPlan(seed=0, nan_rate=1.0, nan_window=1).injector("j", 1)
        with fault_scope(injector):
            with pytest.raises(NumericalFaultError):
                checked_loglik(-3.0, "Z")

    def test_ladder_shape(self):
        assert DEGRADATION_LADDER["fused"] == "batched"
        assert DEGRADATION_LADDER["batched"] == "vectorized"
        assert "cached" not in DEGRADATION_LADDER
        assert "vectorized" not in DEGRADATION_LADDER  # the ladder has a floor


# ---------------------------------------------------------------------------
# Engine degradation through the job runner
# ---------------------------------------------------------------------------


def _nan_draw(seed, job_key, attempt, engine, nan_rate):
    """The first nan_likelihood decision drawn for (job, attempt, engine)."""
    stream = named_stream(
        seed, "fault", job_key, attempt, "engine", engine, "nan_likelihood"
    )
    return float(stream.random()) < nan_rate


def _find_degradation_seed(nan_rate, first_engine, fallback):
    """A plan seed where the first engine faults but its fallback is clean."""
    for seed in range(500):
        if _nan_draw(seed, "job-000001", 1, first_engine, nan_rate) and not _nan_draw(
            seed, "job-000001", 1, fallback, nan_rate
        ):
            return seed
    raise AssertionError("no suitable seed in range — rate too extreme?")


class TestDegradation:
    def test_nan_fault_degrades_one_step_and_commits_identical_report(
        self, tmp_path, phylip_file
    ):
        spec = make_spec(phylip_file, seed=41)
        engine = spec.config.likelihood_engine.lower()
        fallback = DEGRADATION_LADDER[engine]

        with ExperimentService(tmp_path / "clean") as service:
            clean_record = service.submit(spec)
            service.serve()
            baseline = service.report_for(clean_record.job_id)

        plan_seed = _find_degradation_seed(0.5, engine, fallback)
        plan = FaultPlan(seed=plan_seed, nan_rate=0.5, nan_window=8)
        with ExperimentService(tmp_path / "chaos", fault_plan=plan) as service:
            record = service.submit(spec)
            stats = service.serve()
        assert stats["completed"] == 1 and stats["failed"] == 0
        final = service.status(record.job_id)
        assert final.state == "done"
        events = service.job_events(record.job_id)
        degraded = [e for e in events if e.kind == "job.degraded"]
        assert len(degraded) == 1
        assert degraded[0].payload["from_engine"] == engine
        assert degraded[0].payload["to_engine"] == fallback
        assert any(e.kind == "fault.injected" for e in events)
        # fused and batched are not bitwise equal: their log-likelihoods
        # differ in the last bits (up to ~1e-13).  So a degraded report
        # equals the unfaulted one, once timing and engine identity are
        # scrubbed, unless such a difference flips an accept decision; at
        # this fixed seed none does.
        assert scrub(service.report_for(record.job_id)) == scrub(baseline)

    def test_exhausted_ladder_fails_with_typed_error(self, tmp_path, phylip_file):
        spec = make_spec(phylip_file, seed=42)
        plan = FaultPlan(seed=0, nan_rate=1.0, nan_window=4)  # every step faults
        with ExperimentService(tmp_path / "spool", fault_plan=plan) as service:
            record = service.submit(spec)
            stats = service.serve()
        assert stats["failed"] == 1
        final = service.status(record.job_id)
        assert final.state == "failed"
        assert final.error.startswith("NumericalFaultError")
        assert final.attempts == 1  # numerical faults are not retried
        kinds = [e.kind for e in service.job_events(record.job_id)]
        assert "job.degraded" in kinds

    def test_injected_crashes_retry_with_monotone_backoff(self, tmp_path, phylip_file):
        spec = make_spec(phylip_file, seed=43)
        plan = FaultPlan(seed=0, worker_crash_rate=1.0)  # dies at the first pulse
        with ExperimentService(
            tmp_path / "spool",
            fault_plan=plan,
            max_retries=2,
            retry_backoff=0.01,
        ) as service:
            record = service.submit(spec)
            stats = service.serve()
        assert stats["failed"] == 1 and stats["retries"] == 2
        final = service.status(record.job_id)
        assert final.state == "failed" and "WorkerCrashError" in final.error
        retrying = [
            e.payload for e in service.job_events(record.job_id) if e.kind == "job.retrying"
        ]
        assert [p["attempt"] for p in retrying] == [1, 2]
        delays = [p["delay_seconds"] for p in retrying]
        assert delays[0] < delays[1]  # exponential base dominates the jitter
        assert all(d > 0 for d in delays)

    def test_backoff_delays_are_deterministic(self, tmp_path):
        service_a = ExperimentService(tmp_path / "a", retry_backoff=0.5)
        service_b = ExperimentService(tmp_path / "b", retry_backoff=0.5)
        rec = JobRecord(job_id="job-000004-aaaaaa", spec_hash="h", attempts=2)
        same_key = JobRecord(job_id="job-000004-bbbbbb", spec_hash="h", attempts=2)
        assert service_a._retry_delay(rec) == service_b._retry_delay(rec)
        # The stream keys on the stable prefix, not the random suffix.
        assert service_a._retry_delay(rec) == service_a._retry_delay(same_key)
        other = JobRecord(job_id="job-000005-cccccc", spec_hash="h", attempts=2)
        assert service_a._retry_delay(other) != service_a._retry_delay(rec)


# ---------------------------------------------------------------------------
# The chaos invariant: a seeded batch drains correctly under 10% fault rates
# ---------------------------------------------------------------------------


CHAOS_PLAN = dict(
    seed=20260808,
    worker_crash_rate=0.10,
    worker_hang_rate=0.10,
    torn_write_rate=0.10,
    nan_rate=0.10,
    hang_seconds=60.0,
    nan_window=8,
)
N_CHAOS_JOBS = 20


class TestChaosBatch:
    def test_seeded_batch_drains_with_bit_identical_survivors(
        self, tmp_path, phylip_file
    ):
        specs = [make_spec(phylip_file, seed=100 + i) for i in range(N_CHAOS_JOBS)]

        # Unfaulted baseline, keyed by spec hash.
        baseline: dict[str, dict] = {}
        with ExperimentService(tmp_path / "baseline") as service:
            records = [service.submit(spec) for spec in specs]
            start = time.perf_counter()
            service.serve()
            per_job_seconds = (time.perf_counter() - start) / N_CHAOS_JOBS
            for record in records:
                report = service.report_for(record.job_id)
                assert report is not None
                baseline[record.spec_hash] = scrub(report)

        # Every injected hang lasts until the job timeout cuts it off, so the
        # timeout, not the jobs, sets this test's run time.  Twenty times the
        # unfaulted per-job wall time (at least 1 s) still leaves a healthy
        # job far from the cutoff on a slow machine; a spurious cutoff would
        # only cost a retry, which the invariants below tolerate.
        job_timeout = max(1.0, 20.0 * per_job_seconds)
        plan = FaultPlan(**CHAOS_PLAN)
        with ExperimentService(
            tmp_path / "chaos",
            n_workers=2,
            fault_plan=plan,
            max_retries=2,
            retry_backoff=0.05,
            retry_backoff_cap=0.2,
        ) as service:
            records = [service.submit(spec) for spec in specs]
            stats = service.serve(job_timeout=job_timeout)

        assert stats["completed"] + stats["failed"] == N_CHAOS_JOBS
        # The plan's rates make at least one fault of some kind certain at
        # this seed; a chaos run where nothing fired tests nothing.
        assert stats["retries"] + stats["failed"] + stats["timeouts"] > 0
        # The hang path must fire: a shorter timeout may not skip it.
        assert stats["timeouts"] > 0

        finals = [service.status(r.job_id) for r in records]
        typed = ("WorkerCrashError", "JobTimeoutError", "NumericalFaultError")
        for final in finals:
            if final.state == "done":
                # Every surviving job's report is bit-identical to the
                # unfaulted baseline, no matter how many faults it absorbed.
                assert scrub(service.report_for(final.job_id)) == baseline[final.spec_hash]
            else:
                assert final.state == "failed"
                assert final.error.startswith(typed)

        # No orphaned leases: every claim was released or requeued-and-settled.
        assert list((tmp_path / "chaos" / "active").iterdir()) == []
        # Nothing was quarantined (every spool entry here is well-formed).
        assert stats["quarantined"] == 0

        # Backoff delays are monotone non-decreasing per job (strictly
        # increasing below the cap).
        for final in finals:
            delays = [
                e.payload["delay_seconds"]
                for e in service.job_events(final.job_id)
                if e.kind == "job.retrying"
            ]
            assert delays == sorted(delays)

    def test_chaos_is_bit_reproducible_across_spools(self, tmp_path, phylip_file):
        """Two identical submission scripts replay the identical faults."""
        specs = [make_spec(phylip_file, seed=300 + i) for i in range(6)]
        plan = FaultPlan(
            seed=7, worker_crash_rate=0.3, torn_write_rate=0.2, nan_rate=0.3, nan_window=8
        )

        def run(root):
            with ExperimentService(
                root, fault_plan=plan, max_retries=2, retry_backoff=0.01
            ) as service:
                records = [service.submit(spec) for spec in specs]
                service.serve()
            outcome = []
            for record in records:
                final = service.status(record.job_id)
                faults = [
                    (e.payload["site"], e.payload["draw"], e.payload.get("scope"))
                    for e in service.job_events(record.job_id)
                    if e.kind == "fault.injected"
                ]
                report = service.report_for(record.job_id)
                outcome.append(
                    (final.state, final.error, final.attempts, faults, scrub(report))
                )
            return outcome

        first = run(tmp_path / "one")
        second = run(tmp_path / "two")
        assert first == second
        # And the chaos actually did something at this seed.
        assert any(faults for _, _, _, faults, _ in first)
