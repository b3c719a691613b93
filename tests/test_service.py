"""Tests for the experiment service: hashing, store, events, and the runner."""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.api import RunSpec
from repro.baselines import multichain as multichain_module
from repro.baselines.multichain import MultiChainSampler, WorkerCrashError
from repro.core.config import DEMOGRAPHIES, MPCGSConfig, SamplerConfig
from repro.sequences.phylip import write_phylip
from repro.service import (
    Event,
    EventBus,
    ExperimentService,
    JSONLRecorder,
    ResultStore,
    canonical_json,
    content_hash,
    digest_alignment,
    digest_file,
    digest_files,
    read_events,
    tail_events,
)
from repro.service import runner as runner_module
from repro.simulate.datasets import synthesize_dataset

# ---------------------------------------------------------------------------
# Canonical hashing (satellite: spec determinism)
# ---------------------------------------------------------------------------


class TestCanonicalHashing:
    def test_key_order_does_not_change_the_hash(self):
        a = {"b": 1, "a": {"y": 2.5, "x": [1, 2]}}
        b = {"a": {"x": [1, 2], "y": 2.5}, "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert content_hash(a) == content_hash(b)

    def test_tuples_and_numpy_scalars_canonicalize(self):
        a = {"v": (1, 2), "f": np.float64(0.1), "i": np.int64(3)}
        b = {"v": [1, 2], "f": 0.1, "i": 3}
        assert canonical_json(a) == canonical_json(b)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_float_repr_is_shortest_roundtrip(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(1e-3) == "0.001"

    def test_digest_file_and_files(self, tmp_path):
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        p1.write_bytes(b"hello")
        p2.write_bytes(b"world")
        assert digest_file(p1) != digest_file(p2)
        assert digest_files([p1, p2]) != digest_files([p2, p1])  # loci are positional
        p3 = tmp_path / "renamed.bin"
        p3.write_bytes(b"hello")
        assert digest_file(p1) == digest_file(p3)

    def test_digest_alignment_is_content_based(self, tiny_alignment):
        d1 = digest_alignment(tiny_alignment)
        d2 = digest_alignment(tiny_alignment)
        assert d1 == d2 and len(d1) == 64


SAMPLERS = ("gmh", "lamarc", "multichain", "heated", "bayesian")


class TestSpecContentHash:
    @pytest.mark.parametrize("demography", DEMOGRAPHIES)
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_roundtrip_hash_is_stable(self, demography, sampler):
        """from_dict(to_dict(spec)) hashes identically for every demography x sampler."""
        cfg = MPCGSConfig(
            sampler_name=sampler,
            demography=demography,
            sampler=SamplerConfig(n_samples=50, burn_in=10),
            sampler_options={"n_chains": 3} if sampler in ("multichain", "heated") else {},
        )
        spec = RunSpec(config=cfg, theta0=0.7, seed=11)
        digest = "0" * 64
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt.content_hash(data_digest=digest) == spec.content_hash(
            data_digest=digest
        )

    def test_json_roundtrip_with_shuffled_keys(self):
        spec = RunSpec(config=MPCGSConfig(), theta0=1.5, seed=3)
        document = spec.to_dict()
        shuffled = json.loads(json.dumps(document, sort_keys=True))
        # Rebuild the dict in reversed key order at every level.
        def reverse(d):
            if isinstance(d, dict):
                return {k: reverse(d[k]) for k in reversed(list(d))}
            return d
        rebuilt = RunSpec.from_dict(reverse(shuffled))
        assert rebuilt.content_hash(data_digest="x") == spec.content_hash(data_digest="x")

    def test_numpy_options_hash_like_python(self):
        a = MPCGSConfig(sampler_options={"n_chains": np.int64(3)})
        b = MPCGSConfig(sampler_options={"n_chains": 3})
        sa = RunSpec(config=a, theta0=1.0, seed=1)
        sb = RunSpec(config=b, theta0=1.0, seed=1)
        assert sa.content_hash(data_digest="x") == sb.content_hash(data_digest="x")

    def test_to_json_sorts_keys(self):
        text = MPCGSConfig().to_json(indent=None)
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_hash_distinguishes_seed_theta_and_data(self):
        cfg = MPCGSConfig()
        base = RunSpec(config=cfg, theta0=1.0, seed=1)
        assert base.content_hash(data_digest="x") != RunSpec(
            config=cfg, theta0=1.0, seed=2
        ).content_hash(data_digest="x")
        assert base.content_hash(data_digest="x") != RunSpec(
            config=cfg, theta0=2.0, seed=1
        ).content_hash(data_digest="x")
        assert base.content_hash(data_digest="x") != base.content_hash(data_digest="y")

    def test_data_digest_ignores_path_names(self, tmp_path, rng):
        data = synthesize_dataset(n_sequences=4, n_sites=40, true_theta=1.0, rng=rng)
        p1 = tmp_path / "one.phy"
        p2 = tmp_path / "two.phy"
        write_phylip(data.alignment, p1)
        write_phylip(data.alignment, p2)
        s1 = RunSpec(sequence_file=str(p1), theta0=1.0, seed=1)
        s2 = RunSpec(sequence_file=str(p2), theta0=1.0, seed=1)
        assert s1.content_hash() == s2.content_hash()


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ab" * 20
        assert key not in store
        store.put(key, spec={"theta0": 1.0}, report={"theta": 2.5})
        assert key in store
        assert store.get_report(key) == {"theta": 2.5}
        assert store.get_spec(key) == {"theta0": 1.0}
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_events_copied_into_entry(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        events = tmp_path / "events.jsonl"
        events.write_text('{"event": "run.started", "time": 0}\n')
        entry = store.put("cd" * 20, spec={}, report={"theta": 1.0}, events_file=events)
        assert (entry / "events.jsonl").read_text() == events.read_text()

    def test_invalid_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.path("../escape")
        with pytest.raises(ValueError):
            store.contains("UPPER")

    def test_report_is_the_commit_point(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "ef" * 20
        entry = store.root / key
        entry.mkdir()
        (entry / "spec.json").write_text("{}")
        assert key not in store  # spec alone is not a committed result
        assert list(store.keys()) == []

    def test_reput_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = "12" * 20
        store.put(key, spec={}, report={"theta": 1.0})
        store.put(key, spec={}, report={"theta": 1.0})
        assert store.get_report(key) == {"theta": 1.0}


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------


class TestEvents:
    def test_event_dict_round_trip(self):
        event = Event(kind="run.started", payload={"a": 1}, timestamp=5.0, job_id="j1")
        rebuilt = Event.from_dict(event.to_dict())
        assert rebuilt.kind == "run.started"
        assert rebuilt.payload == {"a": 1}
        assert rebuilt.timestamp == 5.0
        assert rebuilt.job_id == "j1"

    def test_bus_fanout_and_unsubscribe(self):
        bus = EventBus()
        seen: list[str] = []
        cb = bus.subscribe(lambda e: seen.append(e.kind))
        bus.emit("a.b")
        bus.unsubscribe(cb)
        bus.emit("c.d")
        assert seen == ["a.b"]

    def test_recorder_and_reader(self, tmp_path):
        path = tmp_path / "log.jsonl"
        recorder = JSONLRecorder(path, job_id="job-1")
        recorder(Event(kind="run.started"))
        recorder(Event(kind="run.completed", payload={"theta": 1.5}))
        events = list(read_events(path))
        assert [e.kind for e in events] == ["run.started", "run.completed"]
        assert all(e.job_id == "job-1" for e in events)
        assert events[1].payload["theta"] == 1.5

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"event": "a", "time": 1}\n{"event": "b", "ti')
        assert [e.kind for e in read_events(path)] == ["a"]

    def test_tail_events(self, tmp_path):
        path = tmp_path / "log.jsonl"
        JSONLRecorder(path)(Event(kind="a"))
        JSONLRecorder(path)(Event(kind="b"))
        JSONLRecorder(path)(Event(kind="c"))
        assert [e.kind for e in tail_events(path, 2)] == ["b", "c"]
        assert read_events(tmp_path / "missing.jsonl") is not None  # no raise


# ---------------------------------------------------------------------------
# Worker-crash mapping (satellite: typed WorkerCrashError)
# ---------------------------------------------------------------------------


def _crashing_engine_factory():
    """Kill the worker process outright, as the OOM killer would."""
    os._exit(1)


class TestWorkerCrashError:
    def test_broken_pool_surfaces_as_worker_crash(self, tiny_tree):
        sampler = MultiChainSampler(
            engine_factory=_crashing_engine_factory,
            theta=1.0,
            n_chains=2,
            config=SamplerConfig(n_samples=4, burn_in=0, n_proposals=2),
            n_workers=2,
        )
        with pytest.raises(WorkerCrashError, match="worker process died"):
            sampler.run(tiny_tree, np.random.default_rng(0))

    def test_worker_crash_error_is_runtime_error(self):
        assert issubclass(WorkerCrashError, RuntimeError)

    def test_pool_broken_between_runs_is_replaced(self, small_dataset, uniform_model):
        """A cached pool whose worker dies between runs fails the next run
        with the typed error (not the pool's raw ``BrokenProcessPool`` from
        ``submit``) and is dropped, so the run after it gets a fresh pool."""
        from repro.core.mpcgs import _EngineBuilder

        sampler = MultiChainSampler(
            engine_factory=_EngineBuilder("vectorized", small_dataset.alignment, uniform_model),
            theta=1.0,
            n_chains=2,
            config=SamplerConfig(n_samples=4, burn_in=0, n_proposals=2),
            n_workers=2,
        )
        tree = small_dataset.true_tree
        first = sampler.run(tree, np.random.default_rng(0))
        pool = multichain_module._WORKER_POOLS[2]
        victim = next(iter(pool._processes.values()))
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken, "the pool never noticed its killed worker"

        with pytest.raises(WorkerCrashError, match="worker process died"):
            sampler.run(tree, np.random.default_rng(0))
        assert multichain_module._WORKER_POOLS.get(2) is not pool

        again = sampler.run(tree, np.random.default_rng(0))
        assert multichain_module._WORKER_POOLS[2] is not pool
        assert np.array_equal(first.interval_matrix, again.interval_matrix)


# ---------------------------------------------------------------------------
# The service runner
# ---------------------------------------------------------------------------

FAST_CONFIG = MPCGSConfig(
    n_em_iterations=2,
    sampler=SamplerConfig(n_samples=20, burn_in=5, n_proposals=4),
)


@pytest.fixture
def phylip_file(tmp_path, rng):
    data = synthesize_dataset(n_sequences=5, n_sites=60, true_theta=1.0, rng=rng)
    path = tmp_path / "seqs.phy"
    write_phylip(data.alignment, path)
    return str(path)


@pytest.fixture
def fast_spec(phylip_file):
    return RunSpec(config=FAST_CONFIG, sequence_file=phylip_file, theta0=1.0, seed=7)


class TestExperimentService:
    def test_submit_serve_and_report(self, tmp_path, fast_spec):
        with ExperimentService(tmp_path / "spool") as service:
            record = service.submit(fast_spec)
            assert record.state == "queued"
            stats = service.serve()
            assert stats == {
                "completed": 1,
                "failed": 0,
                "cache_hits": 0,
                "executed": 1,
                "retries": 0,
                "timeouts": 0,
                "recovered": 0,
                "quarantined": 0,
            }
            final = service.status(record.job_id)
            assert final.state == "done" and not final.cache_hit
            report = service.report_for(record.job_id)
            assert report is not None and report["theta"] > 0
            kinds = [e.kind for e in service.job_events(record.job_id)]
            assert "run.started" in kinds
            assert "em.iteration_completed" in kinds
            assert "checkpoint.written" in kinds
            assert "run.completed" in kinds

    def test_duplicate_submit_is_cache_hit_without_recompute(
        self, tmp_path, fast_spec, monkeypatch
    ):
        with ExperimentService(tmp_path / "spool") as service:
            service.submit(fast_spec)
            service.serve()
            # From here on, any attempt to actually execute is a failure:
            # the cached report must be returned without touching a sampler.
            def forbidden(*args, **kwargs):
                raise AssertionError("cache hit must not recompute")

            monkeypatch.setattr(runner_module, "_execute_job", forbidden)
            record = service.submit(fast_spec)
            assert record.state == "done" and record.cache_hit
            report = service.report_for(record.job_id)
            assert report == service.report_for(service.jobs()[0].job_id)
            kinds = [e.kind for e in service.job_events(record.job_id)]
            assert "job.cache_hit" in kinds

    def test_queued_duplicate_resolved_from_store(self, tmp_path, fast_spec, monkeypatch):
        """Two identical specs queued before serving cost one computation."""
        calls: list[str] = []
        real = runner_module._execute_job

        def counting(spool, job_id, checkpoint_every):
            calls.append(job_id)
            return real(spool, job_id, checkpoint_every)

        monkeypatch.setattr(runner_module, "_execute_job", counting)
        with ExperimentService(tmp_path / "spool") as service:
            first = service.submit(fast_spec)
            second = service.submit(fast_spec)
            stats = service.serve()
        assert len(calls) == 1
        assert stats["executed"] == 1 and stats["cache_hits"] == 1
        assert service.status(first.job_id).state == "done"
        dup = service.status(second.job_id)
        assert dup.state == "done" and dup.cache_hit

    def test_worker_crash_is_retried_then_succeeds(self, tmp_path, fast_spec, monkeypatch):
        attempts: list[int] = []
        real = runner_module._execute_job

        def flaky(spool, job_id, checkpoint_every):
            attempts.append(1)
            if len(attempts) == 1:
                raise WorkerCrashError("simulated dead worker")
            return real(spool, job_id, checkpoint_every)

        monkeypatch.setattr(runner_module, "_execute_job", flaky)
        with ExperimentService(tmp_path / "spool", max_retries=2) as service:
            record = service.submit(fast_spec)
            stats = service.serve()
        assert len(attempts) == 2
        assert stats["retries"] == 1 and stats["completed"] == 1 and stats["failed"] == 0
        final = service.status(record.job_id)
        assert final.state == "done" and final.attempts == 2
        kinds = [e.kind for e in service.job_events(record.job_id)]
        assert "job.retrying" in kinds

    def test_worker_crash_exhausts_retries(self, tmp_path, fast_spec, monkeypatch):
        monkeypatch.setattr(
            runner_module,
            "_execute_job",
            lambda *a, **k: (_ for _ in ()).throw(WorkerCrashError("dead")),
        )
        with ExperimentService(tmp_path / "spool", max_retries=1) as service:
            record = service.submit(fast_spec)
            stats = service.serve()
        assert stats == {
            "completed": 0,
            "failed": 1,
            "cache_hits": 0,
            "executed": 0,
            "retries": 1,
            "timeouts": 0,
            "recovered": 0,
            "quarantined": 0,
        }
        final = service.status(record.job_id)
        assert final.state == "failed"
        assert "WorkerCrashError" in final.error

    def test_multichain_mode_override_runs_job_stacked(self, tmp_path, phylip_file):
        """A service configured with multichain_mode='stacked' executes
        multichain jobs lock-step — and, because stacked traces are
        bit-identical, commits the same report a default service would."""
        config = MPCGSConfig(
            n_em_iterations=1,
            sampler=SamplerConfig(n_samples=10, burn_in=2, n_proposals=2),
            sampler_name="multichain",
            sampler_options={"n_chains": 3},
        )
        spec = RunSpec(config=config, sequence_file=phylip_file, theta0=1.0, seed=7)
        with ExperimentService(tmp_path / "plain") as service:
            plain_record = service.submit(spec)
            service.serve()
            plain = service.report_for(plain_record.job_id)
        with ExperimentService(
            tmp_path / "stacked", multichain_mode="stacked"
        ) as service:
            record = service.submit(spec)
            service.serve()
            stacked = service.report_for(record.job_id)
        # Bit-identical chains → bit-identical estimate; only the work
        # accounting differs (the shared engine evaluates the initial tree
        # once instead of once per chain: n_chains − 1 evaluations saved).
        assert stacked["theta"] == plain["theta"]
        assert stacked["n_samples"] == plain["n_samples"]
        assert stacked["theta_trajectory"] == plain["theta_trajectory"]
        assert (
            stacked["n_likelihood_evaluations"]
            == plain["n_likelihood_evaluations"] - 2
        )

    def test_multichain_mode_is_validated(self, tmp_path):
        with pytest.raises(ValueError, match="multichain mode"):
            ExperimentService(tmp_path / "spool", multichain_mode="threads")

    def test_worker_crash_retried_under_stacked_mode(
        self, tmp_path, phylip_file, monkeypatch
    ):
        """The fresh-pool retry contract holds with the stacked override on."""
        config = MPCGSConfig(
            n_em_iterations=1,
            sampler=SamplerConfig(n_samples=10, burn_in=2, n_proposals=2),
            sampler_name="multichain",
            sampler_options={"n_chains": 2},
        )
        spec = RunSpec(config=config, sequence_file=phylip_file, theta0=1.0, seed=7)
        attempts: list[int] = []
        real = runner_module._execute_job

        def flaky(spool, job_id, checkpoint_every, multichain_mode=None):
            attempts.append(1)
            if len(attempts) == 1:
                raise WorkerCrashError("simulated dead worker")
            assert multichain_mode == "stacked"
            return real(spool, job_id, checkpoint_every, multichain_mode)

        monkeypatch.setattr(runner_module, "_execute_job", flaky)
        with ExperimentService(
            tmp_path / "spool", max_retries=2, multichain_mode="stacked"
        ) as service:
            record = service.submit(spec)
            stats = service.serve()
        assert len(attempts) == 2
        assert stats["retries"] == 1 and stats["completed"] == 1
        assert service.status(record.job_id).state == "done"
        kinds = [e.kind for e in service.job_events(record.job_id)]
        assert "job.retrying" in kinds

    def test_deterministic_failure_is_not_retried(self, tmp_path, fast_spec, monkeypatch):
        calls: list[int] = []

        def broken(*args, **kwargs):
            calls.append(1)
            raise ValueError("bad spec semantics")

        monkeypatch.setattr(runner_module, "_execute_job", broken)
        with ExperimentService(tmp_path / "spool", max_retries=5) as service:
            record = service.submit(fast_spec)
            stats = service.serve()
        assert len(calls) == 1  # chain-code exceptions are deterministic: no retry
        assert stats["failed"] == 1 and stats["retries"] == 0
        assert service.status(record.job_id).state == "failed"
        assert "ValueError" in service.status(record.job_id).error

    def test_two_identical_one_distinct_on_worker_fleet(self, tmp_path, phylip_file):
        """The CI smoke scenario: duplicate dedupes, distinct computes."""
        spec_a = RunSpec(
            config=FAST_CONFIG, sequence_file=phylip_file, theta0=1.0, seed=21
        )
        spec_b = RunSpec(
            config=FAST_CONFIG, sequence_file=phylip_file, theta0=1.0, seed=22
        )
        with ExperimentService(tmp_path / "spool", n_workers=2) as service:
            a1 = service.submit(spec_a)
            a2 = service.submit(spec_a)
            b = service.submit(spec_b)
            stats = service.serve()
        assert stats["executed"] == 2  # one per distinct spec, never three
        assert stats["cache_hits"] == 1
        assert stats["failed"] == 0
        assert service.status(a1.job_id).state == "done"
        duplicate = service.status(a2.job_id)
        assert duplicate.state == "done" and duplicate.cache_hit
        assert service.status(b.job_id).state == "done"
        # Identical specs share one store entry; the distinct one has its own.
        assert len(service.store) == 2
        assert service.report_for(a1.job_id) == service.report_for(a2.job_id)
        assert service.report_for(b.job_id) != service.report_for(a1.job_id)

    def test_serve_respects_max_jobs(self, tmp_path, fast_spec):
        with ExperimentService(tmp_path / "spool") as service:
            service.submit(fast_spec)
            other = RunSpec(
                config=FAST_CONFIG,
                sequence_file=fast_spec.sequence_file,
                theta0=1.0,
                seed=99,
            )
            second = service.submit(other)
            stats = service.serve(max_jobs=1)
            assert stats["completed"] == 1
            assert service.status(second.job_id).state == "queued"

    def test_job_ids_sort_in_submission_order(self, tmp_path, fast_spec):
        service = ExperimentService(tmp_path / "spool")
        ids = [service.submit(fast_spec).job_id for _ in range(3)]
        assert ids == sorted(ids)

    def test_unknown_job_raises(self, tmp_path):
        service = ExperimentService(tmp_path / "spool")
        with pytest.raises(FileNotFoundError):
            service.status("job-999999-nope")

    def test_job_record_ignores_unknown_keys(self):
        """Forward compatibility: a record written by a newer service (with
        extra bookkeeping fields) round-trips through an older reader."""
        record = runner_module.JobRecord(
            job_id="job-000001-abcdef", spec_hash="h", state="running", attempts=2
        )
        doc = record.to_dict()
        doc["lease_owner"] = "host:123:abc"  # a field this version never wrote
        restored = runner_module.JobRecord.from_dict(doc)
        assert restored == record
        assert "lease_owner" not in restored.to_dict()

    def test_id_allocation_scans_the_spool_once(self, tmp_path, monkeypatch):
        """Regression: 1k submissions must not rescan jobs/ per submit."""
        service = ExperimentService(tmp_path / "spool")
        jobs_dir = tmp_path / "spool" / "jobs"
        # Pre-existing entries, including ones the scan must skip.
        (jobs_dir / "job-000007-aaaaaa").mkdir()
        (jobs_dir / "not-a-job").mkdir()
        (jobs_dir / "job-").mkdir()
        scans = []
        real_scan = ExperimentService._scan_highest_seq
        monkeypatch.setattr(
            ExperimentService,
            "_scan_highest_seq",
            lambda self: scans.append(1) or real_scan(self),
        )
        ids = [service._new_job_id() for _ in range(1000)]
        assert len(scans) == 1  # one directory listing for a thousand ids
        assert ids == sorted(ids)  # FIFO-sortable
        assert ids[0].startswith("job-000008-")  # continues past the survivor
        assert ids[-1].startswith("job-001007-")
        assert len(set(ids)) == 1000

    def test_corrupt_spool_entry_is_quarantined_not_fatal(
        self, tmp_path, fast_spec
    ):
        """A queue marker whose job dir lacks (or has mangled) job.json must
        not crash the serve loop: it is moved to spool/corrupt/ and serving
        continues with the healthy jobs."""
        quarantined_events = []

        def on_event(event):
            if event.kind == "job.quarantined":
                quarantined_events.append(event)

        with ExperimentService(tmp_path / "spool", on_event=on_event) as service:
            good = service.submit(fast_spec)
            # Corrupt entry 1: claimable marker, no job dir at all.
            (tmp_path / "spool" / "queue" / "job-000900-dead00").touch()
            # Corrupt entry 2: job dir present but job.json is mangled.
            broken_dir = tmp_path / "spool" / "jobs" / "job-000901-dead01"
            broken_dir.mkdir(parents=True)
            (broken_dir / "job.json").write_text('{"job_id": "job-000901')
            (tmp_path / "spool" / "queue" / "job-000901-dead01").touch()

            stats = service.serve()

        assert stats["completed"] == 1 and stats["quarantined"] == 2
        assert service.status(good.job_id).state == "done"
        corrupt_dir = tmp_path / "spool" / "corrupt"
        assert (corrupt_dir / "job-000901-dead01" / "job.json").exists()
        assert not broken_dir.exists()
        assert list((tmp_path / "spool" / "queue").iterdir()) == []
        assert list((tmp_path / "spool" / "active").iterdir()) == []
        assert {e.job_id for e in quarantined_events} == {
            "job-000900-dead00",
            "job-000901-dead01",
        }
        # jobs() inspection also tolerates the debris (here: after the move).
        assert [r.job_id for r in service.jobs()] == [good.job_id]

    def test_jobs_listing_skips_unreadable_records(self, tmp_path, fast_spec):
        service = ExperimentService(tmp_path / "spool")
        good = service.submit(fast_spec)
        broken_dir = tmp_path / "spool" / "jobs" / "job-000500-beef00"
        broken_dir.mkdir(parents=True)
        (broken_dir / "job.json").write_text("not json at all")
        listed = service.jobs()
        assert [r.job_id for r in listed] == [good.job_id]

    def test_watchdog_times_out_hung_job(self, tmp_path, phylip_file):
        """A wedged worker is killed by serve(job_timeout=...) and the job
        fails with the typed timeout error once attempts are exhausted."""
        from repro.service import FaultPlan

        spec = RunSpec(
            config=FAST_CONFIG, sequence_file=phylip_file, theta0=1.0, seed=17
        )
        plan = FaultPlan(seed=0, worker_hang_rate=1.0, hang_seconds=60.0)
        with ExperimentService(
            tmp_path / "spool", fault_plan=plan, max_retries=0
        ) as service:
            record = service.submit(spec)
            stats = service.serve(job_timeout=1.5)
        assert stats["timeouts"] == 1 and stats["failed"] == 1
        final = service.status(record.job_id)
        assert final.state == "failed"
        assert final.error.startswith("JobTimeoutError")
        kinds = [e.kind for e in service.job_events(record.job_id)]
        assert "job.timeout" in kinds
        assert list((tmp_path / "spool" / "active").iterdir()) == []
