"""Tests for the incremental execution subsystem: the plan phase, the
versioned (v2) checkpoint schema with fully serialised jobs, checkpoint
re-hydration via :func:`load_checkpoint`, and engine-level resume.

Like the fault-tolerance suite, fake executors keep these tests fast — no
real compilation happens here (the CLI end-to-end flows live in
``tests/test_resume_e2e.py``).
"""

import json
import time

import pytest

from helpers import cache_clock, cache_rows
from repro.experiments import engine
from repro.experiments.engine import (
    CHECKPOINT_VERSION,
    CheckpointError,
    Job,
    JobPolicy,
    ResultCache,
    config_key,
    load_checkpoint,
    plan_jobs,
    plan_summary,
    run_jobs,
    run_jobs_report,
)
from repro.experiments.registry import experiment_meta, plan_experiment
from repro.experiments.runner import ComparisonRecord

pytestmark = pytest.mark.usefixtures("fake_executors")


def _dummy_record(job: Job) -> ComparisonRecord:
    return ComparisonRecord(
        benchmark=job.benchmark,
        architecture="fake-1x1",
        num_data_qubits=2,
        num_physical_qubits=4,
        baseline_depth=10.0,
        mech_depth=5.0,
        baseline_eff_cnots=20.0,
        mech_eff_cnots=10.0,
        highway_qubit_fraction=0.25,
        extra={"seed": float(job.seed)},
    )


def _last_use(cache: ResultCache, key: str) -> float:
    (last_use,) = [last_use for row_key, _, last_use in cache_rows(cache) if row_key == key]
    return last_use


def _boom(job: Job) -> ComparisonRecord:
    raise RuntimeError(f"poisoned job {job.benchmark}")


def _kbint(job: Job) -> ComparisonRecord:
    raise KeyboardInterrupt


@pytest.fixture()
def fake_executors(monkeypatch):
    monkeypatch.setitem(engine.EXECUTORS, "ok", _dummy_record)
    monkeypatch.setitem(engine.EXECUTORS, "boom", _boom)
    monkeypatch.setitem(engine.EXECUTORS, "kbint", _kbint)


OK1 = Job(benchmark="A", kind="ok")
OK2 = Job(benchmark="B", kind="ok")
BAD = Job(benchmark="POISON", kind="boom")
TAGGED = Job(benchmark="A", kind="ok", tags=(("swept", 2.0),))


class TestPlanJobs:
    def test_cold_cache_plans_everything_pending(self, tmp_path):
        plan = plan_jobs([OK1, OK2], cache=tmp_path)
        assert (plan.total, plan.cache_hits, plan.deduplicated) == (2, 0, 0)
        assert set(plan.pending) == {config_key(OK1), config_key(OK2)}

    def test_warm_cache_plans_everything_cached(self, tmp_path):
        run_jobs([OK1, OK2], cache=tmp_path)
        plan = plan_jobs([OK1, OK2], cache=tmp_path)
        assert (plan.cache_hits, len(plan.pending)) == (2, 0)

    def test_duplicates_and_tag_variants_share_one_unique_job(self, tmp_path):
        # TAGGED differs from OK1 only by tags, which are not in the config key
        plan = plan_jobs([OK1, OK1, TAGGED], cache=tmp_path)
        assert (plan.total, len(plan.unique), plan.deduplicated) == (3, 1, 2)

    def test_no_cache_plans_everything_pending(self):
        plan = plan_jobs([OK1, OK2])
        assert (plan.cache_hits, len(plan.pending)) == (0, 2)

    def test_unknown_kind_is_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            plan_jobs([Job(benchmark="X", kind="nope")])

    def test_plan_matches_what_a_real_run_reports(self, tmp_path):
        run_jobs([OK1], cache=tmp_path)
        plan = plan_jobs([OK1, OK2, OK2], cache=tmp_path)
        _, report = run_jobs_report([OK1, OK2, OK2], cache=tmp_path)
        assert plan.cache_hits == report.cache_hits
        assert len(plan.pending) == report.executed
        assert plan.deduplicated == report.deduplicated

    def test_planning_executes_nothing(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setitem(
            engine.EXECUTORS, "ok", lambda job: calls.append(job) or _dummy_record(job)
        )
        plan_jobs([OK1, OK2], cache=tmp_path)
        assert calls == []


class TestPlanSummary:
    def test_counts_and_breakdowns(self, tmp_path):
        run_jobs([OK1], cache=tmp_path)
        plan = plan_jobs([OK1, OK2, BAD, OK2], cache=tmp_path)
        summary = plan_summary(plan, failed_keys=[config_key(BAD)])
        assert summary["total"] == 4
        assert summary["unique"] == 3
        assert summary["duplicates"] == 1
        assert (summary["cached"], summary["pending"], summary["failed"]) == (1, 1, 1)
        assert summary["by_kind"] == {
            "boom": {"cached": 0, "pending": 0, "failed": 1},
            "ok": {"cached": 1, "pending": 1, "failed": 0},
        }
        assert summary["by_benchmark"]["POISON"] == {"cached": 0, "pending": 0, "failed": 1}

    def test_cached_wins_over_failed(self, tmp_path):
        # a job that failed in a previous run but has since been cached
        run_jobs([OK1], cache=tmp_path)
        plan = plan_jobs([OK1], cache=tmp_path)
        summary = plan_summary(plan, failed_keys=[config_key(OK1)])
        assert (summary["cached"], summary["failed"]) == (1, 0)

    def test_plan_experiment_diff_against_cache(self, tmp_path):
        plan = plan_experiment("fig12", scale="small", benchmarks=["BV"], cache=tmp_path)
        summary = plan_summary(plan)
        assert summary["pending"] == summary["unique"] > 0
        assert list(summary["by_benchmark"]) == ["BV"]


class TestCheckpointSchema:
    def test_v2_checkpoint_serialises_the_full_job_list(self, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        jobs = [OK1, TAGGED, OK2]
        run_jobs(jobs, cache=tmp_path / "cache", checkpoint=path, checkpoint_meta={"x": 1})
        doc = json.loads(path.read_text())
        assert doc["checkpoint_version"] == CHECKPOINT_VERSION == 2
        assert doc["meta"] == {"x": 1}
        assert len(doc["jobs"]) == 3  # duplicates/tag-variants preserved
        assert doc["jobs"][1]["tags"] == [["swept", 2.0]]

    def test_load_checkpoint_round_trips_jobs_and_sets(self, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        run_jobs_report(
            [OK1, BAD, OK2],
            cache=tmp_path / "cache",
            checkpoint=path,
            checkpoint_meta=experiment_meta("fig12", scale="small", benchmarks=["BV"]),
            policy=JobPolicy(on_error="record"),
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.version == 2
        assert checkpoint.finished is True
        assert checkpoint.jobs == [OK1, BAD, OK2]
        assert checkpoint.meta["experiment"] == "fig12"
        assert checkpoint.completed_keys == {config_key(OK1), config_key(OK2)}
        assert checkpoint.failed_keys == {config_key(BAD)}
        assert [error.benchmark for error in checkpoint.failed] == ["POISON"]

    def test_cached_keys_recorded_on_warm_runs(self, tmp_path):
        cache = tmp_path / "cache"
        run_jobs([OK1], cache=cache)
        path = tmp_path / "run.checkpoint.json"
        run_jobs([OK1, OK2], cache=cache, checkpoint=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.cached_keys == {config_key(OK1)}
        assert checkpoint.remaining_jobs() == []

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.checkpoint.json")

    def test_corrupt_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_v1_checkpoint_is_rejected_with_guidance(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"checkpoint_version": 1, "pending": []}))
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"checkpoint_version": 99, "jobs": []}))
        with pytest.raises(CheckpointError, match="unsupported version"):
            load_checkpoint(path)

    def test_malformed_job_is_rejected(self, tmp_path):
        path = tmp_path / "mangled.json"
        # a job with no benchmark at all cannot round-trip
        path.write_text(
            json.dumps({"checkpoint_version": 2, "jobs": [{"kind": "compare"}]})
        )
        with pytest.raises(CheckpointError, match="round-trip"):
            load_checkpoint(path)

    def test_pre_backend_job_rehydrates_with_default_compilers(self, tmp_path):
        # checkpoints written before the Job.compilers field existed must
        # keep loading: absent fields fall back to the dataclass defaults
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"checkpoint_version": 2, "jobs": [{"benchmark": "A"}]})
        )
        checkpoint = load_checkpoint(path)
        assert checkpoint.jobs == [Job(benchmark="A")]
        assert checkpoint.jobs[0].compilers == ("baseline", "mech")


class TestEngineResume:
    def test_interrupted_run_resumes_from_checkpoint_alone(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "run.checkpoint.json"
        interrupting = Job(benchmark="INT", kind="kbint")
        with pytest.raises(KeyboardInterrupt):
            run_jobs([OK1, interrupting, OK2], cache=cache, checkpoint=path)

        checkpoint = load_checkpoint(path)
        assert checkpoint.interrupted is True
        remaining = {job.benchmark for job in checkpoint.remaining_jobs()}
        assert remaining == {"INT", "B"}

        # the transient condition clears; resume executes only what remains
        monkeypatch.setitem(engine.EXECUTORS, "kbint", _dummy_record)
        records, report = run_jobs_report(checkpoint.jobs, cache=cache, checkpoint=path)
        assert (report.cache_hits, report.executed) == (1, 2)
        assert [record.benchmark for record in records] == ["A", "INT", "B"]
        assert load_checkpoint(path).finished is True

    def test_resumed_records_match_an_uninterrupted_run(self, tmp_path, monkeypatch):
        jobs = [OK1, Job(benchmark="INT", kind="kbint"), TAGGED, OK2]
        path = tmp_path / "run.checkpoint.json"
        with pytest.raises(KeyboardInterrupt):
            run_jobs(jobs, cache=tmp_path / "cache", checkpoint=path)
        monkeypatch.setitem(engine.EXECUTORS, "kbint", _dummy_record)
        resumed = run_jobs(load_checkpoint(path).jobs, cache=tmp_path / "cache")
        uninterrupted = run_jobs(jobs, cache=tmp_path / "fresh-cache")
        assert resumed == uninterrupted  # tags re-applied, order preserved

    def test_failed_run_resumes_only_failed_jobs(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "run.checkpoint.json"
        _, report = run_jobs_report(
            [OK1, BAD, OK2], cache=cache, checkpoint=path, policy=JobPolicy(on_error="record")
        )
        assert report.failed == 1
        checkpoint = load_checkpoint(path)
        assert {job.benchmark for job in checkpoint.remaining_jobs()} == {"POISON"}
        monkeypatch.setitem(engine.EXECUTORS, "boom", _dummy_record)
        records, report = run_jobs_report(checkpoint.jobs, cache=cache, checkpoint=path)
        assert (report.cache_hits, report.executed, report.failed) == (2, 1, 0)
        assert len(records) == 3


class TestReviewRegressions:
    def test_malformed_checkpoint_fields_raise_checkpoint_error(self, tmp_path):
        # a non-iterable cached/completed list must not escape as a bare
        # TypeError (the CLI only catches CheckpointError)
        for fields in ({"cached": 5}, {"completed": 7}):
            path = tmp_path / "mangled.json"
            path.write_text(json.dumps({"checkpoint_version": 2, "jobs": [], **fields}))
            with pytest.raises(CheckpointError, match="malformed fields"):
                load_checkpoint(path)

    def test_peek_classifies_like_get_without_touching_mtime(self, tmp_path):
        cache = ResultCache(tmp_path)
        stamp = time.time() - 5000
        with cache_clock(stamp):
            run_jobs([OK1], cache=cache)
        key = config_key(OK1)
        peeked = cache.peek(key)
        assert peeked is not None
        assert _last_use(cache, key) == stamp  # peek left the recency alone
        assert cache.peek(config_key(OK2)) is None  # miss classification matches get
        assert cache.get(key) == peeked  # and a real get returns the same payload
        assert _last_use(cache, key) > stamp + 1000  # which *does* refresh recency

    def test_unrefreshed_plan_does_not_shield_entries_from_a_ttl_sweep(self, tmp_path):
        cache = ResultCache(tmp_path)
        now = time.time()
        with cache_clock(now - 5000):
            run_jobs([OK1, OK2], cache=cache)
        # a dry-run preview plans without refreshing...
        plan = plan_jobs([OK1, OK2], cache=cache, refresh=False)
        assert plan.cache_hits == 2
        # ...so the TTL sweep the operator runs next still collects everything
        assert cache.sweep_older_than(1000, now=now)["removed"] == 2

    def test_ttl_sweep_rejects_nan_instead_of_deleting_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([OK1], cache=cache)
        with pytest.raises(ValueError, match="max_age_seconds"):
            cache.sweep_older_than(float("nan"))
        assert len(cache) == 1  # nothing was deleted

    def test_plan_jobs_default_is_read_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        stamp = time.time() - 5000
        with cache_clock(stamp):
            run_jobs([OK1], cache=cache)
        plan_jobs([OK1], cache=cache)  # defaults must not refresh recency
        assert _last_use(cache, config_key(OK1)) == stamp
