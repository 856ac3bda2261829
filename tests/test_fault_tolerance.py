"""Fault-tolerance tests for the orchestration engine.

Covers the :class:`JobPolicy` surface (timeout, retries, reseed-on-retry,
``on_error`` dispositions), worker-side exception capture as structured
:class:`JobError` records, the run checkpoint file, and the acceptance
property that a rerun against the same cache executes only the jobs that
failed.  Fake executors keep these tests fast: no real compilation happens
except where the multiprocessing pool path is exercised explicitly.
"""

import io
import json
import os
import time

import pytest

from helpers import set_chaos_spec
from repro.experiments import engine, execute
from repro.experiments.engine import (
    Job,
    JobPolicy,
    JobTimeoutError,
    ResultCache,
    config_key,
    run_jobs,
    run_jobs_report,
    write_artifacts,
)
from repro.experiments.runner import ComparisonRecord, format_records

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


def _boom(job: Job) -> ComparisonRecord:
    raise RuntimeError(f"poisoned job {job.benchmark}")


def _slow(job: Job) -> ComparisonRecord:
    time.sleep(5.0)
    return _dummy_record(job)


def _kbint(job: Job) -> ComparisonRecord:
    raise KeyboardInterrupt


def _succeeds_only_reseeded(job: Job) -> ComparisonRecord:
    # fails on the original seed, succeeds once a retry bumps it
    if job.seed == 0:
        raise ValueError("needs a reseed")
    return _dummy_record(job)


@pytest.fixture()
def fake_executors(monkeypatch):
    monkeypatch.setitem(engine.EXECUTORS, "ok", _dummy_record)
    monkeypatch.setitem(engine.EXECUTORS, "boom", _boom)
    monkeypatch.setitem(engine.EXECUTORS, "slow", _slow)
    monkeypatch.setitem(engine.EXECUTORS, "kbint", _kbint)
    monkeypatch.setitem(engine.EXECUTORS, "reseed", _succeeds_only_reseeded)


OK1 = Job(benchmark="A", kind="ok")
OK2 = Job(benchmark="B", kind="ok")
BAD = Job(benchmark="POISON", kind="boom")


class TestPolicyValidation:
    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            JobPolicy(on_error="explode")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            JobPolicy(retries=-1)

    def test_non_positive_timeout_rejected(self):
        for timeout in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="timeout"):
                JobPolicy(timeout=timeout)


class TestErrorCapture:
    def test_one_poisoned_job_still_yields_all_other_records(self):
        # the original bug: one worker exception aborted the whole sweep
        records, report = run_jobs_report(
            [OK1, BAD, OK2], policy=JobPolicy(on_error="record")
        )
        assert len(records) == 2
        assert [r.benchmark for r in records] == ["A", "B"]
        assert report.failed == 1
        error = report.errors[0]
        assert error.benchmark == "POISON"
        assert error.error_type == "RuntimeError"
        assert "poisoned job" in error.message
        assert "RuntimeError" in error.traceback_tail
        assert error.attempts == 1
        assert error.seconds >= 0.0
        assert error.key == config_key(BAD)

    def test_skip_drops_failed_jobs_quietly(self):
        records, report = run_jobs_report([OK1, BAD], policy=JobPolicy(on_error="skip"))
        assert len(records) == 1
        assert report.failed == 1

    def test_default_policy_reraises_the_original_exception_type(self):
        with pytest.raises(RuntimeError, match="poisoned job"):
            run_jobs([OK1, BAD])

    def test_summary_mentions_failures(self):
        _, report = run_jobs_report([OK1, BAD], policy=JobPolicy(on_error="record"))
        assert "1 failed" in report.summary()

    def test_failed_jobs_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        _, report = run_jobs_report([OK1, BAD], cache=cache, policy=JobPolicy(on_error="record"))
        assert report.failed == 1
        assert cache.get(config_key(OK1)) is not None
        assert cache.get(config_key(BAD)) is None

    def test_rerun_executes_only_the_failed_jobs(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        _, report = run_jobs_report(
            [OK1, BAD, OK2], cache=cache, policy=JobPolicy(on_error="record")
        )
        assert (report.executed, report.failed) == (3, 1)
        # the poison clears up (e.g. a transient OOM); only BAD re-executes
        monkeypatch.setitem(engine.EXECUTORS, "boom", _dummy_record)
        records, report = run_jobs_report(
            [OK1, BAD, OK2], cache=cache, policy=JobPolicy(on_error="record")
        )
        assert (report.cache_hits, report.executed, report.failed) == (2, 1, 0)
        assert len(records) == 3

    def test_pool_path_captures_errors_across_processes(self, monkeypatch, tmp_path):
        # real executors in real worker processes, one injected failure
        set_chaos_spec(monkeypatch, "job-fail:QFT")
        jobs = [
            Job(benchmark="BV", chiplet_width=4, rows=1, cols=2, seed=1),
            Job(benchmark="QFT", chiplet_width=4, rows=1, cols=2, seed=1),
        ]
        records, report = run_jobs_report(
            jobs, workers=2, cache=tmp_path, policy=JobPolicy(on_error="record")
        )
        assert [r.benchmark for r in records] == ["BV"]
        assert report.failed == 1
        assert report.errors[0].benchmark == "QFT"
        assert "injected fault" in report.errors[0].message

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_counts_every_attempt_on_both_paths(self, monkeypatch, tmp_path, workers):
        # in process and on the farm, the one lease queue counts the attempts
        set_chaos_spec(monkeypatch, "job-fail:QFT")
        jobs = [Job(benchmark="QFT", chiplet_width=4, rows=1, cols=2, seed=1)]
        _, report = run_jobs_report(
            jobs,
            workers=workers,
            cache=tmp_path,
            policy=JobPolicy(retries=2, on_error="record"),
        )
        (error,) = report.errors
        assert error.attempts == 3
        assert error.seconds > 0


class TestRetries:
    def test_retry_succeeds_after_reseed(self):
        job = Job(benchmark="R", kind="reseed", seed=0)
        records, report = run_jobs_report(
            [job], policy=JobPolicy(retries=1, reseed_on_retry=True, on_error="record")
        )
        assert report.failed == 0
        assert records[0].extra["seed"] == 1.0  # the bumped seed did the work

    def test_without_reseed_every_attempt_fails_identically(self):
        job = Job(benchmark="R", kind="reseed", seed=0)
        _, report = run_jobs_report([job], policy=JobPolicy(retries=2, on_error="record"))
        assert report.failed == 1
        assert report.errors[0].attempts == 3

    def test_reseeded_result_is_cached_under_the_original_key(self, tmp_path):
        job = Job(benchmark="R", kind="reseed", seed=0)
        cache = ResultCache(tmp_path)
        run_jobs([job], cache=cache, policy=JobPolicy(retries=1, reseed_on_retry=True))
        assert cache.get(config_key(job)) is not None


class TestTimeout:
    # in process and on forked farm workers alike, the job runs on its
    # process's main thread, where the deadline interrupts even a sleep
    @pytest.mark.parametrize("workers", [1, 2])
    def test_straggler_is_timed_out_and_recorded(self, workers):
        job = Job(benchmark="S", kind="slow")
        start = time.perf_counter()
        _, report = run_jobs_report(
            [OK1, job], workers=workers, policy=JobPolicy(timeout=0.2, on_error="record")
        )
        assert time.perf_counter() - start < 4.0  # did not sit out the full sleep
        assert report.failed == 1
        assert report.errors[0].error_type == "JobTimeoutError"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_timeout_applies_per_attempt(self, workers):
        job = Job(benchmark="S", kind="slow")
        _, report = run_jobs_report(
            [job], workers=workers, policy=JobPolicy(timeout=0.1, retries=1, on_error="record")
        )
        assert report.errors[0].attempts == 2

    def test_deadline_context_raises(self):
        with pytest.raises(JobTimeoutError), execute._deadline(0.05):
            time.sleep(1.0)

    def test_deadline_disarms_after_the_body(self):
        with execute._deadline(0.05):
            pass
        time.sleep(0.08)  # an armed leftover alarm would fire here


class TestCheckpoint:
    def test_completed_run_checkpoint(self, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        run_jobs([OK1, OK2], cache=tmp_path / "cache", checkpoint=path)
        doc = json.loads(path.read_text())
        assert doc["finished"] is True
        assert doc["interrupted"] is False
        assert len(doc["completed"]) == 2
        assert doc["pending"] == []
        assert doc["failed"] == []

    def test_failed_jobs_listed_in_checkpoint(self, tmp_path):
        path = tmp_path / "run.checkpoint.json"
        run_jobs_report([OK1, BAD], checkpoint=path, policy=JobPolicy(on_error="record"))
        doc = json.loads(path.read_text())
        assert doc["finished"] is True
        assert len(doc["failed"]) == 1
        assert doc["failed"][0]["benchmark"] == "POISON"
        assert doc["failed"][0]["error_type"] == "RuntimeError"

    def test_keyboard_interrupt_leaves_resumable_checkpoint(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "run.checkpoint.json"
        interrupting = Job(benchmark="INT", kind="kbint")
        with pytest.raises(KeyboardInterrupt):
            run_jobs([OK1, interrupting, OK2], cache=cache, checkpoint=path)
        doc = json.loads(path.read_text())
        assert doc["finished"] is False
        assert doc["interrupted"] is True
        assert len(doc["completed"]) == 1
        remaining = {entry["benchmark"] for entry in doc["pending"]}
        assert remaining == {"INT", "B"}
        # what already compiled survived in the cache, so a rerun resumes
        assert cache.get(config_key(OK1)) is not None
        _, report = run_jobs_report([OK1, OK2], cache=cache, checkpoint=path)
        assert report.cache_hits == 1


class TestErrorArtifacts:
    def test_error_rows_land_in_json_and_csv(self, tmp_path):
        records, report = run_jobs_report(
            [OK1, BAD], policy=JobPolicy(on_error="record")
        )
        paths = write_artifacts("demo", records, tmp_path, errors=report.errors)
        doc = json.loads(paths["json"].read_text())
        assert len(doc["records"]) == 1
        assert doc["records"][0]["status"] == "ok"
        assert len(doc["errors"]) == 1
        assert doc["errors"][0]["error_type"] == "RuntimeError"
        csv_text = paths["csv"].read_text()
        assert "error" in csv_text and "poisoned job POISON" in csv_text

    def test_json_artifact_bytes_match_the_streamed_encoding(self, tmp_path):
        # written in one call, the document keeps the bytes that
        # json.dump(document, handle, indent=1) plus a newline streamed
        jobs = [Job(benchmark="BV", chiplet_width=3, rows=1, cols=2), BAD]
        records, report = run_jobs_report(jobs, policy=JobPolicy(on_error="record"))
        assert len(records) == 1 and len(report.errors) == 1
        paths = write_artifacts("demo", records, tmp_path, errors=report.errors)
        written = paths["json"].read_text(encoding="utf-8")
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed, indent=1)
        streamed.write("\n")
        assert written == streamed.getvalue()

    def test_error_row_traceback_is_package_relative(self, monkeypatch, tmp_path):
        # the same failure writes the same row from any checkout
        set_chaos_spec(monkeypatch, "job-fail:QFT")
        jobs = [Job(benchmark="QFT", chiplet_width=4, rows=1, cols=2, seed=1)]
        _, report = run_jobs_report(jobs, cache=tmp_path, policy=JobPolicy(on_error="record"))
        paths = write_artifacts("demo", [], tmp_path / "out", errors=report.errors)
        (row,) = json.loads(paths["json"].read_text())["errors"]
        tail = row["traceback_tail"]
        assert f'File "repro{os.sep}experiments{os.sep}execute.py"' in tail
        checkout = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(execute.__file__)
        ))))
        assert checkout not in tail
        assert os.path.realpath(checkout) not in tail

    def test_format_records_appends_failed_rows(self):
        records, report = run_jobs_report([OK1, BAD], policy=JobPolicy(on_error="record"))
        text = format_records(records, errors=report.errors)
        assert "POISON" in text and "FAILED after 1 attempt" in text
