"""End-to-end resume tests through the real CLI and real compilations.

The flow under test is the acceptance criterion of the incremental
execution subsystem: a sweep is killed mid-run via the
``REPRO_CHAOS='job-fail:QFT'`` injection hook, then ``repro resume`` must execute
*only* the jobs that never completed and the merged artifacts must equal an
uninterrupted run's byte-for-byte — modulo the timing fields, which are the
only nondeterministic part of a record.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from helpers import set_chaos_spec
from repro.cli import main
from repro.experiments.engine import load_checkpoint

#: Record fields that carry wall-clock timings (legitimately differ run-to-run).
TIMING_FIELDS = ("baseline_seconds", "mech_seconds")

RUN_ARGS = ["--scale", "small", "--benchmarks", "BV", "QFT", "--jobs", "2"]


def _run(dirs, *extra):
    return main(
        ["run", "fig12", *RUN_ARGS, "--cache-dir", dirs["cache"], "--out-dir", dirs["out"], *extra]
    )


def _normalized_json(path):
    doc = json.loads(path.read_text())
    for row in doc["records"]:
        for field in TIMING_FIELDS:
            row[field] = 0.0
    return doc


def _normalized_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for field in TIMING_FIELDS:
            row[field] = "0"
    return rows


@pytest.fixture()
def dirs(tmp_path):
    return {
        "cache": str(tmp_path / "cache"),
        "out": str(tmp_path / "artifacts"),
        "fresh_cache": str(tmp_path / "fresh-cache"),
        "fresh_out": str(tmp_path / "fresh-artifacts"),
    }


@pytest.fixture()
def interrupted(dirs, monkeypatch, capsys):
    """A fig12 sweep killed mid-run: BV completed, every QFT job failed."""
    set_chaos_spec(monkeypatch, "job-fail:QFT")
    assert _run(dirs) == 1
    set_chaos_spec(monkeypatch, None)
    capsys.readouterr()  # drop the interrupted run's output
    return f"{dirs['out']}/fig12.checkpoint.json"


class TestResumeAfterInterrupt:
    def test_resume_executes_only_the_unfinished_jobs(self, dirs, interrupted, capsys):
        checkpoint = load_checkpoint(interrupted)
        assert len(checkpoint.remaining_jobs()) == 3  # the three QFT cells
        assert main(["resume", interrupted, "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        # the job-count assertion: completed jobs are cache hits, the rest executes
        assert "6 jobs: 3 cached, 3 executed" in out

    def test_merged_artifact_equals_an_uninterrupted_run(self, dirs, interrupted, capsys):
        assert main(["resume", interrupted]) == 0
        fresh = {**dirs, "cache": dirs["fresh_cache"], "out": dirs["fresh_out"]}
        assert _run(fresh, "--quiet") == 0
        resumed_out, fresh_out = Path(dirs["out"]), Path(dirs["fresh_out"])
        assert _normalized_json(resumed_out / "fig12.json") == _normalized_json(
            fresh_out / "fig12.json"
        )
        assert _normalized_csv(resumed_out / "fig12.csv") == _normalized_csv(
            fresh_out / "fig12.csv"
        )
        # the human-readable table is fully deterministic: byte-for-byte equal
        assert (resumed_out / "fig12.txt").read_bytes() == (fresh_out / "fig12.txt").read_bytes()

    def test_resume_finishes_the_checkpoint(self, dirs, interrupted, capsys):
        assert main(["resume", interrupted]) == 0
        checkpoint = load_checkpoint(interrupted)
        assert checkpoint.finished is True
        assert checkpoint.remaining_jobs() == []
        assert checkpoint.failed == []

    def test_resume_dry_run_previews_without_executing(self, dirs, interrupted, capsys):
        assert main(["resume", interrupted, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "fig12: 6 jobs, 6 unique (0 duplicates) — 3 cached, 0 pending, 3 failed" in out
        assert "dry-run: no jobs executed, no artifacts written" in out
        # nothing ran: the checkpoint still lists the failures
        assert len(load_checkpoint(interrupted).failed) == 3

    def test_resume_is_idempotent(self, dirs, interrupted, capsys):
        assert main(["resume", interrupted]) == 0
        capsys.readouterr()
        assert main(["resume", interrupted]) == 0
        assert "6 jobs: 6 cached, 0 executed" in capsys.readouterr().out


class TestResumeErrors:
    def test_missing_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_v1_checkpoint_is_a_usage_error_with_guidance(self, tmp_path, capsys):
        path = tmp_path / "old.checkpoint.json"
        path.write_text(json.dumps({"checkpoint_version": 1, "pending": []}))
        assert main(["resume", str(path)]) == 2
        assert "version 1" in capsys.readouterr().err

    def test_checkpoint_without_experiment_meta_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "anon.checkpoint.json"
        path.write_text(
            json.dumps({"checkpoint_version": 2, "jobs": [], "meta": {}})
        )
        assert main(["resume", str(path)]) == 2
        assert "does not name a known experiment" in capsys.readouterr().err

    def test_json_without_dry_run_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["resume", str(path), "--json"]) == 2
        assert "--json requires --dry-run" in capsys.readouterr().err


class TestRunDryRunAgainstCheckpoint:
    def test_dry_run_counts_match_the_checkpoint_a_real_run_wrote(
        self, dirs, interrupted, capsys
    ):
        # `repro run --dry-run` must agree with the checkpoint: 3 BV cells
        # cached, 3 QFT cells failed, nothing else pending
        assert _run(dirs, "--dry-run", "--json") == 0
        plan = json.loads(capsys.readouterr().out)["experiments"][0]
        checkpoint = load_checkpoint(interrupted)
        assert plan["cached"] == len(checkpoint.cached_keys) + len(checkpoint.completed_keys)
        assert plan["failed"] == len(checkpoint.failed)
        assert plan["pending"] == 0

    def test_summary_report_line_matches_dry_run_prediction(self, dirs, interrupted, capsys):
        assert _run(dirs, "--dry-run", "--json") == 0
        plan = json.loads(capsys.readouterr().out)["experiments"][0]
        assert _run(dirs, "--quiet") == 0
        out = capsys.readouterr().out
        match = re.search(r"(\d+) jobs: (\d+) cached, (\d+) executed", out)
        assert match is not None
        total, cached, executed = (int(g) for g in match.groups())
        assert total == plan["total"]
        assert cached == plan["cached"]
        assert executed == plan["pending"] + plan["failed"]


class TestResumeCacheDirOverride:
    def test_cache_dir_override_is_recorded_for_later_resumes(
        self, dirs, interrupted, tmp_path, capsys
    ):
        override = str(tmp_path / "cache-b")
        assert main(["resume", interrupted, "--cache-dir", override]) == 0
        assert load_checkpoint(interrupted).meta["cache_dir"] == override
        capsys.readouterr()
        # a later bare resume must find the results where this one put them
        assert main(["resume", interrupted]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out

    def test_resume_of_a_no_cache_run_warns_and_reexecutes_everything(
        self, dirs, monkeypatch, capsys
    ):
        set_chaos_spec(monkeypatch, "job-fail:QFT")
        assert _run(dirs, "--no-cache") == 1
        set_chaos_spec(monkeypatch, None)
        capsys.readouterr()
        override = dirs["fresh_cache"]  # keep the default .repro-cache out of cwd
        checkpoint = f"{dirs['out']}/fig12.checkpoint.json"
        assert main(["resume", checkpoint, "--cache-dir", override, "--jobs", "2"]) == 0
        captured = capsys.readouterr()
        # nothing was persisted by the --no-cache run, so everything executes
        assert "6 jobs: 0 cached, 6 executed" in captured.out
