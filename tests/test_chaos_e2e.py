"""End-to-end chaos tests: scripted multi-fault runs must self-heal.

The acceptance criterion of the chaos subsystem: a farm run under a
scripted ``REPRO_CHAOS`` scenario (connection drops on the worker
sockets, truncated frames on the coordinator's, a torn journal line, a
failed cache write) completes with exit code 0 and artifacts identical
to a fault-free run's — modulo the ``*_seconds`` timing fields — with
every degradation counted in the run report instead of hidden.

The scenarios here use ``garble:mode=truncate`` (never-parseable frames,
healed instantly by the same-id retry + dedup-replay path) rather than
``mode=flip``; a flipped byte *inside a JSON string literal* can survive
parsing with altered content, which is a fault class the transport
protocol does not promise to heal (that is what result verification is
for).  Flip-mode behaviour is covered by the unit tests.
"""

import csv
import json

import pytest

from repro.chaos import CHAOS_ENV, CHAOS_REPORT_ENV, reset_chaos
from repro.cli import main
from repro.experiments.engine import (
    load_checkpoint,
    quarantine_path_for,
    read_journal,
)

TIMING_FIELDS = ("baseline_seconds", "mech_seconds")

#: The pinned farm scenario (also the CI chaos-smoke matrix entry): drops
#: on the worker sockets, truncated frames on the coordinator's, one torn
#: journal line, one failed cache write.
FARM_SCENARIO = (
    "seed=42"
    ";conn-drop:site=worker,after=3,times=2"
    ";garble:site=coordinator,mode=truncate,rate=0.2,times=2"
    ";torn-tail:journal"
    ";enospc:op=put,times=1"
)

#: The pinned batch scenario: the cache goes read-only for the whole run
#: and the checkpoint tears once.
BATCH_SCENARIO = "seed=7;readonly:op=put,sticky=1;torn-tail:checkpoint"


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


@pytest.fixture(autouse=True)
def _chaos_off(monkeypatch):
    """Chaos is opt-in per test: clear the env and singleton on both sides."""
    monkeypatch.delenv(CHAOS_ENV, raising=False)
    monkeypatch.delenv(CHAOS_REPORT_ENV, raising=False)
    reset_chaos()
    yield
    reset_chaos()


def _enable_chaos(monkeypatch, spec, report=None):
    monkeypatch.setenv(CHAOS_ENV, spec)
    if report is not None:
        monkeypatch.setenv(CHAOS_REPORT_ENV, str(report))
    # re-resolve the in-process singleton; worker subprocesses inherit env
    reset_chaos()


class TestChaosFarmParity:
    def test_farm_run_under_multi_fault_scenario_matches_fault_free(
        self, tmp_path, monkeypatch, capsys
    ):
        clean_out, chaos_out = tmp_path / "clean", tmp_path / "chaos"
        report_path = tmp_path / "chaos-report.jsonl"

        # fault-free reference (plain single-process run)
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV", "QFT",
                 "--jobs", "1", "--quiet",
                 "--cache-dir", str(tmp_path / "clean-cache"),
                 "--out-dir", str(clean_out)]
            )
            == 0
        )

        _enable_chaos(monkeypatch, FARM_SCENARIO, report=report_path)
        assert (
            main(
                ["run", "table2", "--scale", "small",
                 "--benchmarks", "BV", "QFT", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "chaos-cache"),
                 "--out-dir", str(chaos_out)]
            )
            == 0
        )
        output = capsys.readouterr()

        # artifacts are identical modulo wall-clock fields
        assert _normalized_json(chaos_out / "table2.json") == _normalized_json(
            clean_out / "table2.json"
        )
        assert _normalized_csv(chaos_out / "table2.csv") == _normalized_csv(
            clean_out / "table2.csv"
        )
        assert (chaos_out / "table2.txt").read_bytes() == (
            clean_out / "table2.txt"
        ).read_bytes()

        # the run finished and checkpointed despite the faults
        checkpoint = load_checkpoint(chaos_out / "table2.checkpoint.json")
        assert checkpoint.finished is True

        # degradation is surfaced, not hidden: the coordinator lost one
        # cache write to the injected ENOSPC and says so in the summary
        assert "cache degraded to pass-through" in output.out

        # each worker process flushed a chaos report line at exit
        reports = [json.loads(line) for line in report_path.read_text().splitlines()]
        assert reports, "no chaos report was written"
        assert all(r["spec"] == FARM_SCENARIO for r in reports)
        assert all(r["seed"] == 42 for r in reports)
        injected = {}
        for r in reports:
            for key, count in r["injected"].items():
                injected[key] = injected.get(key, 0) + count
        # the conn-drop clause targets the worker sockets and fired there
        assert any(key.startswith("conn-drop@worker") for key in injected), injected

    def test_torn_journal_line_only_costs_bookkeeping(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        _enable_chaos(monkeypatch, "torn-tail:journal")
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                 "--jobs", "2", "--quiet",
                 "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)]
            )
            == 0
        )
        # the torn line (and whatever merged into it) is skipped on read —
        # with two jobs at most one of the two "complete" events is lost —
        # and the run itself completed and checkpointed as finished
        events = read_journal(out / "table2.checkpoint.journal.jsonl")
        assert any(event["event"] == "complete" for event in events)
        assert load_checkpoint(out / "table2.checkpoint.json").finished is True


class TestChaosBatchDegradedStorage:
    def test_batch_run_completes_on_read_only_cache(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        _enable_chaos(monkeypatch, BATCH_SCENARIO)
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                 "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)]
            )
            == 0
        )
        output = capsys.readouterr()
        # every put failed, the run still produced its artifacts
        assert (out / "table2.json").exists()
        assert "cache degraded to pass-through (2 write errors)" in output.out

        reset_chaos()
        monkeypatch.delenv(CHAOS_ENV)
        # nothing was persisted: a re-run executes everything again
        capsys.readouterr()
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                 "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)]
            )
            == 0
        )
        assert "2 jobs: 0 cached, 2 executed" in capsys.readouterr().out

    def test_degraded_artifacts_match_a_clean_run(self, tmp_path, monkeypatch, capsys):
        clean_out, degraded_out = tmp_path / "clean", tmp_path / "degraded"
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                 "--jobs", "2", "--quiet",
                 "--cache-dir", str(tmp_path / "clean-cache"),
                 "--out-dir", str(clean_out)]
            )
            == 0
        )
        _enable_chaos(monkeypatch, "enospc:op=put,sticky=1")
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                 "--jobs", "2", "--quiet",
                 "--cache-dir", str(tmp_path / "degraded-cache"),
                 "--out-dir", str(degraded_out)]
            )
            == 0
        )
        capsys.readouterr()
        assert _normalized_json(degraded_out / "table2.json") == _normalized_json(
            clean_out / "table2.json"
        )
        assert (degraded_out / "table2.txt").read_bytes() == (
            clean_out / "table2.txt"
        ).read_bytes()


class TestTornJournalResume:
    """Satellite: `repro resume` against a journal torn mid-line."""

    @pytest.fixture()
    def finished_farm(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV",
                 "--jobs", "2", "--quiet",
                 "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out)]
            )
            == 0
        )
        capsys.readouterr()
        return out

    def test_resume_quarantines_torn_tail_and_recovers(self, finished_farm, capsys):
        journal = finished_farm / "table2.checkpoint.journal.jsonl"
        good = journal.read_bytes()
        good_events = read_journal(journal)
        torn = b'{"event":"lease","key":"deadbeef","att'
        journal.write_bytes(good + torn)

        assert main(["resume", str(finished_farm / "table2.checkpoint.json")]) == 0
        output = capsys.readouterr()
        assert "quarantined a torn journal tail" in output.err
        assert f"{len(torn)} byte(s)" in output.err

        # the journal was truncated back to the intact prefix...
        assert journal.read_bytes() == good
        assert read_journal(journal) == good_events
        # ...and the torn bytes are preserved on disk, not discarded
        quarantine = quarantine_path_for(journal)
        assert quarantine.read_bytes() == torn + b"\n"

    def test_resume_without_torn_tail_prints_no_note(self, finished_farm, capsys):
        assert main(["resume", str(finished_farm / "table2.checkpoint.json")]) == 0
        output = capsys.readouterr()
        assert "quarantined" not in output.err
        assert not quarantine_path_for(
            finished_farm / "table2.checkpoint.journal.jsonl"
        ).exists()

    def test_resume_quarantines_unreadable_checkpoint(self, finished_farm, capsys):
        checkpoint = finished_farm / "table2.checkpoint.json"
        checkpoint.write_text(checkpoint.read_text()[:40])  # torn mid-document
        assert main(["resume", str(checkpoint)]) == 2
        err = capsys.readouterr().err
        assert "unreadable checkpoint" in err
        assert "preserved at" in err
        assert quarantine_path_for(checkpoint).exists()
        assert not checkpoint.exists()
