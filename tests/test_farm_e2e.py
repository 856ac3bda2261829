"""End-to-end fault-tolerance tests for the compile farm.

Mirrors ``test_resume_e2e.py`` at farm scale — the acceptance criteria of
the subsystem:

* a farm run's artifacts are byte-identical to a single-process
  ``repro run``'s, modulo the ``*_seconds`` timing fields;
* ``SIGKILL``-ing a worker mid-job heals by lease expiry: the job returns to
  the queue with its attempt count preserved and a surviving worker finishes
  the run, never exceeding the ``JobPolicy`` attempt budget;
* ``SIGKILL``-ing the coordinator mid-run leaves a checkpoint (compacted
  from the delta journal on every transition) that ``repro resume`` finishes
  to the same artifacts an uninterrupted run produces;
* a worker started by ``--worker-command`` ends within three leases of a
  ``SIGKILL``-ed coordinator, even mid-job;
* the batch engine flushes its checkpoint on ``SIGTERM`` (not only on
  KeyboardInterrupt), then dies with the default signal disposition.

The ``job-stall`` chaos kind (``REPRO_CHAOS='job-stall:NAME,seconds=S'``)
makes "mid-job" deterministic: stalled benchmarks sleep before compiling,
giving the test a window to kill things.
"""

import contextlib
import csv
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import child_pids, wait_until_gone
from repro.chaos import CHAOS_ENV
from repro.cli import main
from repro.experiments.engine import (
    JobPolicy,
    ResultCache,
    load_checkpoint,
    read_journal,
)
from repro.farm import FarmCoordinator
from repro.experiments.registry import build_experiment_jobs

TIMING_FIELDS = ("baseline_seconds", "mech_seconds")

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


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


def _subprocess_env(stall=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    if stall is not None:
        env[CHAOS_ENV] = stall
    else:
        env.pop(CHAOS_ENV, None)
    return env


def _wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {message}")


def _spawn_worker(port, worker_id, *, stall=None):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "farm-worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--worker-id",
            worker_id,
            "--quiet",
        ],
        env=_subprocess_env(stall),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestFarmArtifactParity:
    def test_farm_run_matches_single_process_run(self, tmp_path, capsys):
        args = ["--scale", "small", "--benchmarks", "BV", "QFT"]
        solo_out, farm_out = tmp_path / "solo", tmp_path / "farm"
        assert (
            main(
                ["run", "table2", *args, "--jobs", "1", "--quiet",
                 "--cache-dir", str(tmp_path / "solo-cache"), "--out-dir", str(solo_out)]
            )
            == 0
        )
        assert (
            main(
                ["run", "table2", *args, "--jobs", "2", "--quiet",
                 "--cache-dir", str(tmp_path / "farm-cache"), "--out-dir", str(farm_out)]
            )
            == 0
        )
        capsys.readouterr()
        assert _normalized_json(farm_out / "table2.json") == _normalized_json(
            solo_out / "table2.json"
        )
        assert _normalized_csv(farm_out / "table2.csv") == _normalized_csv(
            solo_out / "table2.csv"
        )
        assert (farm_out / "table2.txt").read_bytes() == (solo_out / "table2.txt").read_bytes()
        # the farm checkpoint is finished and resumable-by-construction
        checkpoint = load_checkpoint(farm_out / "table2.checkpoint.json")
        assert checkpoint.finished is True
        assert checkpoint.meta["experiment"] == "table2"
        assert checkpoint.meta["scale"] == "small"


class TestWorkerCrashHealing:
    def test_sigkilled_worker_heals_by_lease_expiry(self, tmp_path):
        # both jobs stall 60s under worker A (QFT-only job list), so A is
        # guaranteed to die mid-job; worker B runs without the stall hook
        jobs = build_experiment_jobs("table2", scale="small", benchmarks=["QFT"])
        assert len(jobs) == 2
        coordinator = FarmCoordinator(
            jobs,
            cache=ResultCache(tmp_path / "cache"),
            policy=JobPolicy(retries=1),
            lease_seconds=1.5,
            checkpoint=tmp_path / "farm.checkpoint.json",
        )
        coordinator.start()
        victim = survivor = None
        try:
            victim = _spawn_worker(coordinator.port, "victim", stall="job-stall:QFT,seconds=60")
            _wait_for(
                lambda: coordinator.queue.counts()["leased"] >= 1,
                timeout=30,
                message="the victim worker to claim a lease",
            )
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            survivor = _spawn_worker(coordinator.port, "survivor")
            assert coordinator.wait(timeout=120) is True
        finally:
            for proc in (victim, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
            coordinator.shutdown()
        # the lost lease expired, re-queued, and the survivor finished it
        assert coordinator.errors() == []
        assert len(coordinator.records()) == 2
        events = read_journal(coordinator.journal_path)
        expired = [e for e in events if e["event"] == "expire"]
        assert expired and all(e["outcome"] == "requeued" for e in expired)
        # attempt-budget invariant: no key was ever leased more than
        # retries + 1 = 2 times
        leases_per_key = {}
        for event in events:
            if event["event"] == "lease":
                leases_per_key[event["key"]] = leases_per_key.get(event["key"], 0) + 1
        assert leases_per_key and all(count <= 2 for count in leases_per_key.values())
        # the survivor's completions came from attempt 1 (count preserved)
        completed_keys = {e["key"] for e in events if e["event"] == "complete"}
        assert completed_keys == set(leases_per_key)


class TestCoordinatorCrashResume:
    def test_sigkilled_coordinator_resumes_to_identical_artifacts(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        out_dir = tmp_path / "farm"
        checkpoint = out_dir / "table2.checkpoint.json"
        # BV jobs complete quickly and get journaled/compacted; QFT jobs
        # stall 20s, guaranteeing the kill lands mid-run
        driver = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", "table2",
                "--scale", "small", "--benchmarks", "BV", "QFT",
                "--jobs", "2", "--lease-seconds", "2", "--quiet",
                "--cache-dir", cache_dir, "--out-dir", str(out_dir),
            ],
            env=_subprocess_env(stall="job-stall:QFT,seconds=20"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:

            def _some_progress():
                if not checkpoint.exists():
                    return False
                try:
                    doc = json.loads(checkpoint.read_text())
                except (json.JSONDecodeError, OSError):
                    return False  # mid-write; the *journal* is the source of truth
                return len(doc.get("completed", [])) >= 1

            _wait_for(_some_progress, timeout=120, message="a completed job in the checkpoint")
            workers = child_pids(driver.pid)
            assert workers, "the farm run forked no workers"
            driver.send_signal(signal.SIGKILL)
            driver.wait(timeout=10)
            # a forked worker ends once its parent is gone: within the
            # lease period (2 s here) plus a margin, not minutes later
            assert wait_until_gone(workers, 2.0 + 2.0) == []
        finally:
            if driver.poll() is None:
                driver.kill()
        # the compacted checkpoint is mid-run state: unfinished, resumable
        interrupted = load_checkpoint(checkpoint)
        assert interrupted.finished is False
        assert len(interrupted.completed_keys) >= 1
        assert interrupted.remaining_jobs()
        assert main(["resume", str(checkpoint), "--jobs", "2"]) == 0
        capsys.readouterr()
        solo_out = tmp_path / "solo"
        assert (
            main(
                ["run", "table2", "--scale", "small", "--benchmarks", "BV", "QFT",
                 "--jobs", "1", "--quiet",
                 "--cache-dir", str(tmp_path / "solo-cache"), "--out-dir", str(solo_out)]
            )
            == 0
        )
        capsys.readouterr()
        assert _normalized_json(out_dir / "table2.json") == _normalized_json(
            solo_out / "table2.json"
        )
        assert _normalized_csv(out_dir / "table2.csv") == _normalized_csv(
            solo_out / "table2.csv"
        )
        assert (out_dir / "table2.txt").read_bytes() == (solo_out / "table2.txt").read_bytes()
        assert load_checkpoint(checkpoint).finished is True


class TestCommandWorkerEndsWithItsCoordinator:
    def test_worker_exits_within_three_leases_of_a_sigkilled_coordinator(self, tmp_path):
        # a --worker-command worker has no parent pid to watch: it ends once
        # the coordinator has been silent for a lease, even while its job
        # stalls the main thread
        lease_seconds = 2.0
        out_dir = tmp_path / "farm"
        journal = out_dir / "table2.checkpoint.journal.jsonl"
        worker_command = (
            f"exec {shlex.quote(sys.executable)} -m repro farm-worker"
            " --connect {host}:{port} --quiet"
        )
        coordinator = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", "table2",
                "--scale", "small", "--benchmarks", "QFT",
                "--jobs", "1", "--lease-seconds", str(lease_seconds), "--quiet",
                "--worker-command", worker_command,
                "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out_dir),
            ],
            env=_subprocess_env(stall="job-stall:QFT,seconds=60"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        workers = []
        try:

            def _leased():
                events = read_journal(journal) if journal.exists() else []
                return any(event["event"] == "lease" for event in events)

            _wait_for(_leased, timeout=60, message="the worker to claim a lease")
            # the shell execs the worker, so the launcher's child is the worker
            workers = child_pids(coordinator.pid)
            assert len(workers) == 1, workers
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait(timeout=10)
            assert wait_until_gone(workers, 3 * lease_seconds) == []
        finally:
            if coordinator.poll() is None:
                coordinator.kill()
            for pid in workers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


class TestSigtermCheckpointFlush:
    def test_engine_flushes_checkpoint_on_sigterm(self, tmp_path):
        out_dir = tmp_path / "artifacts"
        checkpoint = out_dir / "table2.checkpoint.json"
        run = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run", "table2",
                "--scale", "small", "--benchmarks", "BV", "QFT",
                "--jobs", "1", "--quiet",
                "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(out_dir),
            ],
            env=_subprocess_env(stall="job-stall:QFT,seconds=30"),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:

            def _bv_done():
                if not checkpoint.exists():
                    return False
                try:
                    doc = json.loads(checkpoint.read_text())
                except (json.JSONDecodeError, OSError):
                    return False
                return len(doc.get("completed", [])) >= 1

            _wait_for(_bv_done, timeout=120, message="the first completed job")
            run.send_signal(signal.SIGTERM)
            returncode = run.wait(timeout=30)
        finally:
            if run.poll() is None:
                run.kill()
        # the handler flushed, then re-raised the default disposition
        assert returncode == -signal.SIGTERM
        flushed = load_checkpoint(checkpoint)
        assert flushed.interrupted is True
        assert flushed.finished is False
        assert len(flushed.completed_keys) >= 1
        assert flushed.remaining_jobs()
        # and the flushed checkpoint resumes cleanly
        assert main(["resume", str(checkpoint), "--quiet"]) == 0
        assert load_checkpoint(checkpoint).finished is True
