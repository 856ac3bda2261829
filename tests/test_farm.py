"""Unit and integration tests for the compile-farm subsystem.

Covers the protocol-v2 schema (including that the v1 wire format is
untouched), the lease queue's transition semantics — the attempt-budget
invariant above all — the coordinator served over real TCP against a
hand-rolled worker client, the launcher plumbing, an in-process
``run_farm`` smoke (real forked workers), and ``run_jobs_report(workers=2)``
healing a SIGKILLed worker instead of hanging.
"""

import json
import os
import signal
import threading
import time

import pytest

from helpers import set_chaos_spec
from repro.experiments.engine import (
    FarmAbortedError,
    Job,
    JobError,
    JobPolicy,
    ResultCache,
    config_key,
    job_to_dict,
    journal_path_for,
    read_journal,
    run_jobs_report,
)
from repro.farm import FarmCoordinator, LeaseQueue, LocalWorkerLauncher, run_farm
from repro.farm import coordinator as farm_coordinator
from repro.farm.launcher import CommandWorkerLauncher, render_worker_command
from repro.farm.queue import COMPLETED, FAILED, LEASED, PENDING
from repro.farm.schema import (
    Lease,
    claim_request,
    complete_request,
    fail_request,
    heartbeat_request,
    parse_claim,
    parse_complete,
    parse_fail,
    parse_heartbeat,
    parse_lease,
    progress_request,
)
from repro.serve.client import ServeClient
from repro.serve.schema import (
    FARM_PROTOCOL_VERSION,
    SERVE_PROTOCOL_VERSION,
    WORK_STATS_VERSION,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_message,
    work_stats,
)


def _job(benchmark="BV", seed=0):
    return Job(benchmark=benchmark, chiplet_width=4, rows=1, cols=2, seed=seed)


def _error(key, attempts=1):
    return JobError(
        key=key,
        benchmark="BV",
        kind="comparison",
        error_type="ValueError",
        message="boom",
        traceback_tail="",
        attempts=attempts,
        seconds=0.1,
    )


class TestProtocolV2Schema:
    def test_v1_wire_format_is_byte_identical_to_before(self):
        request = ServeRequest(op="ping", request_id="r1")
        assert json.loads(encode_message(request)) == {
            "protocol": 1,
            "op": "ping",
            "request_id": "r1",
        }

    def test_v1_rejects_farm_ops(self):
        with pytest.raises(ServeProtocolError, match="unknown op 'claim' for protocol 1"):
            ServeRequest(op="claim", request_id="r1")

    def test_v2_requires_a_body_for_work_ops(self):
        with pytest.raises(ServeProtocolError, match="must carry a body"):
            ServeRequest(op="claim", request_id="r1", protocol=FARM_PROTOCOL_VERSION)

    def test_v2_control_ops_need_no_body(self):
        request = ServeRequest(op="stats", request_id="r1", protocol=FARM_PROTOCOL_VERSION)
        assert request.body is None

    def test_request_round_trips_through_the_wire(self):
        request = claim_request("w1")
        decoded = decode_line(encode_message(request), ServeRequest)
        assert decoded == request
        assert decoded.protocol == FARM_PROTOCOL_VERSION

    def test_response_round_trips_with_protocol(self):
        response = ServeResponse(
            request_id="r9", ok=True, payload={"x": 1}, protocol=FARM_PROTOCOL_VERSION
        )
        assert decode_line(encode_message(response), ServeResponse) == response

    def test_unknown_protocol_version_fails_loudly(self):
        with pytest.raises(ServeProtocolError, match="unknown protocol version 3"):
            ServeRequest(op="ping", request_id="r1", protocol=3)

    def test_lease_round_trip(self):
        lease = Lease(
            key="k1",
            job=job_to_dict(_job()),
            attempt=1,
            policy={"timeout": 5.0, "retries": 0, "reseed_on_retry": False, "on_error": "record"},
            deadline_unix=123.5,
        )
        assert parse_lease(lease.to_dict()) == lease

    def test_lease_validation_rejects_garbage(self):
        with pytest.raises(ServeProtocolError, match="missing a string 'key'"):
            parse_lease({"job": {}, "attempt": 0, "policy": {}, "deadline_unix": 0})

    def test_parsers_invert_constructors(self):
        assert parse_claim(claim_request("w1")) == "w1"
        assert parse_complete(complete_request("w1", "k", {"a": 1})) == ("w1", "k", {"a": 1})
        worker, key, err = parse_fail(fail_request("w1", "k", {"message": "x"}))
        assert (worker, key, err) == ("w1", "k", {"message": "x"})
        assert parse_heartbeat(heartbeat_request("w1", ["a", "b"])) == ("w1", ["a", "b"])
        assert progress_request().op == "progress"

    def test_work_stats_schema_is_versioned_and_validated(self):
        stats = work_stats(total=4, queue_depth=1, in_flight=2, completed=1, failed=0)
        assert stats["work_stats_version"] == WORK_STATS_VERSION
        assert stats["total"] == 4
        with pytest.raises(ValueError, match="non-negative"):
            work_stats(total=-1, queue_depth=0, in_flight=0, completed=0, failed=0)


class TestLeaseQueue:
    def _queue(self, n=3, retries=1, lease_seconds=15.0):
        pending = {}
        for i in range(n):
            job = _job(seed=i)
            pending[config_key(job)] = job
        return LeaseQueue(pending, policy=JobPolicy(retries=retries), lease_seconds=lease_seconds), list(pending)

    def test_claim_hands_out_single_attempt_policies(self):
        queue, _keys = self._queue(retries=2)
        lease = queue.claim("w1")
        assert lease.policy == {
            "timeout": None,
            "retries": 0,
            "reseed_on_retry": False,
            "on_error": "record",
        }
        assert lease.attempt == 0

    def test_claims_hand_out_one_lease_in_insertion_order(self):
        queue, keys = self._queue(n=3)
        assert [queue.claim("w1").key for _ in range(2)] == keys[:2]
        assert queue.counts() == {PENDING: 1, LEASED: 2, COMPLETED: 0, FAILED: 0}

    def test_complete_is_idempotent(self):
        queue, keys = self._queue(n=1)
        queue.claim("w1")
        assert queue.complete(keys[0], "w1") is True
        assert queue.complete(keys[0], "w1") is False  # duplicate: no double-store
        assert queue.entry_state(keys[0]) == COMPLETED
        assert queue.done() is True

    def test_fail_requeues_until_the_budget_is_exhausted(self):
        queue, keys = self._queue(n=1, retries=1)
        key = keys[0]
        queue.claim("w1")
        assert queue.fail(key, "w1", _error(key)) is True  # attempt 1 of 2: requeue
        lease = queue.claim("w2")
        assert lease.attempt == 1
        assert queue.fail(key, "w2", _error(key, attempts=2)) is False  # budget gone
        assert queue.entry_state(key) == FAILED
        assert queue.done() is True
        assert [e.attempts for e in queue.failed_errors()] == [2]

    def test_permanent_failure_counts_and_times_every_reported_attempt(self):
        queue, keys = self._queue(n=1, retries=1)
        key = keys[0]
        for worker in ("w1", "w2"):
            queue.claim(worker)
            queue.fail(key, worker, _error(key))  # each report: attempts=1, seconds=0.1
        (error,) = queue.failed_errors()
        assert error.attempts == 2
        assert error.seconds == pytest.approx(0.2)
        assert (error.error_type, error.message) == ("ValueError", "boom")

    def test_stale_failure_from_an_expired_lease_is_ignored(self):
        queue, keys = self._queue(n=1, retries=3, lease_seconds=0.01)
        key = keys[0]
        queue.claim("w1")
        time.sleep(0.02)
        lease = queue.claim("w2")  # expiry reclaims, re-leases to w2
        assert lease.attempt == 1
        assert queue.fail(key, "w1", _error(key)) is False  # w1 is stale
        assert queue.entry_state(key) == LEASED

    def test_expiry_preserves_the_attempt_count(self):
        queue, keys = self._queue(n=1, retries=1, lease_seconds=0.01)
        key = keys[0]
        queue.claim("w1")
        transitions = queue.expire(now=time.time() + 1)
        assert transitions == [(key, "requeued")]
        lease = queue.claim("w2")
        assert lease.attempt == 1  # the lost attempt still counted
        transitions = queue.expire(now=time.time() + 10)
        assert transitions == [(key, "failed")]
        (error,) = queue.failed_errors()
        assert error.error_type == "WorkerLostError"
        assert error.attempts == 2
        # the budget is spent: nothing left to claim
        assert queue.claim("w3") is None

    def test_late_complete_from_a_presumed_dead_worker_is_salvaged(self):
        queue, keys = self._queue(n=1, retries=0, lease_seconds=0.01)
        key = keys[0]
        queue.claim("w1")
        queue.expire(now=time.time() + 1)  # w1 presumed dead -> permanent failure
        assert queue.entry_state(key) == FAILED
        assert queue.complete(key, "w1") is True  # the late result rescues it
        assert queue.entry_state(key) == COMPLETED
        assert queue.failed_errors() == []

    def test_heartbeat_extends_only_the_callers_live_leases(self):
        queue, keys = self._queue(n=2, lease_seconds=0.05)
        queue.claim("w1")
        queue.claim("w2")
        assert queue.heartbeat("w1", keys) == 1  # w2's lease is not w1's to extend
        time.sleep(0.06)
        assert queue.heartbeat("w1", [keys[0]]) == 1  # still leased until expire runs

    @staticmethod
    def _claim_keys(queue, worker, n, rank=None):
        """The keys of ``n`` successive single claims, None once one is empty."""
        leases = [queue.claim(worker, rank=rank) for _ in range(n)]
        return [lease.key if lease is not None else None for lease in leases]

    def test_claim_order_is_insertion_order_and_a_requeue_keeps_its_place(self):
        queue, keys = self._queue(n=4, retries=1)
        a, b, c, d = keys
        assert self._claim_keys(queue, "w1", 2) == [a, b]
        assert queue.fail(b, "w1", _error(b)) is True
        assert queue.fail(a, "w1", _error(a)) is True
        # both re-queued entries come back ahead of the later ones, in order
        assert self._claim_keys(queue, "w2", 3) == [a, b, c]
        assert queue.complete(a, "w2") is True
        readded = queue.add(a, _job(seed=0))  # a finished key starts over at the back
        assert readded.state == PENDING
        assert self._claim_keys(queue, "w2", 3) == [d, a, None]

    def test_ranked_claims_order_by_rank_then_insertion(self):
        queue, keys = self._queue(n=5, retries=1)
        rank = dict(zip(keys, [1, 0, None, 0, 1], strict=True))

        def ranked(job):
            return rank[config_key(job)]

        assert self._claim_keys(queue, "w1", 2, ranked) == [keys[1], keys[3]]
        assert queue.fail(keys[3], "w1", _error(keys[3])) is True
        assert self._claim_keys(queue, "w1", 4, ranked) == [keys[3], keys[0], keys[4], None]
        # the entry every claimer ranks None is left for a plain claim
        assert self._claim_keys(queue, "w2", 2) == [keys[2], None]

    @staticmethod
    def _noop_sweep(monkeypatch, n, *, failing):
        """``n`` jobs of a no-op kind; with ``failing``, every odd seed raises."""
        from repro.experiments import engine

        def noop(job):
            from repro.experiments.records import ComparisonRecord

            if failing and job.seed % 2:
                raise RuntimeError("odd seed")
            return ComparisonRecord(
                benchmark=job.benchmark, architecture="noop", num_data_qubits=1,
                num_physical_qubits=1, baseline_depth=1.0, mech_depth=1.0,
                baseline_eff_cnots=1.0, mech_eff_cnots=1.0, highway_qubit_fraction=0.0,
            )

        monkeypatch.setitem(engine.EXECUTORS, "noop", noop)
        return [Job(benchmark="BV", kind="noop", seed=seed) for seed in range(n)]

    def test_draining_visits_each_entry_a_bounded_number_of_times(self, monkeypatch):
        self._drain_counting_visits(monkeypatch, failing=False)

    def test_draining_failing_jobs_visits_each_entry_a_bounded_number_of_times(
        self, monkeypatch
    ):
        self._drain_counting_visits(monkeypatch, failing=True)

    def _drain_counting_visits(self, monkeypatch, *, failing):
        # claim, complete, fail and the ledger's settle stay O(1) per job:
        # 4,096 no-op jobs (with ``failing``, half of them fail) must not cost
        # the quadratic scans of a full-queue walk or of a sort of every
        # failed entry
        from repro.farm import queue as queue_module

        n = 4096
        budget = 16 * n

        class CountingEntry(queue_module.QueueEntry):
            visits = 0

            def __getattribute__(self, name):
                if name in ("state", "position", "error"):
                    CountingEntry.visits += 1
                    if CountingEntry.visits > budget:
                        raise AssertionError(f"more than {budget} entry visits for {n} jobs")
                return super().__getattribute__(name)

        monkeypatch.setattr(queue_module, "QueueEntry", CountingEntry)
        jobs = self._noop_sweep(monkeypatch, n, failing=failing)
        records, report = run_jobs_report(jobs, policy=JobPolicy(on_error="record"))
        assert report.executed == n
        assert len(records) == (n // 2 if failing else n)
        assert report.failed == n - len(records)
        assert [error.key for error in report.errors] == [
            config_key(job) for job in jobs if failing and job.seed % 2
        ]
        assert n <= CountingEntry.visits <= budget

    def test_checkpoint_writes_do_not_grow_with_the_number_of_failures(
        self, monkeypatch, tmp_path
    ):
        from repro.experiments import ledger as ledger_module

        monkeypatch.setattr(ledger_module, "_CHECKPOINT_FLUSH_SECONDS", 60.0)
        written = []
        atomic_write = ledger_module._atomic_write_json

        def counting_write(path, document):
            written.append(path)
            atomic_write(path, document)

        monkeypatch.setattr(ledger_module, "_atomic_write_json", counting_write)
        writes = []
        for n in (8, 64):
            written.clear()
            checkpoint = tmp_path / f"sweep-{n}.checkpoint.json"
            jobs = self._noop_sweep(monkeypatch, n, failing=True)
            _, report = run_jobs_report(
                jobs, policy=JobPolicy(on_error="record"), checkpoint=checkpoint
            )
            assert report.failed == n // 2
            assert json.loads(checkpoint.read_text())["finished"] is True
            writes.append(len(written))
        assert writes[0] == writes[1]  # 4 failures or 32: the same writes

    def test_reseed_on_retry_is_applied_coordinator_side(self):
        job = _job()
        key = config_key(job)
        queue = LeaseQueue(
            {key: job},
            policy=JobPolicy(retries=1, reseed_on_retry=True),
            lease_seconds=15.0,
        )
        first = queue.claim("w1")
        assert first.job["seed"] == job.seed
        queue.fail(key, "w1", _error(key))
        second = queue.claim("w1")
        assert second.key == key  # the result still lands under the original key
        assert second.job["seed"] == job.seed + 1


class TestCoordinatorOverTcp:
    """Drive a live coordinator with a hand-rolled protocol-v2 client."""

    @pytest.fixture()
    def farm(self, tmp_path):
        jobs = [_job(seed=0), _job(seed=1)]
        cache = ResultCache(tmp_path / "cache")
        coordinator = FarmCoordinator(
            jobs,
            cache=cache,
            policy=JobPolicy(retries=1),
            lease_seconds=10.0,
            checkpoint=tmp_path / "farm.checkpoint.json",
            checkpoint_meta={"experiment": "table2"},
        )
        coordinator.start()
        yield coordinator, cache
        coordinator.shutdown()

    def test_claim_execute_complete_drains_the_queue(self, farm):
        from repro.experiments.execute import _execute_keyed

        coordinator, cache = farm
        with ServeClient(coordinator.host, coordinator.port) as client:
            while True:
                payload = client.request(claim_request("w1")).payload
                leases = [parse_lease(item) for item in payload["leases"]]
                if not leases:
                    assert payload["done"] is True
                    break
                for lease in leases:
                    key, result = _execute_keyed((lease.key, lease.job, lease.policy))
                    assert "job_error" not in result
                    reply = client.request(complete_request("w1", key, result))
                    assert reply.payload["accepted"] is True
        assert coordinator.wait(timeout=5.0) is True
        assert len(coordinator.records()) == 2
        assert len(cache) == 2  # results landed in the shared cache
        # the checkpoint compacted to finished and the journal has the story
        doc = json.loads(coordinator.checkpoint_path.read_text())
        assert doc["finished"] is True
        events = [entry["event"] for entry in read_journal(coordinator.journal_path)]
        assert events.count("lease") == 2
        assert events.count("complete") == 2
        assert events[0] == "plan"

    def test_progress_reply_reuses_the_work_stats_schema(self, farm):
        coordinator, _cache = farm
        with ServeClient(coordinator.host, coordinator.port) as client:
            client.request(claim_request("w1"))
            payload = client.request(progress_request()).payload
        queue = payload["queue"]
        assert queue["work_stats_version"] == WORK_STATS_VERSION
        assert queue["total"] == 2
        assert queue["in_flight"] == 1
        assert queue["queue_depth"] == 1
        assert payload["done"] is False

    def test_v1_ping_and_stats_still_work_against_a_coordinator(self, farm):
        coordinator, _cache = farm
        with ServeClient(coordinator.host, coordinator.port) as client:
            assert client.ping().ok is True
            stats = client.stats()
        assert stats["queue"]["total"] == 2

    def test_reported_failure_consumes_the_budget_and_journals(self, farm):
        coordinator, _cache = farm
        with ServeClient(coordinator.host, coordinator.port) as client:
            (lease_dict,) = client.request(claim_request("w1")).payload["leases"]
            key = lease_dict["key"]
            error = _error(key).__dict__
            assert client.request(fail_request("w1", key, dict(error))).payload["requeued"] is True
            (again,) = client.request(claim_request("w1")).payload["leases"]
            assert again["key"] == key
            assert again["attempt"] == 1
            assert (
                client.request(fail_request("w1", key, dict(error))).payload["requeued"] is False
            )
        errors = coordinator.errors()
        assert [e.key for e in errors] == [key]

    def test_compile_op_is_redirected_to_repro_serve(self, farm):
        coordinator, _cache = farm
        with ServeClient(coordinator.host, coordinator.port) as client:
            response = client.request(
                ServeRequest(op="compile", request_id="c1", job=job_to_dict(_job()))
            )
        assert response.ok is False
        assert "repro serve" in response.error

    def test_cached_jobs_are_never_dispatched(self, tmp_path):
        from repro.experiments.execute import _execute_keyed

        cache = ResultCache(tmp_path / "cache")
        job = _job()
        key, payload = _execute_keyed((config_key(job), job_to_dict(job), {}))
        cache.put(key, job, payload)
        coordinator = FarmCoordinator([job], cache=cache)
        coordinator.start()
        try:
            assert coordinator.wait(timeout=0.5) is True  # done before any worker
            with ServeClient(coordinator.host, coordinator.port) as client:
                reply = client.request(claim_request("w1")).payload
            assert reply["leases"] == []
            assert reply["done"] is True
            assert len(coordinator.records()) == 1
            assert coordinator.report().cache_hits == 1
        finally:
            coordinator.shutdown()


class TestFarmWorkerReportsNoWarmState:
    def test_claims_and_completions_carry_no_warm_state(self, monkeypatch):
        """A farm worker keeps the coordinator on plain queue order: it
        reports no devices, so no claim ranks the pending entries."""
        from repro.farm import run_worker
        from repro.farm import worker as farm_worker

        bodies = []
        for name in ("claim_request", "complete_request"):
            original = getattr(farm_worker, name)

            def recording(*args, _original=original, **kwargs):
                request = _original(*args, **kwargs)
                bodies.append(request.body)
                return request

            monkeypatch.setattr(farm_worker, name, recording)
        coordinator = FarmCoordinator([_job(seed=0), _job(seed=1)]).start()
        try:
            assert run_worker(coordinator.host, coordinator.port) == 0
            assert coordinator.desk.warm_state(1)["device_keys"] == []
        finally:
            coordinator.shutdown()
        assert len(bodies) >= 4  # at least two claims and two completions
        assert all("warm_state" not in body for body in bodies)


class TestLauncher:
    def test_render_worker_command_substitutes_placeholders(self):
        command = render_worker_command(
            "ssh node{index} repro farm-worker --connect {host}:{port}",
            index=3,
            host="10.0.0.1",
            port=7464,
        )
        assert command == "ssh node3 repro farm-worker --connect 10.0.0.1:7464"

    def test_render_worker_command_rejects_unknown_placeholders(self):
        # {workers} went with the per-worker thread count: one job per process
        for template in ("run {cluster}", "run {workers}"):
            with pytest.raises(ValueError, match="unknown placeholder"):
                render_worker_command(template, index=0, host="h", port=1)


class TestRunFarm:
    def test_run_farm_with_local_workers_produces_records(self, tmp_path):
        jobs = [_job(seed=0), _job(seed=1), _job(seed=2)]
        records, report = run_farm(
            jobs,
            launcher=LocalWorkerLauncher(log_dir=tmp_path / "logs"),
            workers=1,
            cache=ResultCache(tmp_path / "cache"),
            policy=JobPolicy(timeout=300, retries=1),
            checkpoint=tmp_path / "farm.checkpoint.json",
        )
        assert len(records) == 3
        assert report.failed == 0
        assert report.executed == 3
        doc = json.loads((tmp_path / "farm.checkpoint.json").read_text())
        assert doc["finished"] is True
        # --worker-log-dir: the forked worker's stderr landed in its log
        log = tmp_path / "logs" / "worker-0.log"
        assert log.exists() and log.stat().st_size > 0

    def test_run_farm_skips_workers_when_everything_is_cached(self, tmp_path):
        class ExplodingLauncher:
            def launch(self, index, host, port):  # pragma: no cover - must not run
                raise AssertionError("launched a worker for a fully cached run")

        jobs = [_job(seed=0)]
        cache = ResultCache(tmp_path / "cache")
        records, _report = run_farm(
            jobs,
            launcher=LocalWorkerLauncher(),
            workers=1,
            cache=cache,
        )
        assert len(records) == 1
        records, report = run_farm(
            jobs, launcher=ExplodingLauncher(), workers=4, cache=cache
        )
        assert len(records) == 1
        assert report.cache_hits == 1

    def test_raise_policy_aborts_at_the_first_exhausted_job(self, monkeypatch):
        # QFT fails at once while BV stalls for 30 s: aborting at the first
        # failure (instead of draining the queue) returns long before that
        set_chaos_spec(monkeypatch, "job-fail:QFT;job-stall:BV,seconds=30")
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="injected fault"):
            run_farm([_job("BV"), _job("QFT")], launcher=LocalWorkerLauncher(), workers=2)
        assert time.monotonic() - start < 15.0

    def test_abort_without_a_checkpoint_names_no_journal(self):
        # the launched shell exits at once, so every worker is gone while
        # the job remains; a run that keeps no checkpoint has no journal
        with pytest.raises(FarmAbortedError) as caught:
            run_farm([_job()], launcher=CommandWorkerLauncher("exit 0"), workers=1)
        message = str(caught.value)
        assert "every farm worker exited while work remains" in message
        assert "None" not in message
        assert "journal" not in message
        assert caught.value.checkpoint is None

    def test_run_farm_validates_workers(self):
        with pytest.raises(ValueError, match="workers"):
            run_farm([_job()], launcher=LocalWorkerLauncher(), workers=0)


class TestParallelRunHealsLostWorker:
    """A SIGKILLed worker under ``run_jobs_report(workers=2)`` heals by lease
    expiry; the run neither hangs nor loses the job silently."""

    JOBS = [_job("BV", seed=1), _job("QFT", seed=1)]

    @pytest.fixture(autouse=True)
    def stalled_qft(self, monkeypatch):
        set_chaos_spec(monkeypatch, "job-stall:QFT,seconds=2")
        monkeypatch.setattr(farm_coordinator, "LEASE_SECONDS", 1.5)

    def _run_killing_qft_worker(self, tmp_path, *, retries):
        checkpoint = tmp_path / "run.checkpoint.json"
        journal = journal_path_for(checkpoint)
        qft_key = config_key(self.JOBS[1])
        outcome = {}

        def run():
            try:
                outcome["result"] = run_jobs_report(
                    self.JOBS,
                    workers=2,
                    cache=tmp_path / "cache",
                    policy=JobPolicy(retries=retries, on_error="record"),
                    checkpoint=checkpoint,
                )
            except BaseException as exc:  # surfaced by the asserts below
                outcome["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        victim = None
        deadline = time.monotonic() + 10.0
        while victim is None and time.monotonic() < deadline:
            events = read_journal(journal) if journal.exists() else []
            leases = [e for e in events if e["event"] == "lease" and e["key"] == qft_key]
            if leases:
                # forked workers are named local-<index>-<pid>
                victim = int(leases[0]["worker"].rsplit("-", 1)[1])
            else:
                time.sleep(0.05)
        assert victim is not None, "the QFT job was never leased to a worker"
        os.kill(victim, signal.SIGKILL)  # mid-job: QFT stalls for 2 s
        runner.join(timeout=12.0)
        assert not runner.is_alive(), "run_jobs_report hung after a worker was SIGKILLed"
        assert "error" not in outcome, outcome.get("error")
        return outcome["result"]

    def test_lost_job_is_retried_within_budget(self, tmp_path):
        records, report = self._run_killing_qft_worker(tmp_path, retries=1)
        assert [record.benchmark for record in records] == ["BV", "QFT"]
        assert report.failed == 0

    def test_lost_job_without_budget_is_reported_not_hung(self, tmp_path):
        records, report = self._run_killing_qft_worker(tmp_path, retries=0)
        assert [record.benchmark for record in records] == ["BV"]
        assert report.failed == 1
        assert report.errors[0].error_type == "WorkerLostError"
