"""Tests for the warm-state compile server (``repro serve``).

Covers the wire schema, the warm-state registry's sharing/LRU behaviour,
thread-safe job timeouts (the ``_deadline`` SIGALRM fallback the workers'
executor threads depend on), the end-to-end acceptance property — results
served over the socket are byte-identical, modulo wall-clock fields, to
what the batch engine computes for the same jobs, for every registered
backend — and the forked compile workers: single-flight, healing a killed
worker by lease expiry, answering when none is left, hits that never wait
behind a compile, and workers that end with a killed server.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import child_pids, set_chaos_spec, strip_timing, wait_until_gone
from repro import cli
from repro.backends import available_backends
from repro.experiments import devices, engine
from repro.experiments.engine import (
    Job,
    JobPolicy,
    JobTimeoutError,
    ResultCache,
    config_key,
    job_to_dict,
)
from repro.experiments.execute import _deadline, _execute_keyed
from repro.experiments.records import record_to_payload
from repro.experiments.runner import backend_stat_extras, compile_many
from repro.serve import (
    SERVE_PROTOCOL_VERSION,
    CompileServer,
    ServeClient,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    WarmStateRegistry,
    decode_line,
    device_key,
    encode_message,
    submit_jobs,
)

SMALL = dict(chiplet_width=4, rows=1, cols=2)


def canonical(payload):
    return json.dumps(strip_timing(payload), sort_keys=True)


def batch_payload(job):
    _, payload = _execute_keyed((config_key(job), job_to_dict(job), None))
    assert "job_error" not in payload, payload
    return payload


def per_job_build_payload(job):
    """The payload of a compare ``job`` compiled on a device built for it
    alone: a fresh array, with the highway layout built inside
    ``compile_many`` and the router built by each backend."""
    compiled = compile_many(
        job.benchmark,
        job.build_array(),
        layout=None,
        router=None,
        compilers=job.compilers,
        noise=job.noise_model(),
        highway_density=job.highway_density,
        num_data_qubits=job.num_data_qubits,
        min_components=job.min_components,
        baseline_trials=job.baseline_trials,
        seed=job.seed,
        benchmark_kwargs=dict(job.benchmark_kwargs) or None,
    )
    extra = backend_stat_extras(compiled)
    return record_to_payload(compiled.comparison_record(job.noise_model(), extra=extra))


# --------------------------------------------------------------------------
# canonical payload form


class TestStripTiming:
    def test_drops_wall_clock_keys_only(self):
        payload = {
            "baseline_depth": 10,
            "baseline_seconds": 0.123,
            "mech_seconds": 0.456,
            "seconds": {"baseline": 0.1},
            "extra": {"note": "kept"},
        }
        stripped = strip_timing(payload)
        assert stripped == {"baseline_depth": 10, "extra": {"note": "kept"}}

    def test_does_not_mutate_input(self):
        payload = {"seconds": {"mech": 0.2}, "depth": 4}
        strip_timing(payload)
        assert "seconds" in payload


# --------------------------------------------------------------------------
# wire schema


class TestSchema:
    def test_request_round_trip(self):
        request = ServeRequest(
            op="compile",
            request_id="r-1",
            job=job_to_dict(Job(benchmark="QFT", **SMALL)),
            policy=JobPolicy(timeout=5.0).to_dict(),
        )
        decoded = decode_line(encode_message(request), ServeRequest)
        assert decoded == request

    def test_response_round_trip(self):
        response = ServeResponse(
            request_id="r-2", ok=False, payload={"key": "abc"}, error="boom"
        )
        decoded = decode_line(encode_message(response), ServeResponse)
        assert decoded == response

    def test_encode_is_one_line(self):
        line = encode_message(ServeRequest(op="ping", request_id="p-1"))
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]

    def test_unknown_op_rejected(self):
        with pytest.raises(ServeProtocolError, match="unknown op"):
            ServeRequest(op="explode", request_id="x")

    def test_compile_requires_job(self):
        with pytest.raises(ServeProtocolError, match="job"):
            ServeRequest(op="compile", request_id="x")

    def test_empty_request_id_rejected(self):
        with pytest.raises(ServeProtocolError, match="request_id"):
            ServeRequest(op="ping", request_id="")

    def test_protocol_version_mismatch(self):
        # version 2 is now the farm work-queue protocol, so "unknown" means
        # a version beyond anything this build speaks
        payload = ServeRequest(op="ping", request_id="p").to_dict()
        payload["protocol"] = 99
        with pytest.raises(ServeProtocolError, match="protocol version"):
            ServeRequest.from_dict(payload)

    def test_malformed_line(self):
        with pytest.raises(ServeProtocolError, match="malformed JSON"):
            decode_line(b"{not json}\n", ServeRequest)
        with pytest.raises(ServeProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n", ServeRequest)
        with pytest.raises(ServeProtocolError, match="empty"):
            decode_line(b"   \n", ServeRequest)


# --------------------------------------------------------------------------
# warm-state registry


class TestWarmStateRegistry:
    def test_second_get_returns_identical_objects(self):
        registry = WarmStateRegistry()
        job = Job(benchmark="QFT", **SMALL)
        first = registry.get(job)
        second = registry.get(Job(benchmark="QAOA", seed=9, **SMALL))
        assert first is second  # same device -> same resident state
        assert first.array is second.array
        assert first.router is second.router

    def test_device_key_ignores_benchmark_and_seed(self):
        a = device_key(Job(benchmark="QFT", seed=0, **SMALL))
        b = device_key(Job(benchmark="BV", seed=7, **SMALL))
        assert a == b
        c = device_key(Job(benchmark="QFT", chiplet_width=5, rows=1, cols=2))
        assert a != c

    def test_lru_cap_evicts_oldest(self):
        registry = WarmStateRegistry(max_devices=2)
        jobs = [
            Job(benchmark="QFT", chiplet_width=3, rows=1, cols=2),
            Job(benchmark="QFT", chiplet_width=4, rows=1, cols=2),
            Job(benchmark="QFT", chiplet_width=5, rows=1, cols=2),
        ]
        for job in jobs:
            registry.get(job)
        assert len(registry) == 2
        assert jobs[0] not in registry  # oldest evicted
        assert jobs[1] in registry and jobs[2] in registry

    def test_stats_counters(self):
        registry = WarmStateRegistry()
        job = Job(benchmark="QFT", **SMALL)
        registry.get(job)
        registry.get(job)
        stats = registry.stats()
        assert stats["cold_builds"] == 1
        assert stats["warm_hits"] == 1
        assert stats["devices_resident"] == 1
        assert stats["device_keys"] == [list(device_key(job))]

    def test_concurrent_gets_share_one_state(self):
        registry = WarmStateRegistry()
        job = Job(benchmark="QFT", **SMALL)
        results = []
        barrier = threading.Barrier(4)

        def fetch():
            barrier.wait()
            results.append(registry.get(job))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(state is results[0] for state in results)
        assert registry.stats()["devices_resident"] == 1

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="max_devices"):
            WarmStateRegistry(max_devices=0)

    def test_warm_state_matches_cold_compile(self, monkeypatch):
        """The acceptance property at the registry level: a compile on a
        registry's resident state produces exactly the payload of a compile
        on a device built for the job alone (timing stripped)."""
        registry = WarmStateRegistry()
        monkeypatch.setattr(devices, "_DEFAULT", registry)
        job = Job(benchmark="QFT", **SMALL)
        cold = per_job_build_payload(job)
        built = batch_payload(job)
        warm = batch_payload(job)
        stats = registry.stats()
        assert (stats["cold_builds"], stats["warm_hits"]) == (1, 1)
        assert canonical(built) == canonical(cold)
        assert canonical(warm) == canonical(cold)


# --------------------------------------------------------------------------
# thread-safe timeouts (the _deadline SIGALRM-fallback regression tests)


def _spin(job):
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        pass
    raise AssertionError("spin executor was never interrupted")


class TestWorkerThreadTimeout:
    def test_deadline_raises_in_worker_thread(self):
        """Regression: _deadline used signal.setitimer unconditionally, which
        raises ValueError off the main thread."""
        outcome = {}

        def body():
            try:
                with _deadline(0.2):
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        pass
                outcome["result"] = "completed"
            except JobTimeoutError:
                outcome["result"] = "timeout"
            except ValueError as exc:  # the historic failure mode
                outcome["result"] = f"ValueError: {exc}"

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert outcome["result"] == "timeout"

    def test_deadline_noop_without_timeout_in_thread(self):
        outcome = {}

        def body():
            with _deadline(None):
                outcome["ran"] = True

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10.0)
        assert outcome == {"ran": True}

    def test_timed_out_job_in_worker_thread_yields_job_error(self, monkeypatch):
        """A job run off the main thread that exceeds its timeout must come
        back as a JobTimeoutError payload, not hang or crash its thread."""
        monkeypatch.setitem(engine.EXECUTORS, "spin", _spin)
        job = Job(benchmark="SPIN", kind="spin")
        item = (config_key(job), job_to_dict(job), JobPolicy(timeout=0.2).to_dict())
        out = {}

        def run():
            _, payload = _execute_keyed(item)
            out["payload"] = payload

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        error = out["payload"]["job_error"]
        assert error["error_type"] == "JobTimeoutError"
        assert "0.2" in error["message"]

    def test_main_thread_timeout_still_works(self):
        with pytest.raises(JobTimeoutError):
            with _deadline(0.2):
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    pass


# --------------------------------------------------------------------------
# end-to-end server


@pytest.fixture(scope="module")
def server():
    with CompileServer(workers=3) as running:
        with ServeClient(running.host, running.port) as client:
            assert client.ping().ok
        yield running


class TestCompileServer:
    def test_ping(self, server):
        with ServeClient(server.host, server.port) as client:
            response = client.ping()
        assert response.ok
        assert response.payload["protocol"] == SERVE_PROTOCOL_VERSION

    def test_parallel_submissions_match_batch_for_every_backend(self, server):
        """Acceptance: concurrent served results are byte-identical (modulo
        wall-clock) to the batch path, with every registered backend in one
        comparison."""
        everything = tuple(available_backends())
        jobs = [
            Job(benchmark="QFT", compilers=everything, **SMALL),
            Job(benchmark="QAOA", seed=3, **SMALL),
            Job(benchmark="BV", seed=1, **SMALL),
            Job(benchmark="QFT", chiplet_width=3, rows=1, cols=2),
        ]
        expected = [batch_payload(job) for job in jobs]
        responses = submit_jobs(jobs, server.host, server.port, concurrency=4)
        assert len(responses) == len(jobs)
        for job, response, batch in zip(jobs, responses, expected):
            assert response.ok, response.error
            served = response.payload["result"]
            assert canonical(served) == canonical(batch), job.benchmark
            assert response.payload["key"] == config_key(job)

    def test_repeat_submission_is_warm(self, server):
        job = Job(benchmark="QAOA", seed=11, **SMALL)
        with ServeClient(server.host, server.port) as client:
            first = client.compile_job(job)
            second = client.compile_job(job)
        assert first.ok and second.ok
        # the device was already resident from earlier tests or the first
        # request; the second must be warm either way
        assert second.payload["warm"] is True
        assert canonical(first.payload["result"]) == canonical(
            second.payload["result"]
        )

    def test_error_response_keeps_server_alive(self, server):
        bad = Job(benchmark="NOPE", **SMALL)
        with ServeClient(server.host, server.port) as client:
            response = client.compile_job(bad)
            assert not response.ok
            assert "unknown benchmark" in response.error
            assert response.payload["job_error"]["error_type"] == "ValueError"
            # the connection and the server both survive a failed job
            assert client.ping().ok

    def test_request_timeout_enforced_per_request(self, monkeypatch):
        # registered before a dedicated server forks, so its worker has it
        monkeypatch.setitem(engine.EXECUTORS, "spin", _spin)
        job = Job(benchmark="SPIN", kind="spin")
        with CompileServer(workers=1) as dedicated:
            with ServeClient(dedicated.host, dedicated.port) as client:
                response = client.compile_job(job, policy=JobPolicy(timeout=0.2))
        assert not response.ok
        assert response.payload["job_error"]["error_type"] == "JobTimeoutError"

    def test_invalid_job_dict_is_rejected_not_fatal(self, server):
        request = ServeRequest(
            op="compile", request_id="bad-job", job={"no_such_field": 1}
        )
        with ServeClient(server.host, server.port) as client:
            response = client.request(request)
            assert not response.ok
            assert "invalid job" in response.error
            assert client.ping().ok

    def test_non_finite_policy_timeout_is_rejected_not_fatal(self, server):
        request = ServeRequest(
            op="compile",
            request_id="nan-timeout",
            job=job_to_dict(Job(benchmark="BV", **SMALL)),
            policy={"timeout": float("nan")},
        )
        with ServeClient(server.host, server.port) as client:
            response = client.request(request)
            assert not response.ok
            assert "invalid policy" in response.error
            assert client.ping().ok

    def test_stats_counters_progress(self, server):
        with ServeClient(server.host, server.port) as client:
            before = client.stats()
            client.compile_job(Job(benchmark="QFT", seed=21, **SMALL))
            after = client.stats()
        assert after["compiles"] >= before["compiles"] + 1
        assert after["warm_state"]["devices_resident"] >= 1
        assert after["protocol"] == SERVE_PROTOCOL_VERSION
        assert after["dedup"]["recorded"] >= 1
        assert after["dedup"]["replayed"] == server.dedup.replayed


class TestServerLifecycle:
    def test_result_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        job = Job(benchmark="QFT", chiplet_width=3, rows=1, cols=2)
        with CompileServer(workers=1, cache=cache) as server:
            with ServeClient(server.host, server.port) as client:
                first = client.compile_job(job)
                second = client.compile_job(job)
        assert first.ok and second.ok
        assert first.payload["cached"] is False
        assert second.payload["cached"] is True
        assert canonical(first.payload["result"]) == canonical(
            second.payload["result"]
        )
        # the served entry is a regular engine cache entry
        assert cache.peek(config_key(job)) is not None

    def test_shutdown_request_stops_server(self):
        server = CompileServer(workers=1).start()
        try:
            with ServeClient(server.host, server.port) as client:
                response = client.shutdown_server()
            assert response.ok
            deadline = time.monotonic() + 10.0
            while not server._shutdown.is_set() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert server._shutdown.is_set()
        finally:
            server.shutdown()

    def test_start_restores_previous_provider_on_shutdown(self, monkeypatch):
        """The registry belongs to the worker: the server process compiles
        nothing and leaves its own registry alone, while a worker given
        ``max_devices`` sizes its process's one registry and compiles
        through it."""
        from repro.farm import FarmCoordinator, run_worker

        before = WarmStateRegistry()
        monkeypatch.setattr(devices, "_DEFAULT", before)
        server = CompileServer(workers=1).start()
        try:
            with ServeClient(server.host, server.port) as client:
                assert client.compile_job(Job(benchmark="BV", seed=31, **SMALL)).ok
                stats = client.stats()
        finally:
            server.shutdown()
        assert stats["warm_state"]["cold_builds"] == 1  # the worker's registry
        assert devices.default_registry() is before and len(before) == 0

        coordinator = FarmCoordinator([Job(benchmark="BV", seed=32, **SMALL)]).start()
        try:
            assert run_worker(coordinator.host, coordinator.port, max_devices=2) == 0
        finally:
            coordinator.shutdown()
        registry = devices.default_registry()
        assert registry is not before and registry.max_devices == 2
        assert registry.stats()["cold_builds"] == 1

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            CompileServer(workers=0)


# --------------------------------------------------------------------------
# forked compile workers


def _in_thread(call):
    """Run ``call`` on a thread; returns (thread, outcome dict)."""
    outcome = {}

    def body():
        try:
            outcome["result"] = call()
        except BaseException as exc:  # surfaced by the asserts
            outcome["error"] = exc

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, outcome


def _compile(server, job, **kwargs):
    with ServeClient(server.host, server.port, timeout=120.0) as client:
        return client.compile_job(job, **kwargs)


def _wait_in_flight(server, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if server.stats()["queue"]["in_flight"] >= count:
            return
        time.sleep(0.02)
    pytest.fail(f"{count} request(s) never went in flight: {server.stats()['queue']}")


class TestForkedWorkers:
    def test_concurrent_requests_for_one_key_share_one_execution(self, monkeypatch):
        # the stall keeps the first execution running while the second
        # request arrives; two idle workers could otherwise run both
        set_chaos_spec(monkeypatch, "job-stall:QFT,seconds=1")
        job = Job(benchmark="QFT", seed=41, **SMALL)
        with CompileServer(workers=2) as server:
            first, first_out = _in_thread(lambda: _compile(server, job))
            _wait_in_flight(server, 1)
            second, second_out = _in_thread(lambda: _compile(server, job))
            first.join(30.0)
            second.join(30.0)
            stats = server.stats()
        responses = [first_out["result"], second_out["result"]]
        assert all(response.ok for response in responses)
        # one execution: even the wall-clock fields are the same
        assert responses[0].payload["result"] == responses[1].payload["result"]
        warm = stats["warm_state"]
        assert warm["cold_builds"] + warm["warm_hits"] == 1
        assert stats["compiles"] == 2

    @pytest.mark.parametrize(
        ("max_devices", "cold_builds"), [(1, 4), (None, 2)], ids=["one-device", "default"]
    )
    def test_max_devices_caps_the_worker_registry(self, max_devices, cold_builds):
        """Alternating jobs on two devices: a one-device registry rebuilds
        each time, the default capacity builds each device once."""
        jobs = [
            Job(benchmark="BV", chiplet_width=width, rows=1, cols=2, seed=seed)
            for seed, width in enumerate((3, 4, 3, 4), start=61)
        ]
        capacity = {} if max_devices is None else {"max_devices": max_devices}
        with CompileServer(workers=1, **capacity) as server:
            responses = [_compile(server, job) for job in jobs]
            warm = server.stats()["warm_state"]
        assert all(response.ok for response in responses)
        assert warm["cold_builds"] == cold_builds

    def test_warm_requests_build_no_device(self):
        jobs = [Job(benchmark="BV", seed=seed, **SMALL) for seed in (31, 32, 33)]
        with CompileServer(workers=1) as server:
            responses = [_compile(server, job) for job in jobs]
            warm = server.stats()["warm_state"]
        assert all(response.ok for response in responses)
        assert warm["cold_builds"] == 1
        assert warm["warm_hits"] == 2
        assert responses[1].payload["warm"] is True
        assert responses[2].payload["warm"] is True

    def test_worker_killed_mid_compile_heals_by_lease_expiry(self, monkeypatch):
        from repro.farm import coordinator as farm_coordinator

        set_chaos_spec(monkeypatch, "job-stall:QFT,seconds=2")
        monkeypatch.setattr(farm_coordinator, "LEASE_SECONDS", 1.5)
        jobs = [Job(benchmark="QFT", seed=seed, **SMALL) for seed in (51, 52)]
        with CompileServer(workers=2, policy=JobPolicy(retries=1)) as server:
            runs = [_in_thread(lambda job=job: _compile(server, job)) for job in jobs]
            _wait_in_flight(server, 2)  # each worker holds one stalled lease
            victim = server.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            for thread, _ in runs:
                thread.join(30.0)
            stats = server.stats()
        set_chaos_spec(monkeypatch, None)  # the batch reference runs unstalled
        for (thread, outcome), job in zip(runs, jobs):
            assert not thread.is_alive()
            response = outcome["result"]
            assert response.ok, response.error
            assert canonical(response.payload["result"]) == canonical(batch_payload(job))
        assert stats["workers_alive"] == 1
        assert stats["errors"] == 0

    def test_requests_get_an_error_reply_once_no_worker_is_alive(self, monkeypatch):
        set_chaos_spec(monkeypatch, "job-stall:QFT,seconds=30")
        with CompileServer(workers=2) as server:
            queued, outcome = _in_thread(
                lambda: _compile(server, Job(benchmark="QFT", seed=61, **SMALL))
            )
            _wait_in_flight(server, 1)
            start = time.monotonic()
            for pid in server.worker_pids:
                os.kill(pid, signal.SIGKILL)
            queued.join(10.0)
            assert not queued.is_alive()
            assert time.monotonic() - start < 5.0
            assert "no compile worker is alive" in outcome["result"].error
            late = _compile(server, Job(benchmark="BV", seed=62, **SMALL))
            assert not late.ok and "no compile worker is alive" in late.error
            with ServeClient(server.host, server.port) as client:
                assert client.ping().ok

    def test_answered_keys_leave_the_queue(self, monkeypatch):
        set_chaos_spec(monkeypatch, "job-fail:QFT")
        jobs = [Job(benchmark="BV", seed=seed, **SMALL) for seed in (71, 72, 73)]
        with CompileServer(workers=1) as server:
            answered = [_compile(server, job) for job in jobs]
            failed = _compile(server, Job(benchmark="QFT", seed=74, **SMALL))
            left = len(server.queue)
            # a late duplicate completion of an answered key stays a no-op
            assert not server.queue.complete(config_key(jobs[0]), "late-worker")
            assert len(server.queue) == 0
            stats = server.stats()
        assert all(response.ok for response in answered)
        assert not failed.ok and "job failed" in failed.error
        assert left == 0
        assert stats["compiles"] == 4 and stats["queue"]["completed"] == 3

    def test_failed_compile_counts_every_attempt(self, monkeypatch):
        # the queue's error, not the worker's single attempt, answers the request
        set_chaos_spec(monkeypatch, "job-fail:QFT")
        job = Job(benchmark="QFT", seed=75, **SMALL)
        with CompileServer(workers=1) as server:
            response = _compile(server, job, policy=JobPolicy(retries=1, on_error="record"))
        assert not response.ok
        assert response.payload["job_error"]["attempts"] == 2

    def test_cache_hit_is_answered_while_every_worker_compiles(self, monkeypatch, tmp_path):
        set_chaos_spec(monkeypatch, "job-stall:QFT,seconds=30")
        cached = Job(benchmark="BV", seed=71, **SMALL)
        with CompileServer(workers=2, cache=ResultCache(tmp_path / "cache")) as server:
            assert _compile(server, cached).ok
            stalled = [
                _in_thread(lambda job=job: _compile(server, job))
                for job in (Job(benchmark="QFT", seed=seed, **SMALL) for seed in (72, 73))
            ]
            _wait_in_flight(server, 2)
            start = time.monotonic()
            hit = _compile(server, cached)
            elapsed = time.monotonic() - start
            # end the stalled compiles instead of draining them at shutdown
            for pid in server.worker_pids:
                os.kill(pid, signal.SIGKILL)
            for thread, _ in stalled:
                thread.join(10.0)
        assert hit.ok and hit.payload["cached"] is True
        assert elapsed < 1.0

    def test_workers_end_with_a_sigkilled_server(self, tmp_path):
        from repro.farm.queue import LEASE_SECONDS

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2", "--no-cache"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = server.stderr.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
            with ServeClient("127.0.0.1", port) as client:
                assert client.compile_job(Job(benchmark="BV", seed=81, **SMALL)).ok
            workers = child_pids(server.pid)
            assert len(workers) == 2
        finally:
            server.kill()
            server.wait(timeout=10)
        assert wait_until_gone(workers, LEASE_SECONDS + 2.0) == []


# --------------------------------------------------------------------------
# CLI pair


class TestServeCli:
    def test_submit_ping_and_stats(self, server, capsys):
        assert cli.main(["submit", "--port", str(server.port), "--ping"]) == 0
        assert "is up" in capsys.readouterr().out
        assert cli.main(["submit", "--port", str(server.port), "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["protocol"] == SERVE_PROTOCOL_VERSION

    def test_submit_single_job_table(self, server, capsys):
        code = cli.main(
            [
                "submit",
                "--port",
                str(server.port),
                "--benchmark",
                "QFT",
                "--chiplet-width",
                "4",
                "--rows",
                "1",
                "--cols",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "baseline" in out and "mech" in out

    def test_submit_json_mode(self, server, capsys):
        code = cli.main(
            [
                "submit",
                "--port",
                str(server.port),
                "--benchmark",
                "QAOA",
                "--chiplet-width",
                "4",
                "--rows",
                "1",
                "--cols",
                "2",
                "--json",
            ]
        )
        assert code == 0
        responses = json.loads(capsys.readouterr().out)
        assert len(responses) == 1 and responses[0]["ok"] is True

    def test_submit_unknown_benchmark_usage_error(self, server, capsys):
        code = cli.main(
            ["submit", "--port", str(server.port), "--benchmark", "XYZZY"]
        )
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_submit_rejects_single_compiler(self, server, capsys):
        code = cli.main(
            ["submit", "--port", str(server.port), "--compilers", "mech"]
        )
        assert code == 2

    def test_submit_no_server_fails_cleanly(self, capsys):
        code = cli.main(
            [
                "submit",
                "--port",
                "1",
                "--max-connect-seconds",
                "0.5",
                "--benchmark",
                "QFT",
                "--chiplet-width",
                "4",
            ]
        )
        assert code == 1
        assert "cannot talk to repro serve" in capsys.readouterr().err

    def test_ping_no_server(self, capsys):
        code = cli.main(["submit", "--port", "1", "--ping", "--max-connect-seconds", "0.5"])
        assert code == 1

    def test_control_ops_mutually_exclusive(self, capsys):
        code = cli.main(["submit", "--ping", "--stats"])
        assert code == 2
