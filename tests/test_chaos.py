"""Unit tests for the chaos-injection subsystem and the hardening it drove.

Covers the scenario-spec grammar (``repro.chaos.plan``), the deterministic
fault controller (``repro.chaos.inject``), the shared backoff policy, the
server-side request-id dedup log, bounded framing + structured protocol
errors, storage degradation (pass-through cache, checkpoint write
counters), and torn-journal/corrupt-checkpoint quarantine.
"""

import errno
import json
import socket

import pytest

from repro.chaos import (
    CHAOS_PLAN_VERSION,
    ChaosController,
    ChaosDrop,
    ChaosPlan,
    ChaosSpecError,
    chaos_controller,
    parse_chaos_spec,
    reset_chaos,
    set_chaos,
)
from repro.experiments.engine import (
    CheckpointError,
    Job,
    ResultCache,
    RunReport,
    append_journal,
    job_to_dict,
    load_checkpoint,
    quarantine_checkpoint,
    quarantine_path_for,
    read_journal,
    repair_journal,
)
from repro.serve.dedup import ResponseLog
from repro.serve.retry import BackoffPolicy, retry_call
from repro.serve.schema import (
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    ServeRequest,
    ServeResponse,
    encode_message,
    protocol_error_response,
    read_frame,
    request_token,
)


@pytest.fixture(autouse=True)
def _no_chaos_leak():
    """Every test leaves the process-level chaos singleton cleared."""
    reset_chaos()
    yield
    reset_chaos()


# --------------------------------------------------------------------------
# scenario-spec grammar


class TestChaosSpec:
    def test_issue_example_spec_parses(self):
        plan = parse_chaos_spec(
            "conn-drop:after=3;garble:rate=0.1;enospc:op=put;torn-tail:journal"
        )
        kinds = [clause.kind for clause in plan.clauses]
        assert kinds == ["conn-drop", "garble", "enospc", "torn-tail"]
        assert plan.clauses[0].params["after"] == 3
        assert plan.clauses[1].params["rate"] == pytest.approx(0.1)
        assert plan.clauses[2].params["op"] == "put"
        # bare token maps onto the kind's default parameter
        assert plan.clauses[3].params["target"] == "journal"

    def test_defaults_are_filled_in(self):
        plan = parse_chaos_spec("conn-drop")
        assert plan.clauses[0].params == {
            "after": 3,
            "times": 1,
            "site": "",
            "on": "any",
        }

    def test_seed_clause_both_spellings(self):
        assert parse_chaos_spec("seed=7;conn-drop").seed == 7
        assert parse_chaos_spec("seed:9").seed == 9
        assert parse_chaos_spec("garble").seed == 0

    def test_unknown_kind_is_pointed_error(self):
        with pytest.raises(ChaosSpecError, match="unknown fault kind 'explode'"):
            parse_chaos_spec("explode:now")

    def test_unknown_param_is_pointed_error(self):
        with pytest.raises(ChaosSpecError, match="unknown parameter 'rate'"):
            parse_chaos_spec("conn-drop:rate=0.5")

    def test_bad_value_type(self):
        with pytest.raises(ChaosSpecError, match="expected int"):
            parse_chaos_spec("conn-drop:after=soon")

    def test_enum_values_validated(self):
        with pytest.raises(ChaosSpecError, match="one of"):
            parse_chaos_spec("garble:mode=scramble")
        with pytest.raises(ChaosSpecError, match="one of"):
            parse_chaos_spec("torn-tail:target=cache")

    def test_plan_round_trips_through_dict(self):
        plan = parse_chaos_spec("seed=3;garble:site=worker,rate=0.5,times=2")
        clone = ChaosPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone.seed == plan.seed
        assert [c.to_dict() for c in clone.clauses] == [
            c.to_dict() for c in plan.clauses
        ]

    def test_plan_version_checked(self):
        doc = parse_chaos_spec("garble").to_dict()
        doc["chaos_plan_version"] = CHAOS_PLAN_VERSION + 1
        with pytest.raises(ChaosSpecError, match="unsupported chaos plan version"):
            ChaosPlan.from_dict(doc)


# --------------------------------------------------------------------------
# controller behaviour


FRAME = b'{"op":"ping","request_id":"x","protocol":1}\n'


class TestChaosController:
    def test_conn_drop_fires_after_n_frames_then_budget_exhausts(self):
        chaos = ChaosController(parse_chaos_spec("conn-drop:after=2,site=client"))
        assert chaos.on_frame("client.send", FRAME) == FRAME
        assert chaos.on_frame("client.send", FRAME) == FRAME
        with pytest.raises(ChaosDrop):
            chaos.on_frame("client.send", FRAME)
        # times=1: the drop never fires again
        for _ in range(10):
            assert chaos.on_frame("client.send", FRAME) == FRAME
        assert chaos.counters() == {"conn-drop@client.send": 1}

    def test_conn_drop_respects_direction_and_site(self):
        chaos = ChaosController(
            parse_chaos_spec("conn-drop:after=0,site=worker,on=recv")
        )
        # wrong site and wrong direction never trip the clause
        for _ in range(5):
            chaos.on_frame("client.recv", FRAME)
            chaos.on_frame("worker.send", FRAME)
        with pytest.raises(ChaosDrop):
            chaos.on_frame("worker.recv", FRAME)

    def test_chaos_drop_is_a_connection_error(self):
        # existing `except OSError` transport paths must catch injected drops
        assert issubclass(ChaosDrop, ConnectionError)
        assert issubclass(ChaosDrop, OSError)

    def test_garble_is_deterministic_under_seed(self):
        plan = parse_chaos_spec("seed=11;garble:rate=1.0")
        first = ChaosController(plan).on_frame("client.send", FRAME)
        second = ChaosController(plan).on_frame("client.send", FRAME)
        assert first == second
        assert first != FRAME
        assert first.endswith(b"\n") and b"\n" not in first[:-1]

    def test_garble_truncate_keeps_frame_boundary(self):
        chaos = ChaosController(parse_chaos_spec("seed=2;garble:rate=1.0,mode=truncate"))
        garbled = chaos.on_frame("client.send", FRAME)
        assert garbled.endswith(b"\n")
        assert len(garbled) <= len(FRAME)

    def test_slow_counts_but_returns_data_unchanged(self):
        chaos = ChaosController(parse_chaos_spec("slow:seconds=0.01,rate=1.0"))
        assert chaos.on_frame("server.send", FRAME) == FRAME
        assert chaos.counters() == {"slow@server.send": 1}

    def test_enospc_after_and_budget(self):
        chaos = ChaosController(parse_chaos_spec("enospc:op=put,after=1"))
        chaos.on_fs_op("put", "/c/entry")  # first op is under the `after` bar
        with pytest.raises(OSError) as excinfo:
            chaos.on_fs_op("put", "/c/entry")
        assert excinfo.value.errno == errno.ENOSPC
        chaos.on_fs_op("put", "/c/entry")  # times=1: budget spent
        chaos.on_fs_op("journal", "/c/j")  # op filter: journal never matched

    def test_readonly_raises_erofs_and_sticky_never_stops(self):
        chaos = ChaosController(parse_chaos_spec("readonly:op=checkpoint,sticky=1"))
        for _ in range(4):
            with pytest.raises(OSError) as excinfo:
                chaos.on_fs_op("checkpoint", "/c/ck.json")
            assert excinfo.value.errno == errno.EROFS

    def test_torn_tail_halves_one_journal_line(self):
        chaos = ChaosController(parse_chaos_spec("torn-tail:journal"))
        line = b'{"event":"lease","key":"abc"}\n'
        torn = chaos.journal_line("/j", line)
        assert torn == line[: len(line) // 2]
        assert chaos.journal_line("/j", line) == line  # times=1
        # target=journal leaves checkpoint payloads alone
        assert chaos.checkpoint_payload("/c", line) == line

    def test_report_and_flush(self, tmp_path):
        chaos = ChaosController(parse_chaos_spec("seed=5;garble:rate=1.0"))
        chaos.on_frame("client.send", FRAME)
        report = chaos.report()
        assert report["seed"] == 5
        assert report["total_injected"] == 1
        destination = tmp_path / "chaos-report.jsonl"
        chaos.flush_report(str(destination))
        chaos.flush_report(str(destination))  # appends, never truncates
        lines = destination.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["injected"] == {"garble@client.send": 1}

    def test_singleton_parses_env_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "garble:rate=1.0")
        reset_chaos()
        first = chaos_controller()
        assert first is not None and first is chaos_controller()
        monkeypatch.delenv("REPRO_CHAOS")
        assert chaos_controller() is first  # cached; env re-read only on reset
        reset_chaos()
        assert chaos_controller() is None

    def test_set_chaos_installs_and_clears(self):
        controller = set_chaos(parse_chaos_spec("slow:rate=0.0"))
        assert chaos_controller() is controller
        assert set_chaos(None) is None
        assert chaos_controller() is None


# --------------------------------------------------------------------------
# backoff policy


class TestBackoff:
    def test_delays_are_capped_and_jittered(self):
        policy = BackoffPolicy(initial=1.0, cap=4.0, multiplier=2.0, jitter=0.5)
        delays = policy.delays()
        observed = [next(delays) for _ in range(6)]
        for index, delay in enumerate(observed):
            ceiling = min(1.0 * 2.0**index, 4.0)
            assert ceiling * 0.5 <= delay <= ceiling

    def test_retry_call_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        sleeps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionRefusedError("not yet")
            return "up"

        result = retry_call(
            flaky,
            policy=BackoffPolicy(initial=0.01, max_attempts=5, max_total_seconds=60.0),
            sleep=sleeps.append,
        )
        assert result == "up"
        assert calls["n"] == 3 and len(sleeps) == 2

    def test_retry_call_raises_after_attempt_budget(self):
        def always():
            raise ConnectionRefusedError("never")

        with pytest.raises(ConnectionRefusedError):
            retry_call(
                always,
                policy=BackoffPolicy(initial=0.001, max_attempts=3),
                sleep=lambda _s: None,
            )

    def test_retry_call_respects_wall_clock_deadline(self):
        clock = {"now": 0.0}
        attempts = {"n": 0}

        def always():
            attempts["n"] += 1
            raise ConnectionRefusedError("never")

        with pytest.raises(ConnectionRefusedError):
            retry_call(
                always,
                policy=BackoffPolicy(
                    initial=10.0,
                    cap=10.0,
                    jitter=0.0,
                    max_attempts=100,
                    max_total_seconds=5.0,
                ),
                sleep=lambda _s: None,
                clock=lambda: clock["now"],
            )
        # the first retry's 10s delay already blows the 5s budget
        assert attempts["n"] == 1

    def test_non_retryable_exceptions_propagate_immediately(self):
        def broken():
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            retry_call(broken, policy=BackoffPolicy(max_attempts=5))


# --------------------------------------------------------------------------
# request-id dedup


def _response(request_id, n=0):
    return ServeResponse(request_id=request_id, ok=True, payload={"n": n})


class TestResponseLog:
    def test_record_then_replay(self):
        log = ResponseLog()
        log.record(_response("a", 1))
        assert log.replay("a").payload == {"n": 1}
        assert log.replay("unseen") is None
        assert log.replayed == 1

    def test_null_request_id_never_recorded(self):
        log = ResponseLog()
        log.record(ServeResponse(request_id=None, ok=False, error="bad frame"))
        assert len(log) == 0

    def test_lru_eviction(self):
        log = ResponseLog(capacity=2)
        log.record(_response("a"))
        log.record(_response("b"))
        assert log.replay("a") is not None  # touch: a is now most recent
        log.record(_response("c"))  # evicts b
        assert log.replay("b") is None
        assert log.replay("a") is not None and log.replay("c") is not None

    def test_request_token_is_stable_within_process(self):
        assert request_token() == request_token()
        assert len(request_token()) >= 7


# --------------------------------------------------------------------------
# bounded framing + structured protocol errors


class _Reader:
    def __init__(self, data):
        self.data = data

    def readline(self, limit):
        out, self.data = self.data[:limit], self.data[limit:]
        newline = out.find(b"\n")
        if newline != -1:
            self.data = out[newline + 1 :] + self.data
            out = out[: newline + 1]
        return out


class TestFraming:
    def test_read_frame_normal_and_eof(self):
        reader = _Reader(FRAME)
        assert read_frame(reader) == FRAME
        assert read_frame(reader) is None

    def test_read_frame_oversized_raises(self):
        reader = _Reader(b"x" * 64 + b"\n")
        with pytest.raises(FrameTooLargeError):
            read_frame(reader, limit=16)

    def test_protocol_error_codes(self):
        from repro.serve.schema import ServeProtocolError, decode_line

        oversized = protocol_error_response(b"", FrameTooLargeError("too big"))
        assert oversized.payload["code"] == "oversized-frame"
        assert oversized.request_id is None

        malformed = protocol_error_response(
            b"{not json}\n", ServeProtocolError("malformed JSON line")
        )
        assert malformed.payload["code"] == "malformed-frame"
        assert malformed.request_id is None

        bad_version = json.dumps(
            {"protocol": 99, "op": "ping", "request_id": "r-9"}
        ).encode() + b"\n"
        with pytest.raises(ServeProtocolError) as excinfo:
            decode_line(bad_version, ServeRequest)
        mismatch = protocol_error_response(bad_version, excinfo.value)
        assert mismatch.payload["code"] == "protocol-mismatch"
        assert mismatch.request_id == "r-9"  # salvaged from the bad frame

        semantic = protocol_error_response(
            json.dumps({"protocol": 1, "op": "nope", "request_id": "r-1"}).encode()
            + b"\n",
            ServeProtocolError("unknown op 'nope'"),
        )
        assert semantic.payload["code"] == "protocol-error"
        assert semantic.request_id == "r-1"

    def test_error_response_round_trips_null_request_id(self):
        response = protocol_error_response(b"junk\n", FrameTooLargeError("big"))
        from repro.serve.schema import decode_line

        clone = decode_line(encode_message(response), ServeResponse)
        assert clone.request_id is None and clone.ok is False


# --------------------------------------------------------------------------
# storage degradation


JOB = Job(benchmark="QFT", chiplet_width=3, rows=1, cols=2)
PAYLOAD = {"record": {"benchmark": "QFT"}, "kind": "experiment"}


class TestDegradedCache:
    def test_put_degrades_to_pass_through_under_enospc(self, tmp_path):
        set_chaos(parse_chaos_spec("enospc:op=put,sticky=1"))
        cache = ResultCache(tmp_path / "cache")
        path = cache.put("k1", JOB, PAYLOAD)
        assert not path.exists()  # nothing persisted...
        assert cache.write_errors == 1 and cache.degraded  # ...but counted
        cache.put("k2", JOB, PAYLOAD)
        assert cache.write_errors == 2

    def test_put_recovers_when_fault_budget_ends(self, tmp_path):
        set_chaos(parse_chaos_spec("enospc:op=put,times=1"))
        cache = ResultCache(tmp_path / "cache")
        cache.put("k1", JOB, PAYLOAD)
        assert cache.degraded
        second = cache.put("k2", JOB, PAYLOAD)
        assert second.exists()  # the fault budget ran out; writes persist again
        assert cache.write_errors == 1

    def test_report_summary_surfaces_degradation(self):
        report = RunReport(
            total=4,
            executed=4,
            cache_write_errors=2,
            cache_degraded=True,
            checkpoint_write_errors=1,
            transport_replays=3,
        )
        text = report.summary()
        assert "cache degraded to pass-through (2 write errors)" in text
        assert "1 checkpoint write error" in text
        assert "3 retried requests replayed" in text

    def test_clean_report_has_no_degradation_noise(self):
        assert "degraded" not in RunReport(total=1, executed=1).summary()


# --------------------------------------------------------------------------
# torn-journal / corrupt-checkpoint quarantine


class TestJournalQuarantine:
    def test_healthy_journal_untouched(self, tmp_path):
        journal = tmp_path / "run.checkpoint.journal.jsonl"
        append_journal(journal, {"event": "lease", "key": "a"})
        append_journal(journal, {"event": "complete", "key": "a"})
        before = journal.read_bytes()
        assert repair_journal(journal) is None
        assert journal.read_bytes() == before
        assert not quarantine_path_for(journal).exists()

    def test_missing_journal_is_a_noop(self, tmp_path):
        assert repair_journal(tmp_path / "absent.jsonl") is None

    def test_torn_tail_quarantined_and_prefix_kept(self, tmp_path):
        journal = tmp_path / "run.checkpoint.journal.jsonl"
        append_journal(journal, {"event": "lease", "key": "a"})
        append_journal(journal, {"event": "complete", "key": "a"})
        whole = journal.read_bytes()
        torn = b'{"event":"lease","ke'
        journal.write_bytes(whole + torn)

        repaired = repair_journal(journal)
        assert repaired is not None
        assert repaired["quarantined_bytes"] == len(torn)
        assert repaired["kept_events"] == 2
        assert journal.read_bytes() == whole
        assert [e["event"] for e in read_journal(journal)] == ["lease", "complete"]
        quarantine = quarantine_path_for(journal)
        assert quarantine.read_bytes() == torn + b"\n"
        # idempotent: a second repair finds a healthy journal
        assert repair_journal(journal) is None

    def test_fully_torn_journal_truncates_to_empty(self, tmp_path):
        journal = tmp_path / "run.checkpoint.journal.jsonl"
        journal.write_bytes(b'{"event":')
        repaired = repair_journal(journal)
        assert repaired is not None and repaired["kept_events"] == 0
        assert journal.read_bytes() == b""

    def test_corrupt_checkpoint_quarantined_on_resume_load(self, tmp_path):
        checkpoint = tmp_path / "run.checkpoint.json"
        checkpoint.write_text('{"checkpoint_version": 2, "jobs": [')  # torn write
        with pytest.raises(CheckpointError, match="unreadable checkpoint") as excinfo:
            load_checkpoint(checkpoint, quarantine=True)
        assert "preserved at" in str(excinfo.value)
        assert not checkpoint.exists()
        quarantined = quarantine_path_for(checkpoint)
        assert quarantined.read_text().startswith('{"checkpoint_version"')

    def test_corrupt_checkpoint_left_alone_without_quarantine_flag(self, tmp_path):
        checkpoint = tmp_path / "run.checkpoint.json"
        checkpoint.write_text("{broken")
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            load_checkpoint(checkpoint)
        assert checkpoint.exists()

    def test_quarantine_checkpoint_moves_file(self, tmp_path):
        checkpoint = tmp_path / "x.json"
        checkpoint.write_text("{")
        moved = quarantine_checkpoint(checkpoint)
        assert moved == quarantine_path_for(checkpoint)
        assert moved.exists() and not checkpoint.exists()


# --------------------------------------------------------------------------
# hardened transport against a live server


@pytest.fixture(scope="class")
def server():
    from repro.serve import CompileServer, ServeClient

    with CompileServer(workers=1) as running:
        with ServeClient(running.host, running.port) as client:
            assert client.ping().ok
        yield running


def _raw_exchange(server, payloads):
    """Send raw lines on one socket; return one decoded reply per line."""
    replies = []
    with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
        reader = sock.makefile("rb")
        for payload in payloads:
            sock.sendall(payload)
            line = reader.readline()
            assert line, "server closed the connection without a structured reply"
            replies.append(json.loads(line))
    return replies


class TestHardenedServer:
    def test_malformed_line_gets_structured_error_and_connection_survives(
        self, server
    ):
        ping = encode_message(
            ServeRequest(op="ping", request_id=f"ping-{request_token()}-raw")
        )
        bad, good = _raw_exchange(server, [b"{not json}\n", ping])
        assert bad["ok"] is False
        assert bad["request_id"] is None
        assert bad["payload"]["code"] == "malformed-frame"
        assert "protocol error" in bad["error"]
        assert good["ok"] is True  # same connection answered normally after

    def test_protocol_mismatch_echoes_salvaged_request_id(self, server):
        frame = (
            json.dumps({"protocol": 99, "op": "ping", "request_id": "old-client-1"})
            + "\n"
        ).encode()
        (reply,) = _raw_exchange(server, [frame])
        assert reply["ok"] is False
        assert reply["request_id"] == "old-client-1"
        assert reply["payload"]["code"] == "protocol-mismatch"
        assert "protocol version mismatch" in reply["error"]

    def test_oversized_frame_bounded_and_answered(self, server):
        with socket.create_connection((server.host, server.port), timeout=30.0) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 2))
            reply = json.loads(reader.readline())
            assert reply["ok"] is False
            assert reply["payload"]["code"] == "oversized-frame"
            # framing is unrecoverable: the server severs after answering
            assert reader.readline() == b""

    def test_duplicate_request_id_replays_without_reexecution(self, server):
        ping = encode_message(
            ServeRequest(op="ping", request_id=f"dup-{request_token()}-1")
        )
        first, second = _raw_exchange(server, [ping, ping])
        assert first == second
        assert server.dedup.replayed >= 1
        assert len(server.dedup) >= 1

    def test_client_retries_through_injected_drop(self, server):
        from repro.serve.client import ServeClient

        set_chaos(parse_chaos_spec("conn-drop:after=0,site=client,on=send"))
        with ServeClient(server.host, server.port, request_retries=2) as client:
            response = client.ping()
        assert response.ok
        assert chaos_controller().counters() == {"conn-drop@client.send": 1}


class TestHardenedCoordinator(TestHardenedServer):
    """The same wire-level contract, served by the farm coordinator."""

    @pytest.fixture(scope="class")
    def server(self):
        from repro.farm import FarmCoordinator

        with FarmCoordinator([Job("BV")]) as running:
            yield running


class TestWorkerConnectBudget:
    def test_worker_gives_up_within_budget_against_dead_port(self):
        from repro.farm.worker import main_loop_with_retry

        notes = []
        code = main_loop_with_retry(
            "127.0.0.1",
            1,  # nothing listens on port 1
            connect_attempts=3,
            connect_timeout=0.2,
            max_connect_seconds=0.5,
            progress=notes.append,
        )
        assert code == 1
        assert any("never came up" in note for note in notes)
