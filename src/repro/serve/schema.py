"""Wire schema for the warm-state compile server.

The protocol is deliberately small: newline-delimited JSON objects over a
local TCP socket, one request object per line, one response object per line,
matched by a client-chosen ``request_id``.  Versioning is explicit — every
request and response carries ``protocol`` so a client talking to a newer or
older server fails loudly instead of mis-parsing.

Request operations:

``compile``
    Execute one engine job.  The payload embeds the job exactly as the
    on-disk run manifests do (:func:`repro.experiments.engine.job_to_dict`)
    plus an optional execution-policy dict, so a served compile and a batch
    ``repro run`` compile are the *same* code path — same cache keys, same
    record payloads.
``ping``
    Liveness check; the response echoes the server's protocol version.
``stats``
    Warm-state registry and worker-pool counters.
``shutdown``
    Graceful stop: in-flight jobs finish, then the listener closes.

Protocol **v2** reuses the same framing for the compile farm's lease-based
work queue (:mod:`repro.farm`).  A v2 request carries ``protocol: 2`` and an
op-specific ``body`` object instead of ``job``/``policy``:

``claim``
    A worker asks the coordinator for one lease; the reply's ``leases``
    list holds at most one.
``complete`` / ``fail``
    A worker reports one finished lease (its record payload, or the
    structured ``job_error`` of a job that exhausted its single attempt).
``heartbeat``
    A worker extends the lease deadlines of its in-flight jobs.
``progress``
    Coordinator run progress; its payload embeds the same
    :func:`work_stats` block ``CompileServer.stats()`` reports, so both
    services expose one queue-depth/in-flight schema.

The control ops (``ping``/``stats``/``shutdown``) are valid under either
version, and the v1 wire format is byte-identical to what it always was —
old clients and servers interoperate unchanged.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "FARM_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "SERVE_PROTOCOL_VERSION",
    "WORK_STATS_VERSION",
    "FrameTooLargeError",
    "ServeProtocolError",
    "ServeRequest",
    "ServeResponse",
    "decode_line",
    "encode_message",
    "protocol_error_response",
    "read_frame",
    "request_token",
    "work_stats",
]

_TOKEN_PID: int | None = None
_TOKEN = ""


def request_token() -> str:
    """A per-process random token every request-id generator embeds.

    Request ids must be globally unique across every process that ever
    talks to one server: the server's dedup layer replays a recorded
    response for a repeated id, so two processes both counting ``claim-1``,
    ``claim-2``, ... would silently receive each other's answers.  The
    token is re-derived after ``fork`` (the pid check) so forked children
    never share their parent's id space.
    """
    global _TOKEN_PID, _TOKEN
    pid = os.getpid()
    if pid != _TOKEN_PID:
        _TOKEN = f"{pid:x}{secrets.token_hex(3)}"
        _TOKEN_PID = pid
    return _TOKEN

#: Bumped whenever the wire format changes incompatibly.
SERVE_PROTOCOL_VERSION = 1

#: Hard cap on one newline-JSON frame.  Generous (the largest compile
#: request — a full job manifest — is a few KiB), but bounded: a peer
#: streaming garbage without a newline can never grow server memory past
#: this.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: The farm work-queue extension (claim/complete/fail/heartbeat/progress).
FARM_PROTOCOL_VERSION = 2

#: Ops valid under any protocol version.
_CONTROL_OPS = ("ping", "stats", "shutdown")

_OPS_BY_PROTOCOL: dict[int, tuple[str, ...]] = {
    SERVE_PROTOCOL_VERSION: ("compile", *_CONTROL_OPS),
    FARM_PROTOCOL_VERSION: (
        "claim",
        "complete",
        "fail",
        "heartbeat",
        "progress",
        *_CONTROL_OPS,
    ),
}

#: Version stamp of the shared queue-stats block (see :func:`work_stats`).
WORK_STATS_VERSION = 1


def work_stats(
    *, total: int, queue_depth: int, in_flight: int, completed: int, failed: int
) -> dict[str, int]:
    """The one queue-progress schema both services report.

    ``CompileServer.stats()`` embeds it under ``"queue"`` (request-level
    counts) and the farm coordinator's ``progress``/``stats`` replies embed
    it under ``"queue"`` too (unique-job counts) — so dashboards and the CLI
    parse a single shape instead of two ad-hoc ones.
    """
    counts = {
        "total": total,
        "queue_depth": queue_depth,
        "in_flight": in_flight,
        "completed": completed,
        "failed": failed,
    }
    for name, value in counts.items():
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"work_stats {name} must be a non-negative int, got {value!r}")
    return {"work_stats_version": WORK_STATS_VERSION, **counts}


class ServeProtocolError(ValueError):
    """A request or response line that violates the wire schema."""


class FrameTooLargeError(ServeProtocolError):
    """A frame exceeded :data:`MAX_FRAME_BYTES`; the connection cannot be
    resynchronised and must be closed."""


def read_frame(reader: Any, limit: int = MAX_FRAME_BYTES) -> bytes | None:
    """Read one newline-terminated frame from a buffered binary reader.

    Returns ``None`` at EOF.  Raises :class:`FrameTooLargeError` when a
    line exceeds ``limit`` bytes — ``readline`` is called with a bound,
    so the oversized frame is *detected* after buffering at most
    ``limit + 1`` bytes rather than after swallowing the whole stream.
    """
    line = reader.readline(limit + 1)
    if not line:
        return None
    if len(line) > limit:
        raise FrameTooLargeError(
            f"frame exceeds the {limit}-byte protocol cap; closing the connection"
        )
    return line


@dataclass(frozen=True)
class ServeRequest:
    """One client request line.

    ``job`` and ``policy`` are plain dicts in the engine's manifest encoding;
    they are only required (and only consulted) when ``op == "compile"``.
    Farm (v2) work-queue requests instead carry their op-specific fields in
    ``body``; control ops need neither.
    """

    op: str
    request_id: str
    job: dict[str, Any] | None = None
    policy: dict[str, Any] | None = None
    protocol: int = SERVE_PROTOCOL_VERSION
    body: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        ops = _OPS_BY_PROTOCOL.get(self.protocol)
        if ops is None:
            raise ServeProtocolError(
                f"unknown protocol version {self.protocol!r};"
                f" this build speaks {sorted(_OPS_BY_PROTOCOL)}"
            )
        if self.op not in ops:
            raise ServeProtocolError(
                f"unknown op {self.op!r} for protocol {self.protocol};"
                f" expected one of {', '.join(ops)}"
            )
        if not self.request_id:
            raise ServeProtocolError("request_id must be a non-empty string")
        if self.op == "compile" and not isinstance(self.job, dict):
            raise ServeProtocolError("compile requests must carry a job dict")
        if (
            self.protocol == FARM_PROTOCOL_VERSION
            and self.op not in _CONTROL_OPS
            and not isinstance(self.body, dict)
        ):
            raise ServeProtocolError(f"farm {self.op!r} requests must carry a body object")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "protocol": self.protocol,
            "op": self.op,
            "request_id": self.request_id,
        }
        if self.job is not None:
            out["job"] = self.job
        if self.policy is not None:
            out["policy"] = self.policy
        if self.body is not None:
            out["body"] = self.body
        return out

    def reply(
        self, payload: dict[str, Any] | None = None, *, error: str | None = None
    ) -> "ServeResponse":
        """The response to this request, echoing its id and protocol version;
        ``ok`` unless ``error`` is given."""
        return ServeResponse(
            request_id=self.request_id,
            ok=error is None,
            payload=payload if payload is not None else {},
            error=error,
            protocol=self.protocol,
        )

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServeRequest":
        version = _check_protocol(payload)
        op = payload.get("op")
        if not isinstance(op, str):
            raise ServeProtocolError("request is missing a string 'op'")
        request_id = payload.get("request_id")
        if not isinstance(request_id, str):
            raise ServeProtocolError("request is missing a string 'request_id'")
        job = payload.get("job")
        if job is not None and not isinstance(job, dict):
            raise ServeProtocolError("'job' must be an object when present")
        policy = payload.get("policy")
        if policy is not None and not isinstance(policy, dict):
            raise ServeProtocolError("'policy' must be an object when present")
        body = payload.get("body")
        if body is not None and not isinstance(body, dict):
            raise ServeProtocolError("'body' must be an object when present")
        return cls(
            op=op,
            request_id=request_id,
            job=job,
            policy=policy,
            protocol=version,
            body=body,
        )


@dataclass(frozen=True)
class ServeResponse:
    """One server response line, matched to its request by ``request_id``.

    ``ok`` is the single success discriminator: on success ``payload`` holds
    the op-specific result (for ``compile``: the record payload plus the
    engine cache key and a ``warm`` flag); on failure ``error`` holds a
    human-readable message and ``payload`` may carry structured detail (a
    ``job_error`` dict for failed jobs, or a ``code`` string for protocol
    errors).

    ``request_id`` is ``None`` only on the server's structured reply to a
    frame it could not parse at all — there is no request id to echo, so
    the error is addressed to the connection rather than a request.
    """

    request_id: str | None
    ok: bool
    payload: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    protocol: int = SERVE_PROTOCOL_VERSION

    def __post_init__(self) -> None:
        if self.protocol not in _OPS_BY_PROTOCOL:
            raise ServeProtocolError(
                f"unknown protocol version {self.protocol!r};"
                f" this build speaks {sorted(_OPS_BY_PROTOCOL)}"
            )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "protocol": self.protocol,
            "request_id": self.request_id,
            "ok": self.ok,
            "payload": self.payload,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServeResponse":
        version = _check_protocol(payload)
        request_id = payload.get("request_id")
        if request_id is not None and not isinstance(request_id, str):
            raise ServeProtocolError("response 'request_id' must be a string or null")
        ok = payload.get("ok")
        if not isinstance(ok, bool):
            raise ServeProtocolError("response is missing a boolean 'ok'")
        body = payload.get("payload")
        if not isinstance(body, dict):
            raise ServeProtocolError("response is missing an object 'payload'")
        error = payload.get("error")
        if error is not None and not isinstance(error, str):
            raise ServeProtocolError("'error' must be a string when present")
        return cls(request_id=request_id, ok=ok, payload=body, error=error, protocol=version)


def _check_protocol(payload: dict[str, Any]) -> int:
    version = payload.get("protocol")
    if version not in _OPS_BY_PROTOCOL:
        raise ServeProtocolError(
            f"protocol version mismatch: got {version!r}, "
            f"this build speaks {sorted(_OPS_BY_PROTOCOL)}"
        )
    return version


def encode_message(message: ServeRequest | ServeResponse) -> bytes:
    """One wire line for ``message``: compact JSON plus the terminating newline."""
    return json.dumps(message.to_dict(), separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str, kind: type) -> Any:
    """Parse one wire line into ``kind`` (ServeRequest or ServeResponse)."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    text = line.strip()
    if not text:
        raise ServeProtocolError("empty protocol line")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServeProtocolError(f"malformed JSON line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServeProtocolError("protocol line must be a JSON object")
    return kind.from_dict(payload)


def _salvage_request_id(line: bytes | str) -> str | None:
    """Best-effort request_id recovery from a frame that failed to decode,
    so the structured error reply can still be matched by the client."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        payload = json.loads(line.strip())
    except json.JSONDecodeError:
        return None
    if isinstance(payload, dict):
        request_id = payload.get("request_id")
        if isinstance(request_id, str) and request_id:
            return request_id
    return None


def protocol_error_response(line: bytes | str, exc: ServeProtocolError) -> ServeResponse:
    """The structured ``error`` reply a server sends for an illegal frame.

    Instead of silently dropping the connection, the peer gets a normal
    response line: ``ok=false``, a ``code`` in the payload classifying the
    failure (``oversized-frame`` / ``protocol-mismatch`` /
    ``malformed-frame`` / ``protocol-error``), and the offending frame's
    ``request_id`` echoed when it could be salvaged — ``null`` otherwise.
    """
    message = str(exc)
    request_id = _salvage_request_id(line)
    if isinstance(exc, FrameTooLargeError):
        code = "oversized-frame"
    elif "protocol version mismatch" in message:
        code = "protocol-mismatch"
    elif request_id is None:
        code = "malformed-frame"
    else:
        code = "protocol-error"
    return ServeResponse(
        request_id=request_id,
        ok=False,
        payload={"code": code},
        error=f"protocol error: {message}",
    )
