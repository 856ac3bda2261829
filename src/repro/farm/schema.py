"""Protocol-v2 (farm) message helpers: leases, constructors, validators.

The farm reuses :mod:`repro.serve.schema`'s newline-JSON framing verbatim;
what this module adds is the typed payloads the work-queue ops carry.  A
:class:`~repro.farm.queue.Lease` (defined beside its queue, re-exported here,
read off the wire by :func:`parse_lease`) is the unit of hand-off between
coordinator and worker: one unique job (by config key), the attempt index
the queue is starting, the *single-attempt* execution policy the worker must
apply, and the wall deadline by which the coordinator expects a result or a
heartbeat.

The retry budget is owned by the queue, never the worker: every lease ships
``retries=0`` / ``on_error="record"`` (only its ``timeout`` applies) so a
worker performs exactly one attempt and reports back, and the
:class:`~repro.farm.queue.LeaseQueue` decides — against the *original*
:class:`JobPolicy` — whether a failure re-queues or becomes permanent.
Reseed-on-retry is likewise applied by the queue (the leased job dict
already carries the bumped seed) so a re-attempt by a different worker
still lands under the original config key.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..serve.schema import (
    FARM_PROTOCOL_VERSION,
    ServeProtocolError,
    ServeRequest,
    request_token,
)
from .queue import Lease

__all__ = [
    "Lease",
    "claim_request",
    "complete_request",
    "fail_request",
    "heartbeat_request",
    "parse_claim",
    "parse_complete",
    "parse_fail",
    "parse_heartbeat",
    "parse_lease",
    "progress_request",
]

_FARM_REQUEST_COUNTER = itertools.count(1)


def _next_id(prefix: str) -> str:
    # the process token keeps ids unique across workers: the coordinator's
    # dedup layer replays recorded responses for repeated ids, so two
    # workers both counting "claim-1" would receive each other's leases
    return f"{prefix}-{request_token()}-{next(_FARM_REQUEST_COUNTER)}"


def parse_lease(payload: dict[str, Any]) -> Lease:
    """A :class:`Lease` from its ``claim``-response encoding, validated."""
    if not isinstance(payload, dict):
        raise ServeProtocolError("lease must be a JSON object")
    key = payload.get("key")
    job = payload.get("job")
    attempt = payload.get("attempt")
    policy = payload.get("policy")
    deadline = payload.get("deadline_unix")
    if not isinstance(key, str) or not key:
        raise ServeProtocolError("lease is missing a string 'key'")
    if not isinstance(job, dict):
        raise ServeProtocolError("lease is missing an object 'job'")
    if not isinstance(attempt, int) or attempt < 0:
        raise ServeProtocolError("lease 'attempt' must be a non-negative int")
    if not isinstance(policy, dict):
        raise ServeProtocolError("lease is missing an object 'policy'")
    if not isinstance(deadline, (int, float)):
        raise ServeProtocolError("lease 'deadline_unix' must be a number")
    return Lease(
        key=key,
        job=dict(job),
        attempt=attempt,
        policy=dict(policy),
        deadline_unix=float(deadline),
    )


# --------------------------------------------------------------------------
# request constructors (worker side)


def _with_warm_state(body: dict[str, Any], warm_state: dict[str, Any] | None) -> dict[str, Any]:
    # a worker holding warm device state reports its registry's counters, so
    # the server can route work by device and sum the workers' warm state
    if warm_state is not None:
        body["warm_state"] = warm_state
    return body


def claim_request(worker_id: str, *, warm_state: dict[str, Any] | None = None) -> ServeRequest:
    return ServeRequest(
        op="claim",
        request_id=_next_id("claim"),
        protocol=FARM_PROTOCOL_VERSION,
        body=_with_warm_state({"worker_id": worker_id}, warm_state),
    )


def complete_request(
    worker_id: str,
    key: str,
    result: dict[str, Any],
    *,
    warm: bool = False,
    warm_state: dict[str, Any] | None = None,
) -> ServeRequest:
    """``warm`` says the job's device was resident before it compiled."""
    body = {"worker_id": worker_id, "key": key, "result": result}
    if warm_state is not None:
        body["warm"] = warm
    return ServeRequest(
        op="complete",
        request_id=_next_id("complete"),
        protocol=FARM_PROTOCOL_VERSION,
        body=_with_warm_state(body, warm_state),
    )


def fail_request(worker_id: str, key: str, job_error: dict[str, Any]) -> ServeRequest:
    return ServeRequest(
        op="fail",
        request_id=_next_id("fail"),
        protocol=FARM_PROTOCOL_VERSION,
        body={"worker_id": worker_id, "key": key, "job_error": job_error},
    )


def heartbeat_request(worker_id: str, keys: list[str]) -> ServeRequest:
    return ServeRequest(
        op="heartbeat",
        request_id=_next_id("heartbeat"),
        protocol=FARM_PROTOCOL_VERSION,
        body={"worker_id": worker_id, "keys": list(keys)},
    )


def progress_request() -> ServeRequest:
    return ServeRequest(
        op="progress",
        request_id=_next_id("progress"),
        protocol=FARM_PROTOCOL_VERSION,
        body={},
    )


# --------------------------------------------------------------------------
# request validators (coordinator side)


def _body_str(request: ServeRequest, name: str) -> str:
    value = (request.body or {}).get(name)
    if not isinstance(value, str) or not value:
        raise ServeProtocolError(f"{request.op} request is missing a string '{name}'")
    return value


def parse_claim(request: ServeRequest) -> str:
    """The ``worker_id`` of a ``claim`` request."""
    return _body_str(request, "worker_id")


def parse_complete(request: ServeRequest) -> tuple[str, str, dict[str, Any]]:
    """``(worker_id, key, result_payload)`` of a ``complete`` request."""
    worker_id = _body_str(request, "worker_id")
    key = _body_str(request, "key")
    result = (request.body or {}).get("result")
    if not isinstance(result, dict):
        raise ServeProtocolError("complete request is missing an object 'result'")
    return worker_id, key, result


def parse_fail(request: ServeRequest) -> tuple[str, str, dict[str, Any]]:
    """``(worker_id, key, job_error)`` of a ``fail`` request."""
    worker_id = _body_str(request, "worker_id")
    key = _body_str(request, "key")
    job_error = (request.body or {}).get("job_error")
    if not isinstance(job_error, dict):
        raise ServeProtocolError("fail request is missing an object 'job_error'")
    return worker_id, key, job_error


def parse_heartbeat(request: ServeRequest) -> tuple[str, list[str]]:
    """``(worker_id, keys)`` of a ``heartbeat`` request."""
    worker_id = _body_str(request, "worker_id")
    keys = (request.body or {}).get("keys")
    if not isinstance(keys, list) or not all(isinstance(k, str) for k in keys):
        raise ServeProtocolError("heartbeat 'keys' must be a list of strings")
    return worker_id, list(keys)
