"""Synchronous client for the warm-state compile server.

One :class:`ServeClient` wraps one TCP connection.  Requests are written as
newline-JSON lines and responses matched back by ``request_id`` — the server
may answer out of order, so the client parks early arrivals until their
caller asks for them.  A single client instance is **not** a concurrency
primitive: for parallel submission open one client per thread (that is what
:func:`submit_jobs` does).

Transport robustness: connects run under a capped-exponential-backoff
policy with a total-deadline budget, and a failed request (peer reset,
garbled frame, injected chaos drop) is retried on a fresh connection with
the **same** ``request_id`` — the server's request-id dedup layer
guarantees the retried op is not executed twice, so retrying is safe for
every op the protocol defines.  Request ids carry a per-process random
token, making them globally unique across concurrently-submitting
processes (a plain counter would collide, poisoning the server's dedup).
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from ..chaos import ChaosDrop, chaos_controller
from ..experiments.engine import Job, JobPolicy, job_to_dict
from .retry import BackoffPolicy, retry_call
from .schema import (
    MAX_FRAME_BYTES,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_message,
    request_token,
)

__all__ = ["ServeClient", "submit_jobs"]

_REQUEST_COUNTER = itertools.count(1)

#: Default connect budget: ~20 attempts, capped at 5 s apiece, 60 s total.
DEFAULT_CONNECT_POLICY = BackoffPolicy()


class ServeClient:
    """Blocking single-connection client; use as a context manager.

    ``site`` labels this client's chaos hook points (``<site>.send`` /
    ``<site>.recv``) so scenario specs can target e.g. only the farm
    workers' sockets.  ``request_retries`` bounds how many times one
    request is retried on a fresh connection after a transport failure.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 60.0,
        connect_timeout: float | None = None,
        site: str = "client",
        connect_policy: BackoffPolicy | None = None,
        request_retries: int = 2,
    ) -> None:
        if port <= 0:
            raise ValueError("port must be a bound server port")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.site = site
        self.connect_policy = connect_policy
        self.request_retries = max(0, request_retries)
        self._sock: socket.socket | None = None
        self._reader: Any = None
        self._pending: dict[str, ServeResponse] = {}

    # ------------------------------------------------------------------ #
    # connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "ServeClient":
        if self._sock is None:
            def dial() -> socket.socket:
                return socket.create_connection(
                    (self.host, self.port),
                    timeout=self.connect_timeout or self.timeout,
                )

            if self.connect_policy is not None:
                sock = retry_call(dial, policy=self.connect_policy)
            else:
                sock = dial()
            sock.settimeout(self.timeout)
            self._sock = sock
            self._reader = sock.makefile("rb")
        return self

    def close(self) -> None:
        sock, self._sock = self._sock, None
        self._reader = None
        self._pending.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # request/response plumbing
    # ------------------------------------------------------------------ #
    def _send(self, request: ServeRequest) -> None:
        self.connect()
        assert self._sock is not None
        data = encode_message(request)
        chaos = chaos_controller()
        if chaos is not None:
            data = chaos.on_frame(f"{self.site}.send", data)
        self._sock.sendall(data)

    def _receive(self, request_id: str) -> ServeResponse:
        if request_id in self._pending:
            return self._pending.pop(request_id)
        reader = self._reader
        assert reader is not None
        while True:
            line = reader.readline(MAX_FRAME_BYTES + 1)
            if not line:
                break
            chaos = chaos_controller()
            if chaos is not None:
                line = chaos.on_frame(f"{self.site}.recv", line)
            response = decode_line(line, ServeResponse)
            if response.request_id is None:
                # the server could not parse something we sent; the frame
                # is unrecoverable, so surface it as a transport failure
                raise ServeProtocolError(
                    response.error or "server rejected an unparseable frame"
                )
            if response.request_id == request_id:
                return response
            self._pending[response.request_id] = response
        raise ServeProtocolError(
            f"connection closed before a response to request {request_id!r} arrived"
        )

    def request(self, request: ServeRequest) -> ServeResponse:
        """Send one request and block for its response.

        Transport failures (peer reset, closed connection, garbled frame)
        are retried on a fresh connection with the same ``request_id`` —
        the server's dedup layer makes the retry safe.  A protocol-version
        mismatch is never retried: it cannot heal.
        """
        delays = (self.connect_policy or DEFAULT_CONNECT_POLICY).delays()
        attempt = 0
        while True:
            attempt += 1
            try:
                self._send(request)
                return self._receive(request.request_id)
            except (ChaosDrop, OSError, ServeProtocolError) as exc:
                self.close()
                if isinstance(exc, ServeProtocolError) and "protocol version mismatch" in str(
                    exc
                ):
                    raise
                if attempt > self.request_retries:
                    raise
                time.sleep(next(delays))

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    @staticmethod
    def _next_id(prefix: str) -> str:
        return f"{prefix}-{request_token()}-{next(_REQUEST_COUNTER)}"

    def ping(self) -> ServeResponse:
        return self.request(ServeRequest(op="ping", request_id=self._next_id("ping")))

    def stats(self) -> dict[str, Any]:
        response = self.request(ServeRequest(op="stats", request_id=self._next_id("stats")))
        if not response.ok:
            raise ServeProtocolError(response.error or "stats request failed")
        return response.payload

    def shutdown_server(self) -> ServeResponse:
        return self.request(
            ServeRequest(op="shutdown", request_id=self._next_id("shutdown"))
        )

    def compile_job(self, job: Job, *, policy: JobPolicy | None = None) -> ServeResponse:
        """Submit one engine job and block for its compile response."""
        request = ServeRequest(
            op="compile",
            request_id=self._next_id("compile"),
            job=job_to_dict(job),
            policy=policy.to_dict() if policy is not None else None,
        )
        return self.request(request)


def submit_jobs(
    jobs: list[Job],
    host: str,
    port: int,
    *,
    concurrency: int = 4,
    policy: JobPolicy | None = None,
    timeout: float = 120.0,
    connect_timeout: float | None = None,
    connect_policy: BackoffPolicy | None = None,
) -> list[ServeResponse]:
    """Submit ``jobs`` concurrently (one connection per worker thread).

    Responses come back in ``jobs`` order regardless of completion order.
    """
    if not jobs:
        return []
    concurrency = max(1, min(concurrency, len(jobs)))
    clients: dict[int, ServeClient] = {}
    clients_lock = threading.Lock()

    def run(job: Job) -> ServeResponse:
        ident = threading.get_ident()
        with clients_lock:
            client = clients.get(ident)
            if client is None:
                client = ServeClient(
                    host,
                    port,
                    timeout=timeout,
                    connect_timeout=connect_timeout,
                    connect_policy=connect_policy,
                ).connect()
                clients[ident] = client
        return client.compile_job(job, policy=policy)

    try:
        with ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="repro-submit"
        ) as pool:
            return list(pool.map(run, jobs))
    finally:
        for client in clients.values():
            client.close()
