"""The farm worker loop behind ``repro farm-worker``.

A worker is deliberately dumb: it claims a batch of leases, executes each
through :func:`repro.experiments.engine._execute_keyed` — the *same* entry
point the in-process engine and the compile server use, so a farm-built
record payload is byte-identical to a local one — and reports
``complete`` or ``fail`` per lease.  Every lease carries a single-attempt
policy (the coordinator owns the retry budget), so the worker never loops on
a failing job.

While jobs are in flight a background thread heartbeats their keys on its
own connection at a third of the coordinator's lease horizon; a worker that
dies (even ``SIGKILL``, which runs no handlers) simply stops heartbeating
and its leases return to the queue when they expire.

Timeouts work inside worker threads because the engine's ``_deadline`` falls
back to an async-exception watchdog off the main thread.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any
from collections.abc import Callable

from ..experiments.engine import _execute_keyed
from ..serve.client import ServeClient
from ..serve.retry import BackoffPolicy, retry_call
from ..serve.schema import ServeProtocolError, ServeResponse
from .schema import (
    Lease,
    claim_request,
    complete_request,
    fail_request,
    heartbeat_request,
)

__all__ = ["default_worker_id", "exit_on_sigterm", "run_worker"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat:
    """Background lease-renewal on a dedicated connection."""

    def __init__(self, host: str, port: int, worker_id: str, interval: float) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.interval = max(0.2, interval)
        self.keys: set[str] = set()
        self.lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def track(self, keys: list[str]) -> None:
        with self.lock:
            self.keys.update(keys)

    def release(self, key: str) -> None:
        with self.lock:
            self.keys.discard(key)

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._loop, name="repro-farm-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            with self.lock:
                keys = sorted(self.keys)
            if not keys:
                continue
            try:
                with ServeClient(
                    self.host, self.port, timeout=10.0, site="worker-hb"
                ) as client:
                    client.request(heartbeat_request(self.worker_id, keys))
            except (OSError, ServeProtocolError):
                # the coordinator will either come back or expire us; the
                # main loop notices a dead coordinator on its next report
                continue


def run_worker(
    host: str,
    port: int,
    *,
    workers: int = 1,
    worker_id: str | None = None,
    batch: int | None = None,
    poll_seconds: float = 0.5,
    progress: Callable[[str], None] | None = None,
) -> int:
    """Claim-execute-report until the coordinator says the run is done.

    Returns a process exit code: ``0`` when the queue drained, ``1`` when the
    coordinator became unreachable (the worker cannot finish on its own).
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    worker_id = worker_id or default_worker_id()
    batch = batch if batch is not None else workers

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    heartbeat: _Heartbeat | None = None
    executed = 0
    try:
        with (
            # the backoff policy + request retries make the worker survive a
            # mid-run coordinator connection drop: a failed claim/report is
            # resent on a fresh connection with the same request_id and the
            # coordinator's dedup log replays the answer it already computed
            ServeClient(
                host,
                port,
                timeout=300.0,
                site="worker",
                connect_policy=BackoffPolicy(max_total_seconds=30.0),
                request_retries=4,
            ) as client,
            ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-farm-exec"
            ) as pool,
        ):
            while True:
                response = client.request(claim_request(worker_id, batch))
                if not response.ok:
                    note(f"claim rejected: {response.error}")
                    return 1
                payload = response.payload
                leases = [Lease.from_dict(item) for item in payload.get("leases", [])]
                if not leases:
                    if payload.get("done"):
                        note(f"queue drained after {executed} job(s); exiting")
                        return 0
                    time.sleep(poll_seconds)
                    continue
                lease_seconds = float(payload.get("lease_seconds", 15.0))
                if heartbeat is None:
                    heartbeat = _Heartbeat(host, port, worker_id, lease_seconds / 3.0)
                    heartbeat.start()
                heartbeat.track([lease.key for lease in leases])
                executed += _run_batch(client, pool, leases, worker_id, heartbeat, note)
    except (OSError, ServeProtocolError) as exc:
        note(f"lost the coordinator: {type(exc).__name__}: {exc}")
        return 1
    finally:
        if heartbeat is not None:
            heartbeat.stop()


def _run_batch(
    client: ServeClient,
    pool: ThreadPoolExecutor,
    leases: list[Lease],
    worker_id: str,
    heartbeat: _Heartbeat,
    note: Callable[[str], None],
) -> int:
    """Execute one claimed batch; report each job as soon as it finishes."""
    futures: dict[Future[tuple[str, dict[str, Any]]], Lease] = {
        pool.submit(_execute_keyed, (lease.key, lease.job, lease.policy)): lease
        for lease in leases
    }
    executed = 0
    remaining = set(futures)
    while remaining:
        finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
        for future in finished:
            lease = futures[future]
            key, payload = future.result()  # _execute_keyed never raises
            heartbeat.release(key)
            if "job_error" in payload:
                job_error = payload["job_error"]
                response = client.request(fail_request(worker_id, key, dict(job_error)))
                _check(response)
                note(
                    f"attempt {lease.attempt + 1} failed:"
                    f" {job_error.get('benchmark')} ({job_error.get('error_type')})"
                )
            else:
                response = client.request(complete_request(worker_id, key, payload))
                _check(response)
                executed += 1
                note(f"completed {lease.job.get('benchmark')} (attempt {lease.attempt + 1})")
    return executed


def _check(response: ServeResponse) -> None:
    if not response.ok:
        raise ServeProtocolError(response.error or "coordinator rejected the report")


def exit_on_sigterm() -> None:
    """Turn the SIGTERM that stops a drained worker into ``SystemExit(0)``,
    so the chaos report flushes instead of the process dying mid-frame."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))


def main_loop_with_retry(
    host: str,
    port: int,
    *,
    workers: int = 1,
    worker_id: str | None = None,
    batch: int | None = None,
    connect_attempts: int = 20,
    connect_timeout: float = 2.0,
    max_connect_seconds: float = 30.0,
    progress: Callable[[str], None] | None = None,
) -> int:
    """``run_worker`` with a patient first connect (coordinator may still be binding).

    The wait runs under the shared capped-exponential-backoff policy:
    ``connect_timeout`` bounds each dial, ``connect_attempts`` and
    ``max_connect_seconds`` bound the whole wait (whichever budget runs
    out first).
    """
    with contextlib.suppress(ValueError):  # not the main thread: leave signals alone
        exit_on_sigterm()
    policy = BackoffPolicy(
        initial=0.1,
        cap=2.0,
        max_attempts=max(1, connect_attempts),
        max_total_seconds=max_connect_seconds,
    )

    def dial() -> None:
        with contextlib.closing(
            socket.create_connection((host, port), timeout=connect_timeout)
        ):
            pass

    try:
        retry_call(dial, policy=policy)
    except OSError as exc:
        if progress is not None:
            progress(f"coordinator never came up at {host}:{port}: {exc}")
        return 1
    return run_worker(
        host,
        port,
        workers=workers,
        worker_id=worker_id,
        batch=batch,
        progress=progress,
    )
