"""The farm worker loop behind ``repro farm-worker``.

A worker is deliberately dumb: it claims one lease at a time, executes it on
its own main thread through :func:`repro.experiments.execute._execute_keyed`
— the *same* one-attempt entry point an in-process run uses on its own lease
queue, so a farm-built record payload is byte-identical to a local one — and
reports ``complete`` or ``fail``.  The coordinator's or server's
:class:`~repro.farm.queue.LeaseQueue` owns the retry budget and the reseed,
so the worker never loops on a failing job.  Compiles are pure Python and
hold the GIL, so a farm runs in parallel across worker processes, never
across threads of one.  On the main thread the engine's ``_deadline`` arms
SIGALRM, which cuts off even a job blocked in a system call.

While a job runs, a background thread heartbeats its key on its own
connection at a third of the coordinator's lease horizon; a worker that dies
(even ``SIGKILL``, which runs no handlers) simply stops heartbeating and its
lease returns to the queue when it expires.  A claim with nothing to hand
out waits on the coordinator's queue, so an idle worker picks up new or
re-queued work at once.

The heartbeat thread also ends the process, chaos report flushed, once the
coordinator has answered no claim, report or heartbeat for longer than one
lease: by then it is gone or has given the job away, so no result of this
worker can be accepted.  A forked worker (``repro run --jobs N``, ``repro
resume --jobs N``, ``repro serve``) knows its parent's pid and ends as soon
as the parent is gone.  Both checks run even while a job stalls the main
thread.  Jobs compile on the process's one warm-state registry; a serve
worker sizes it to ``--max-devices`` and reports it with its claims.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from collections.abc import Callable
from typing import NoReturn

from ..chaos import active_controller
from ..experiments.devices import WarmStateRegistry, default_registry
from ..experiments.execute import _execute_keyed, load_compile_path
from ..experiments.jobs import job_from_dict
from ..serve.client import ServeClient
from ..serve.retry import BackoffPolicy
from ..serve.schema import ServeProtocolError, ServeRequest, ServeResponse
from .queue import LEASE_SECONDS
from .schema import (
    Lease,
    claim_request,
    complete_request,
    fail_request,
    heartbeat_request,
    parse_lease,
)

__all__ = ["default_worker_id", "exit_on_sigterm", "flush_chaos_report", "run_worker"]


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def flush_chaos_report() -> None:
    """Write this process's chaos report (a no-op when chaos is off)."""
    chaos = active_controller()
    if chaos is not None:
        chaos.flush_report()


def _exit_orphaned(note: Callable[[str], None], reason: str) -> NoReturn:
    note(f"{reason}; exiting")
    try:
        flush_chaos_report()
    finally:
        os._exit(1)


class _Heartbeat:
    """Background lease renewal on a dedicated connection.  It ends the
    process once the coordinator falls silent for a lease or, for a forked
    worker, once the parent is gone, even while a job stalls the main
    thread."""

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: str,
        orphaned: Callable[[], bool],
        note: Callable[[str], None],
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.orphaned = orphaned
        self.note = note
        #: The coordinator's lease horizon, from the last claim reply.
        self.lease_seconds: float | None = None
        #: The key of the lease the main thread is running, if any.
        self.key: str | None = None
        #: When the coordinator last answered a claim, report or heartbeat.
        self.heard_at = time.monotonic()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def interval(self) -> float:
        # a second until the first claim reply reports the lease horizon
        return 1.0 if self.lease_seconds is None else max(0.2, self.lease_seconds / 3.0)

    def heard(self) -> None:
        self.heard_at = time.monotonic()

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
            if self.orphaned():
                _exit_orphaned(self.note, "parent process is gone")
            key = self.key
            if key is not None:
                try:
                    with ServeClient(
                        self.host, self.port, timeout=self.interval, site="worker-hb"
                    ) as client:
                        client.request(heartbeat_request(self.worker_id, [key]))
                    self.heard()
                except (OSError, ServeProtocolError):
                    pass  # a drop shorter than a lease heals on a later beat
            silent = time.monotonic() - self.heard_at
            horizon = self.lease_seconds or LEASE_SECONDS
            if silent > horizon:
                _exit_orphaned(
                    self.note, f"coordinator silent for {silent:.1f}s, over one {horizon:g}s lease"
                )


def run_worker(
    host: str,
    port: int,
    *,
    worker_id: str | None = None,
    progress: Callable[[str], None] | None = None,
    max_devices: int | None = None,
    parent_pid: int | None = None,
    connect_seconds: float = 30.0,
    connect_timeout: float = 2.0,
) -> int:
    """Connect, then claim-execute-report until the coordinator says the run
    is done.

    ``max_devices`` sizes the process's warm-state registry (a serve
    worker's ``--max-devices``), and only then do its counters ride on every
    claim and completion: a farm worker reports none, so the coordinator
    hands out work in plain queue order.  ``parent_pid`` marks a forked
    worker: it ends once its parent is gone.  Every connect, the first (the
    coordinator may still be binding) and each reconnect, backs off for up
    to ``connect_seconds``, and ``connect_timeout`` bounds each dial.

    Returns a process exit code: ``0`` when the queue drained, ``1`` when the
    coordinator never came up or became unreachable (the worker cannot
    finish on its own).
    """
    worker_id = worker_id or default_worker_id()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    def orphaned() -> bool:
        return parent_pid is not None and os.getppid() != parent_pid

    registry = default_registry(max_devices) if max_devices is not None else None
    # the backoff policy + request retries make the worker survive a
    # mid-run coordinator connection drop: a failed claim/report is resent
    # on a fresh connection with the same request_id and the coordinator's
    # dedup log replays the answer it already computed
    client = ServeClient(
        host,
        port,
        timeout=300.0,
        connect_timeout=connect_timeout,
        site="worker",
        connect_policy=BackoffPolicy(cap=2.0, max_total_seconds=connect_seconds),
        request_retries=4,
    )
    try:
        client.connect()
    except OSError as exc:
        note(f"coordinator never came up at {host}:{port}: {exc}")
        return 1
    # import before the first job, so its timeout does not count the import
    # (a forked worker inherits it already loaded)
    load_compile_path()
    heartbeat = _Heartbeat(host, port, worker_id, orphaned, note)
    heartbeat.start()

    def ask(request: ServeRequest) -> ServeResponse:
        response = client.request(request)
        heartbeat.heard()
        return response

    executed = 0
    try:
        while not orphaned():
            warm_state = registry.stats() if registry is not None else None
            response = ask(claim_request(worker_id, warm_state=warm_state))
            if not response.ok:
                note(f"claim rejected: {response.error}")
                return 1
            payload = response.payload
            heartbeat.lease_seconds = float(payload.get("lease_seconds", LEASE_SECONDS))
            leases = payload.get("leases", [])
            if leases:
                lease = parse_lease(leases[0])
                executed += _run_lease(ask, lease, worker_id, heartbeat, note, registry)
            elif payload.get("done"):
                note(f"queue drained after {executed} job(s); exiting")
                return 0
            # else the claim already waited on the queue
        note("parent process is gone; exiting")
        return 1
    except (OSError, ServeProtocolError) as exc:
        note(f"lost the coordinator: {type(exc).__name__}: {exc}")
        return 1
    finally:
        heartbeat.stop()
        client.close()


def _run_lease(
    ask: Callable[[ServeRequest], ServeResponse],
    lease: Lease,
    worker_id: str,
    heartbeat: _Heartbeat,
    note: Callable[[str], None],
    registry: WarmStateRegistry | None,
) -> int:
    """Execute one lease on this thread and report it; 1 when it completed."""
    warm = registry is not None and job_from_dict(lease.job) in registry
    heartbeat.key = lease.key
    key, payload = _execute_keyed((lease.key, lease.job, lease.policy))  # never raises
    heartbeat.key = None
    job_error = payload.get("job_error")
    if job_error is not None:
        _check(ask(fail_request(worker_id, key, dict(job_error))))
        note(
            f"attempt {lease.attempt + 1} failed:"
            f" {job_error.get('benchmark')} ({job_error.get('error_type')})"
        )
        return 0
    _check(
        ask(
            complete_request(
                worker_id,
                key,
                payload,
                warm=warm,
                warm_state=registry.stats() if registry is not None else None,
            )
        )
    )
    note(f"completed {lease.job.get('benchmark')} (attempt {lease.attempt + 1})")
    return 1


def _check(response: ServeResponse) -> None:
    if not response.ok:
        raise ServeProtocolError(response.error or "coordinator rejected the report")


def exit_on_sigterm() -> None:
    """Turn the SIGTERM that stops a drained worker into ``SystemExit(0)``,
    so the chaos report flushes instead of the process dying mid-frame."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
