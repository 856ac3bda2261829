"""The compile-farm coordinator and its driver, :func:`run_farm`.

A :class:`FarmCoordinator` owns one run end to end:

* it plans the job list through the engine's :class:`RunLedger` (cache
  consulted once per unique key), so cached work is **never dispatched** —
  a coordinated run against a warm cache executes exactly what an
  in-process ``repro run`` would;
* it serves the protocol-v2 lease queue over the same newline-JSON TCP
  framing as ``repro serve`` (plus the v1 control ops, so ``repro submit
  --ping/--stats`` works against a coordinator unchanged);
* it persists every state transition as a delta appended to the journal
  beside the checkpoint file, and the ledger compacts the current state
  into a checkpoint-schema-v2 document on (throttled) flush — a coordinator
  crash therefore resumes through the existing ``repro resume`` path,
  losing at most the bookkeeping since the last flush and **no results**
  (those were already in the shared cache);
* a lost worker heals by lease expiry: its jobs return to the queue with
  their attempt counts preserved, so the total attempts per job can never
  exceed ``JobPolicy.retries + 1``.

:class:`LeaseDesk` answers the workers' ``claim``/``complete``/``fail``/
``heartbeat`` ops over a :class:`LeaseQueue`; the coordinator and
``repro serve``'s compile server both call it and add their own side
effects through the :class:`LeaseHost` methods.

:func:`run_farm` is the one-call entry point behind a coordinated
``repro run``/``repro resume`` (``--jobs N > 1`` or ``--worker-command``) and
``run_jobs_report(workers > 1)``: plan, bind, launch the workers, serve,
wait, and reassemble records in job order — byte-identical artifacts
(modulo ``*_seconds``) to a single-process run.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Protocol

from ..experiments.cache import ResultCache
from ..experiments.devices import DeviceKey, device_key
from ..experiments.execute import _raise_job_error
from ..experiments.jobs import Job
from ..experiments.ledger import (
    FarmAbortedError,
    RunLedger,
    RunReport,
    append_journal,
    journal_path_for,
)
from ..experiments.policy import JobError, JobPolicy
from ..serve.schema import (
    FARM_PROTOCOL_VERSION,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    work_stats,
)
from ..serve.server import FramedServer, Respond
from .launcher import WorkerHandle, WorkerLauncher, stop_workers
from .queue import COMPLETED, FAILED, LEASE_SECONDS, LEASED, PENDING, LeaseQueue
from .schema import Lease, parse_claim, parse_complete, parse_fail, parse_heartbeat

if TYPE_CHECKING:
    from ..experiments.records import AnyRecord

__all__ = [
    "CLAIM_WAIT_SECONDS",
    "LEASE_OPS",
    "LEASE_SECONDS",
    "FarmCoordinator",
    "LeaseDesk",
    "LeaseHost",
    "run_farm",
]

#: The ops a :class:`LeaseDesk` answers.
LEASE_OPS = frozenset({"claim", "complete", "fail", "heartbeat"})

#: How long a claim with nothing to hand out waits on the queue for work;
#: it bounds how long shutdown waits for an idle worker's connection.
CLAIM_WAIT_SECONDS = 0.25

#: A worker heard from this recently, holding no lease, still gets the
#: first pick of pending work on the devices it holds warm.
IDLE_GRACE_SECONDS = 1.0


class FarmCoordinator(FramedServer):
    """Lease-queue coordinator for one job list, planned at construction.

    Parameters mirror :func:`run_jobs_report` where they overlap: ``cache``
    is the shared result cache (also consulted at plan time), ``policy`` the
    per-job fault-tolerance budget (its ``retries`` bound lease re-issues,
    its ``timeout`` ships to workers inside each lease), ``checkpoint`` /
    ``checkpoint_meta`` the resumable progress file.  ``lease_seconds`` is
    the heartbeat horizon: a worker silent for longer forfeits its leases.
    """

    site = "coordinator"
    thread_prefix = "repro-farm"

    def __init__(
        self,
        jobs: Sequence[Job],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: None | str | Path | ResultCache = None,
        policy: JobPolicy | None = None,
        lease_seconds: float = LEASE_SECONDS,
        checkpoint: None | str | Path = None,
        checkpoint_meta: Mapping[str, object] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        super().__init__(host, port)
        self.lease_seconds = float(lease_seconds)
        self.checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        self.journal_path = journal_path_for(checkpoint) if checkpoint is not None else None
        self.progress = progress
        #: The run's plan, payloads, failures and checkpoint writer.
        self.ledger = RunLedger(
            jobs,
            cache=cache,
            checkpoint=self.checkpoint_path,
            meta=checkpoint_meta,
            on_flush=lambda finished: self._journal({"event": "compact", "finished": finished}),
        )
        self.queue = LeaseQueue(
            self.ledger.plan.pending, policy=policy, lease_seconds=self.lease_seconds
        )
        self.desk = LeaseDesk(self.queue, self)
        self._expiry_thread: threading.Thread | None = None
        self._done = threading.Event()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        # starts no thread, so a caller may still fork between bind() and serve()
        plan = self.ledger.plan
        self._journal(
            {
                "event": "plan",
                "total": plan.total,
                "unique": len(plan.unique),
                "cached": plan.cache_hits,
                "pending": len(plan.pending),
            }
        )
        self.ledger.flush()
        if self.queue.done():
            self._done.set()

    def serve(self) -> FarmCoordinator:
        self._expiry_thread = threading.Thread(
            target=self._expiry_loop, name="repro-farm-expiry", daemon=True
        )
        self._expiry_thread.start()
        return super().serve()

    def _close(self) -> None:
        if self._expiry_thread is not None:
            self._expiry_thread.join(timeout=5.0)
            self._expiry_thread = None
        # after the sever: no connection can change the state any more
        self.ledger.flush()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every unique job is completed or permanently failed."""
        return self._done.wait(timeout)

    # ------------------------------------------------------------------ #
    # journal (the ledger writes the checkpoint)
    # ------------------------------------------------------------------ #
    def _journal(self, delta: dict[str, object]) -> None:
        if self.journal_path is not None:
            with contextlib.suppress(OSError):
                append_journal(self.journal_path, {"ts": round(time.time(), 6), **delta})

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def errors(self) -> list[JobError]:
        return self.ledger.failed()

    def records(self) -> list[AnyRecord]:
        """Records in original job order — the engine's one reassembly."""
        return self.ledger.records()

    def report(self, *, workers: int = 1) -> RunReport:
        return self.ledger.report(workers=workers, transport_replays=self.dedup.replayed)

    def progress_payload(self) -> dict[str, Any]:
        """The ``progress``/``stats`` reply — shares the server's queue schema."""
        plan = self.ledger.plan
        counts = self.queue.counts()
        queue = work_stats(
            total=len(plan.unique),
            queue_depth=counts[PENDING],
            in_flight=counts[LEASED],
            completed=plan.cache_hits + counts[COMPLETED],
            failed=counts[FAILED],
        )
        return {
            "protocol": FARM_PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "lease_seconds": self.lease_seconds,
            "done": self.queue.done(),
            "queue": queue,
        }

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _dispatch(self, request: ServeRequest, respond: Respond) -> ServeResponse | None:
        op = request.op
        if op == "ping":
            return request.reply({"protocol": request.protocol, "role": "farm-coordinator"})
        if op in ("stats", "progress"):
            return request.reply(self.progress_payload())
        if op == "shutdown":
            # an operator abort: flush what we have, answer, wake the driver
            self.ledger.interrupted = True
            self.ledger.flush()
            respond(request.reply())
            self._done.set()
            self._shutdown.set()
            return None
        if op in LEASE_OPS:
            return self.desk.answer(request)
        # compile: the one remaining op, which only `repro serve` runs
        return request.reply(
            error="this endpoint is a farm coordinator; submit compiles to `repro serve`"
        )

    # ------------------------------------------------------------------ #
    # lease transitions (called by the desk)
    # ------------------------------------------------------------------ #
    def lease_done(self) -> bool:
        return self.queue.done()

    def lease_granted(self, worker_id: str, lease: Lease) -> None:
        self._journal(
            {
                "event": "lease",
                "key": lease.key,
                "worker": worker_id,
                "attempt": lease.attempt,
                "deadline_unix": lease.deadline_unix,
            }
        )

    def lease_completed(
        self, key: str, worker_id: str, result: dict[str, Any], *, accepted: bool, warm: bool
    ) -> None:
        if accepted:
            self.ledger.complete(key, dict(result))
            self._journal({"event": "complete", "key": key, "worker": worker_id})
            if self.progress is not None:
                counts = self.queue.counts()
                done = counts[COMPLETED] + counts[FAILED]
                self.progress(f"{done}/{len(self.queue)} jobs executed")
        self._after_transition((key,))

    def lease_failed(self, key: str, worker_id: str, error: JobError, *, requeued: bool) -> None:
        self._journal(
            {
                "event": "fail",
                "key": key,
                "worker": worker_id,
                "error_type": error.error_type,
                "requeued": requeued,
            }
        )
        if self.progress is not None:
            self.progress(
                f"{error.benchmark} failed ({error.error_type});"
                f" {'re-queued' if requeued else 'budget exhausted'}"
            )
        self._after_transition((key,))

    def leases_expired(self, transitions: list[tuple[str, str]]) -> None:
        for key, outcome in transitions:
            self._journal({"event": "expire", "key": key, "outcome": outcome})
            if self.progress is not None:
                self.progress(f"lease expired: {key[:12]}… ({outcome})")
        self._after_transition([key for key, _ in transitions], force=True)

    def _after_transition(self, keys: Iterable[str], *, force: bool = False) -> None:
        if self.ledger.settle(self.queue, keys, force=force):
            self._done.set()

    def _expiry_loop(self) -> None:
        period = min(1.0, self.lease_seconds / 4.0)
        while not self._shutdown.wait(period):
            self.desk.expire()


class LeaseHost(Protocol):
    """What a server behind a :class:`LeaseDesk` does on each transition."""

    def lease_done(self) -> bool: ...  # noqa: E704

    def lease_granted(self, worker_id: str, lease: Lease) -> None: ...  # noqa: E704

    def lease_completed(  # noqa: E704
        self, key: str, worker_id: str, result: dict[str, Any], *, accepted: bool, warm: bool
    ) -> None: ...

    def lease_failed(  # noqa: E704
        self, key: str, worker_id: str, error: JobError, *, requeued: bool
    ) -> None: ...

    def leases_expired(self, transitions: list[tuple[str, str]]) -> None: ...  # noqa: E704


@dataclass
class _WorkerView:
    """What the desk last heard from one worker."""

    seen: float = 0.0
    busy: bool = False
    devices: frozenset[DeviceKey] = frozenset()
    warm_state: dict[str, Any] | None = None


class LeaseDesk:
    """The lease half of a work-queue server: answers ``claim``,
    ``complete``, ``fail`` and ``heartbeat`` over one :class:`LeaseQueue`.

    :class:`FarmCoordinator` and ``repro serve``'s ``CompileServer`` both
    answer those ops here; their :class:`LeaseHost` methods add what
    differs (the coordinator journals and checkpoints, the compile server
    caches payloads and answers the requests waiting on a key).

    A worker with warm device state reports it (``warm_state``) on its
    claims and completions.  A claim then prefers the oldest pending entry
    whose device the claimer holds, else the oldest, skipping an entry
    whose device an idle worker (heard from within
    :data:`IDLE_GRACE_SECONDS`, holding no lease) already holds — that
    worker's own claim takes it at once, so no work waits on a busy one.
    """

    def __init__(self, queue: LeaseQueue, host: LeaseHost) -> None:
        self.queue = queue
        self.host = host
        self._lock = threading.Lock()
        self._workers: dict[str, _WorkerView] = {}

    def answer(self, request: ServeRequest) -> ServeResponse:
        """The reply to one lease op (see :data:`LEASE_OPS`)."""
        op = request.op
        if op == "claim":
            return self._claim(request)
        if op == "complete":
            worker_id, key, result = parse_complete(request)
            if "job_error" in result:
                raise ServeProtocolError("complete must carry a record payload, not a job_error")
            self._heard(worker_id, request, busy=False)
            accepted = self.queue.complete(key, worker_id)
            warm = bool((request.body or {}).get("warm", False))
            self.host.lease_completed(key, worker_id, result, accepted=accepted, warm=warm)
            return request.reply({"accepted": accepted})
        if op == "fail":
            worker_id, key, job_error = parse_fail(request)
            try:
                error = JobError(**job_error)
            except TypeError as exc:
                raise ServeProtocolError(f"malformed job_error: {exc}") from exc
            self._heard(worker_id, request, busy=False)
            requeued = self.queue.fail(key, worker_id, error)
            self.host.lease_failed(key, worker_id, error, requeued=requeued)
            return request.reply({"requeued": requeued})
        if op == "heartbeat":
            worker_id, keys = parse_heartbeat(request)
            return request.reply({"extended": self.queue.heartbeat(worker_id, keys)})
        raise ServeProtocolError(f"{op!r} is not a lease op")

    def expire(self) -> None:
        """Reclaim expired leases and tell the host."""
        transitions = self.queue.expire()
        if transitions:
            self.host.leases_expired(transitions)

    def _claim(self, request: ServeRequest) -> ServeResponse:
        worker_id = parse_claim(request)
        self._heard(worker_id, request, busy=False)
        # expirations reach the host before the claim can re-lease the
        # same keys (the claim's own opportunistic expiry would hide them)
        self.expire()
        lease = self.queue.claim(
            worker_id,
            wait=0.0 if self.host.lease_done() else CLAIM_WAIT_SECONDS,
            rank=self._rank_for(worker_id),
        )
        if lease is not None:
            with self._lock:
                self._workers[worker_id].busy = True
            self.host.lease_granted(worker_id, lease)
        return request.reply(
            {
                # protocol v2 keeps its list; it holds at most one lease
                "leases": [lease.to_dict()] if lease is not None else [],
                "done": self.host.lease_done(),
                "lease_seconds": self.queue.lease_seconds,
            }
        )

    def _heard(self, worker_id: str, request: ServeRequest, *, busy: bool) -> None:
        report = (request.body or {}).get("warm_state")
        with self._lock:
            view = self._workers.setdefault(worker_id, _WorkerView())
            view.seen = time.monotonic()
            view.busy = busy
            if isinstance(report, dict):
                view.warm_state = report
                view.devices = frozenset(tuple(key) for key in report.get("device_keys", ()))

    def _rank_for(self, worker_id: str) -> Callable[[Job], int | None] | None:
        with self._lock:
            if not any(view.devices for view in self._workers.values()):
                return None  # nobody holds warm state: plain insertion order

        def rank(job: Job) -> int | None:
            device = device_key(job)
            now = time.monotonic()
            with self._lock:
                if device in self._workers[worker_id].devices:
                    return 0
                for other, view in self._workers.items():
                    if (
                        other != worker_id
                        and not view.busy
                        and now - view.seen < IDLE_GRACE_SECONDS
                        and device in view.devices
                    ):
                        return None
            return 1

        return rank

    # ------------------------------------------------------------------ #
    # warm state, as the workers report it
    # ------------------------------------------------------------------ #
    def forget(self, worker_id: str) -> None:
        """Drop a worker that is gone, with the state it held."""
        with self._lock:
            self._workers.pop(worker_id, None)

    def holds(self, job: Job) -> bool:
        """Whether some worker holds ``job``'s device warm."""
        device = device_key(job)
        with self._lock:
            return any(device in view.devices for view in self._workers.values())

    def warm_state(self, max_devices: int) -> dict[str, Any]:
        """The workers' registries summed up; ``devices_resident`` counts
        distinct devices resident in any worker."""
        with self._lock:
            reports = [view.warm_state for view in self._workers.values() if view.warm_state]
            devices = set().union(*(view.devices for view in self._workers.values()))
        return {
            "devices_resident": len(devices),
            "max_devices": max_devices,
            "warm_hits": sum(int(report.get("warm_hits", 0)) for report in reports),
            "cold_builds": sum(int(report.get("cold_builds", 0)) for report in reports),
            "device_keys": [list(key) for key in sorted(devices, key=repr)],
        }


def run_farm(
    jobs: Sequence[Job],
    *,
    launcher: WorkerLauncher,
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    cache: None | str | Path | ResultCache = None,
    policy: JobPolicy | None = None,
    lease_seconds: float = LEASE_SECONDS,
    checkpoint: None | str | Path = None,
    checkpoint_meta: Mapping[str, object] | None = None,
    progress: Callable[[str], None] | None = None,
    poll_seconds: float = 0.25,
) -> tuple[list[AnyRecord], RunReport]:
    """Run ``jobs`` over a coordinator plus up to ``workers`` launched workers.

    The entry point of a coordinated ``repro run`` or ``repro resume``: plan,
    bind, launch one worker per pending job up to ``workers`` (none when
    everything is cached) *before* any coordinator thread starts, serve
    until the queue drains (healing lost workers by lease expiry), and
    return the records in job order.  Under ``on_error="raise"`` the run
    stops at the first job that exhausts its attempts and re-raises it.
    Aborts with :class:`FarmAbortedError` (carrying ``checkpoint``) only
    when *every* worker has exited while work remains.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    coordinator = FarmCoordinator(
        jobs,
        host=host,
        port=port,
        cache=cache,
        policy=policy,
        lease_seconds=lease_seconds,
        checkpoint=checkpoint,
        checkpoint_meta=checkpoint_meta,
        progress=progress,
    ).bind()
    handles: list[WorkerHandle] = []
    try:
        with coordinator.ledger.interruptible(on_sigterm=lambda: stop_workers(handles)):
            for index in range(min(workers, len(coordinator.ledger.plan.pending))):
                handles.append(launcher.launch(index, coordinator.host, coordinator.port))
            coordinator.serve()
            if progress is not None:
                # `--port 0` binds an ephemeral port; announce it so extra
                # `repro farm-worker --connect` processes can join the run
                progress(f"coordinator listening on {coordinator.host}:{coordinator.port}")
            while not coordinator.wait(timeout=poll_seconds):
                if handles and all(handle.poll() is not None for handle in handles):
                    message = "every farm worker exited while work remains"
                    if coordinator.journal_path is not None:
                        message += (
                            f"; see the journal at {coordinator.journal_path}"
                            " for the last transitions"
                        )
                    raise FarmAbortedError(message, checkpoint)
    finally:
        stop_workers(handles)
        coordinator.shutdown()

    errors = coordinator.errors()
    if errors and coordinator.queue.policy.on_error == "raise":
        _raise_job_error(errors[0])
    return coordinator.records(), coordinator.report(workers=workers)
