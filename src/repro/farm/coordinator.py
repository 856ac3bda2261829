"""The compile-farm coordinator and the ``repro farm run`` driver.

A :class:`FarmCoordinator` owns one run end to end:

* it plans the job list through the engine's :class:`RunLedger` (cache
  consulted once per unique key), so cached work is **never dispatched** —
  a farm run against a warm cache executes exactly what ``repro run`` would;
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

:func:`run_farm` is the one-call entry point behind ``repro farm run`` and
``repro run --jobs N``: plan, bind, launch the workers, serve, wait, and
reassemble records in job order — byte-identical artifacts (modulo
``*_seconds``) to a single-process run.
"""

from __future__ import annotations

import contextlib
import threading
import time
from pathlib import Path
from typing import Any
from collections.abc import Callable, Mapping, Sequence

from ..experiments.engine import (
    FarmAbortedError,
    Job,
    JobError,
    JobPolicy,
    ResultCache,
    RunLedger,
    RunReport,
    _raise_job_error,
    append_journal,
    journal_path_for,
)
from ..experiments.runner import AnyRecord
from ..serve.schema import (
    FARM_PROTOCOL_VERSION,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    work_stats,
)
from ..serve.server import FramedServer, Respond
from .launcher import WorkerHandle, WorkerLauncher, stop_workers
from .queue import COMPLETED, FAILED, LEASED, PENDING, LeaseQueue
from .schema import parse_claim, parse_complete, parse_fail, parse_heartbeat

__all__ = ["LEASE_SECONDS", "FarmCoordinator", "run_farm"]

#: The default lease/heartbeat horizon: a worker silent this long forfeits
#: its leases.  ``repro run --jobs N`` always uses it.
LEASE_SECONDS = 15.0


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
        self.policy = policy if policy is not None else JobPolicy()
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
            self.ledger.plan.pending, policy=self.policy, lease_seconds=self.lease_seconds
        )
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
        return list(self.ledger.errors.values())

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
        if op == "claim":
            return self._handle_claim(request)
        if op == "complete":
            return self._handle_complete(request)
        if op == "fail":
            return self._handle_fail(request)
        if op == "heartbeat":
            worker_id, keys = parse_heartbeat(request)
            extended = self.queue.heartbeat(worker_id, keys)
            return request.reply({"extended": extended})
        # compile: the one remaining op, which only `repro serve` runs
        return request.reply(
            error="this endpoint is a farm coordinator; submit compiles to `repro serve`"
        )

    def _handle_claim(self, request: ServeRequest) -> ServeResponse:
        worker_id, max_jobs = parse_claim(request)
        # journal expirations before the claim can re-lease the same keys
        # (claim's own opportunistic expiry would make them invisible here)
        self._note_expirations(self.queue.expire())
        leases = self.queue.claim(worker_id, max_jobs)
        for lease in leases:
            self._journal(
                {
                    "event": "lease",
                    "key": lease.key,
                    "worker": worker_id,
                    "attempt": lease.attempt,
                    "deadline_unix": lease.deadline_unix,
                }
            )
        return request.reply(
            {
                "leases": [lease.to_dict() for lease in leases],
                "done": self.queue.done(),
                "lease_seconds": self.lease_seconds,
            }
        )

    def _handle_complete(self, request: ServeRequest) -> ServeResponse:
        worker_id, key, result = parse_complete(request)
        if "job_error" in result:
            raise ServeProtocolError("complete must carry a record payload, not a job_error")
        accepted = self.queue.complete(key, worker_id)
        if accepted:
            self.ledger.complete(key, dict(result))
            self._journal({"event": "complete", "key": key, "worker": worker_id})
            if self.progress is not None:
                counts = self.queue.counts()
                done = counts[COMPLETED] + counts[FAILED]
                self.progress(f"{done}/{len(self.queue)} jobs executed")
        self._after_transition()
        return request.reply({"accepted": accepted})

    def _handle_fail(self, request: ServeRequest) -> ServeResponse:
        worker_id, key, job_error = parse_fail(request)
        try:
            error = JobError(**job_error)
        except TypeError as exc:
            raise ServeProtocolError(f"malformed job_error: {exc}") from exc
        requeued = self.queue.fail(key, worker_id, error)
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
        self._after_transition(force=not requeued)
        return request.reply({"requeued": requeued})

    def _after_transition(self, *, force: bool = False) -> None:
        # the queue owns each key's fate; a late completion may even rescue
        # a job it had failed, so the ledger mirrors its failures wholesale
        self.ledger.errors = {error.key: error for error in self.queue.failed_errors()}
        if self.queue.done() or (self.ledger.errors and self.policy.on_error == "raise"):
            self.ledger.flush()
            self._done.set()
        else:
            self.ledger.flush(force=force)

    def _note_expirations(self, transitions: list[tuple[str, str]]) -> None:
        for key, outcome in transitions:
            self._journal({"event": "expire", "key": key, "outcome": outcome})
            if self.progress is not None:
                self.progress(f"lease expired: {key[:12]}… ({outcome})")
        if transitions:
            self._after_transition(force=True)

    def _expiry_loop(self) -> None:
        period = min(1.0, self.lease_seconds / 4.0)
        while not self._shutdown.wait(period):
            self._note_expirations(self.queue.expire())


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

    The entry point of ``repro farm run`` and ``repro run --jobs N``: plan,
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
                    raise FarmAbortedError(
                        "every farm worker exited while work remains; see the"
                        f" journal at {coordinator.journal_path} for the last"
                        " transitions",
                        checkpoint,
                    )
    finally:
        stop_workers(handles)
        coordinator.shutdown()

    errors = coordinator.errors()
    if errors and coordinator.policy.on_error == "raise":
        _raise_job_error(errors[0])
    return coordinator.records(), coordinator.report(workers=workers)
