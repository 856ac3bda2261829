"""The compile-farm coordinator and the ``repro farm run`` driver.

A :class:`FarmCoordinator` owns one run end to end:

* it plans the job list through the engine's own :func:`plan_jobs` (cache
  consulted with ``refresh=True``), so cached work is **never dispatched** —
  a farm run against a warm cache executes exactly what ``repro run`` would;
* it serves the protocol-v2 lease queue over the same newline-JSON TCP
  framing as ``repro serve`` (plus the v1 control ops, so ``repro submit
  --ping/--stats`` works against a coordinator unchanged);
* it persists every state transition as a delta appended to the journal
  beside the checkpoint file, and compacts the current state into a
  checkpoint-schema-v2 document on (throttled) flush — a coordinator crash
  therefore resumes through the existing ``repro resume`` path, losing at
  most the bookkeeping since the last flush and **no results** (those were
  already in the shared cache);
* a lost worker heals by lease expiry: its jobs return to the queue with
  their attempt counts preserved, so the total attempts per job can never
  exceed ``JobPolicy.retries + 1``.

:func:`run_farm` is the one-call driver behind ``repro farm run``: start a
coordinator, launch workers through a pluggable
:class:`~repro.farm.launcher.WorkerLauncher`, wait, reassemble records in
job order — byte-identical artifacts (modulo ``*_seconds``) to a
single-process run.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from pathlib import Path
from typing import Any
from collections.abc import Callable, Mapping, Sequence

from ..experiments.engine import (
    ExecutionPlan,
    Job,
    JobError,
    JobPolicy,
    ResultCache,
    RunReport,
    _atomic_write_json,
    _coerce_cache,
    _raise_job_error,
    append_journal,
    checkpoint_document,
    job_to_dict,
    journal_path_for,
    plan_jobs,
    record_from_payload,
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

__all__ = ["FarmCoordinator", "run_farm"]

#: Minimum interval between routine (non-forced) checkpoint compactions —
#: the same cadence the batch engine flushes at.
_FLUSH_SECONDS = 1.0


class FarmCoordinator(FramedServer):
    """Lease-queue coordinator for one planned job list.

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
        lease_seconds: float = 15.0,
        checkpoint: None | str | Path = None,
        checkpoint_meta: Mapping[str, object] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> None:
        super().__init__(host, port)
        self.jobs = list(jobs)
        self.store = _coerce_cache(cache)
        self.policy = policy if policy is not None else JobPolicy()
        self.lease_seconds = float(lease_seconds)
        self.checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        self.checkpoint_meta = dict(checkpoint_meta) if checkpoint_meta else {}
        self.progress = progress
        self.interrupted = False

        self.plan: ExecutionPlan | None = None
        self.queue: LeaseQueue | None = None
        self.payloads: dict[str, dict[str, object]] = {}
        self._cached_keys: list[str] = []
        self._started = time.perf_counter()
        self._expiry_thread: threading.Thread | None = None
        #: Serialises journal appends + checkpoint compaction + cache puts.
        self._io_lock = threading.Lock()
        #: Checkpoint compactions that failed at the filesystem (degraded
        #: persistence: the run continues, resumability is what's at risk).
        self.checkpoint_write_errors = 0
        self._last_flush = 0.0
        self._done = threading.Event()

    @property
    def journal_path(self) -> Path | None:
        if self.checkpoint_path is None:
            return None
        return journal_path_for(self.checkpoint_path)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        self._started = time.perf_counter()
        self.plan = plan_jobs(self.jobs, cache=self.store, refresh=True)
        self.payloads = dict(self.plan.payloads)
        self._cached_keys = sorted(self.plan.payloads)
        self.queue = LeaseQueue(
            self.plan.pending, policy=self.policy, lease_seconds=self.lease_seconds
        )
        self._journal(
            {
                "event": "plan",
                "total": self.plan.total,
                "unique": len(self.plan.unique),
                "cached": self.plan.cache_hits,
                "pending": len(self.plan.pending),
            }
        )
        self.flush(force=True)
        if self.queue.done():
            self._done.set()
        self._expiry_thread = threading.Thread(
            target=self._expiry_loop, name="repro-farm-expiry", daemon=True
        )
        self._expiry_thread.start()

    def _close(self) -> None:
        if self._expiry_thread is not None:
            self._expiry_thread.join(timeout=5.0)
            self._expiry_thread = None
        # after the sever: no connection can change the state any more
        self.flush(force=True)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every unique job is completed or permanently failed."""
        return self._done.wait(timeout)

    # ------------------------------------------------------------------ #
    # journal + checkpoint persistence
    # ------------------------------------------------------------------ #
    def _journal(self, delta: dict[str, object]) -> None:
        path = self.journal_path
        if path is None:
            return
        with contextlib.suppress(OSError):
            append_journal(path, {"ts": round(time.time(), 6), **delta})

    def flush(self, *, force: bool = False, finished: bool | None = None) -> None:
        """Compact the current state into the checkpoint file (throttled)."""
        if self.checkpoint_path is None or self.plan is None or self.queue is None:
            return
        now = time.monotonic()
        if not force and now - self._last_flush < _FLUSH_SECONDS:
            return
        self._last_flush = now
        errors = self.queue.failed_errors()
        failed_keys = {error.key for error in errors}
        completed = [key for key in self.plan.pending if key in self.payloads]
        remaining = [
            {"key": key, "benchmark": job.benchmark, "kind": job.kind}
            for key, job in self.plan.pending.items()
            if key not in self.payloads and key not in failed_keys
        ]
        done = finished if finished is not None else (not remaining and not self.interrupted)
        document = checkpoint_document(
            finished=done,
            interrupted=self.interrupted,
            meta=self.checkpoint_meta,
            total_jobs=self.plan.total,
            cache_hits=self.plan.cache_hits,
            cached_keys=self._cached_keys,
            completed_keys=completed,
            failed=errors,
            pending_entries=remaining,
            serialized_jobs=[job_to_dict(job) for job in self.jobs],
        )
        try:
            _atomic_write_json(self.checkpoint_path, document)
        except OSError:
            self.checkpoint_write_errors += 1
        else:
            self._journal({"event": "compact", "finished": done})

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def errors(self) -> list[JobError]:
        return self.queue.failed_errors() if self.queue is not None else []

    def records(self) -> list[AnyRecord]:
        """Records in original job order — the same reassembly as the engine."""
        assert self.plan is not None
        records: list[AnyRecord] = []
        for job, key in zip(self.jobs, self.plan.keys, strict=True):
            payload = self.payloads.get(key)
            if payload is None:  # failed past its budget
                continue
            record = record_from_payload(payload)
            for tag, value in job.tags:
                record.extra[tag] = value
            records.append(record)
        return records

    def report(self, *, workers: int = 1) -> RunReport:
        assert self.plan is not None
        errors = self.errors()
        write_errors = self.store.write_errors if self.store is not None else 0
        return RunReport(
            total=self.plan.total,
            cache_hits=self.plan.cache_hits,
            executed=len(self.plan.pending),
            deduplicated=self.plan.deduplicated,
            workers=workers,
            seconds=time.perf_counter() - self._started,
            failed=len(errors),
            errors=errors,
            interrupted=self.interrupted,
            cache_write_errors=write_errors,
            cache_degraded=bool(self.store is not None and self.store.degraded),
            checkpoint_write_errors=self.checkpoint_write_errors,
            transport_replays=self.dedup.replayed,
        )

    def progress_payload(self) -> dict[str, Any]:
        """The ``progress``/``stats`` reply — shares the server's queue schema."""
        assert self.plan is not None and self.queue is not None
        counts = self.queue.counts()
        queue = work_stats(
            total=len(self.plan.unique),
            queue_depth=counts[PENDING],
            in_flight=counts[LEASED],
            completed=self.plan.cache_hits + counts[COMPLETED],
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
        assert self.queue is not None
        op = request.op
        if op == "ping":
            return request.reply({"protocol": request.protocol, "role": "farm-coordinator"})
        if op in ("stats", "progress"):
            return request.reply(self.progress_payload())
        if op == "shutdown":
            # an operator abort: flush what we have, answer, wake the driver
            self.interrupted = True
            self.flush(force=True, finished=False)
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
        assert self.queue is not None
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
        assert self.queue is not None
        worker_id, key, result = parse_complete(request)
        if "job_error" in result:
            raise ServeProtocolError("complete must carry a record payload, not a job_error")
        accepted = self.queue.complete(key, worker_id)
        if accepted:
            with self._io_lock:
                if key not in self.payloads:
                    self.payloads[key] = dict(result)
                    job = self.queue.job_for(key)
                    if self.store is not None and job is not None:
                        with contextlib.suppress(OSError):
                            self.store.put(key, job, result)
            self._journal({"event": "complete", "key": key, "worker": worker_id})
            if self.progress is not None:
                counts = self.queue.counts()
                done = counts[COMPLETED] + counts[FAILED]
                self.progress(f"{done}/{len(self.queue)} jobs executed")
        self._after_transition()
        return request.reply({"accepted": accepted})

    def _handle_fail(self, request: ServeRequest) -> ServeResponse:
        assert self.queue is not None
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
        assert self.queue is not None
        if self.queue.done():
            self.flush(force=True)
            self._done.set()
        else:
            self.flush(force=force)

    def _note_expirations(self, transitions: list[tuple[str, str]]) -> None:
        for key, outcome in transitions:
            self._journal({"event": "expire", "key": key, "outcome": outcome})
            if self.progress is not None:
                self.progress(f"lease expired: {key[:12]}… ({outcome})")
        if transitions:
            self._after_transition(force=True)

    def _expiry_loop(self) -> None:
        assert self.queue is not None
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
    lease_seconds: float = 15.0,
    checkpoint: None | str | Path = None,
    checkpoint_meta: Mapping[str, object] | None = None,
    progress: Callable[[str], None] | None = None,
    poll_seconds: float = 0.25,
) -> tuple[list[AnyRecord], RunReport]:
    """Run ``jobs`` over a coordinator plus ``workers`` launched workers.

    The driver behind ``repro farm run``: plans, serves the lease queue,
    launches the workers, waits for the queue to drain (healing worker
    crashes by lease expiry along the way), and reassembles records in job
    order so the caller can emit artifacts byte-identical (modulo
    ``*_seconds``) to a single-process run.  Aborts with ``RuntimeError``
    only when *every* worker has exited while work remains — one surviving
    worker is enough to finish the run.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    policy = policy if policy is not None else JobPolicy()
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
    )
    coordinator.start()
    if progress is not None:
        # `--port 0` binds an ephemeral port; announce it so extra
        # `repro farm-worker --connect` processes can join the run
        progress(f"coordinator listening on {coordinator.host}:{coordinator.port}")
    handles: list[WorkerHandle] = []

    # a scheduler stopping the farm with SIGTERM must leave a resumable
    # checkpoint, exactly like the batch engine does (main thread only)
    sigterm_installed = False
    sigterm_previous: Any = None

    def _flush_on_sigterm(signum, frame):
        coordinator.interrupted = True
        coordinator.flush(force=True, finished=False)
        stop_workers(handles)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    if (
        checkpoint is not None
        and hasattr(signal, "SIGTERM")
        and threading.current_thread() is threading.main_thread()
    ):
        try:
            sigterm_previous = signal.signal(signal.SIGTERM, _flush_on_sigterm)
            sigterm_installed = True
        except (ValueError, OSError):  # pragma: no cover - exotic embeddings
            sigterm_installed = False

    try:
        need_workers = not coordinator.wait(timeout=0)
        if need_workers:
            for index in range(workers):
                handles.append(launcher.launch(index, coordinator.host, coordinator.port))
        while not coordinator.wait(timeout=poll_seconds):
            if handles and all(handle.poll() is not None for handle in handles):
                raise RuntimeError(
                    "every farm worker exited while work remains; see the"
                    f" journal at {coordinator.journal_path} for the last"
                    " transitions"
                )
    except KeyboardInterrupt:
        coordinator.interrupted = True
        coordinator.flush(force=True, finished=False)
        raise
    finally:
        stop_workers(handles)
        coordinator.shutdown()
        if sigterm_installed:
            with contextlib.suppress(ValueError, OSError):
                signal.signal(signal.SIGTERM, sigterm_previous)

    errors = coordinator.errors()
    if errors and policy.on_error == "raise":
        _raise_job_error(errors[0])
    records = coordinator.records()
    report = coordinator.report(workers=workers)
    return records, report
