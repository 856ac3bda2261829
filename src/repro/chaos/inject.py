"""The chaos runtime: a controller with injectable hook points.

The transport, storage and job layers call four hooks:

* ``on_frame(site, data)`` — around every socket send/recv.  May raise
  :class:`ChaosDrop` (connection drop), return garbled bytes, or sleep.
* ``on_fs_op(op, path)`` — before cache/checkpoint filesystem writes.
  May raise ``OSError`` with ``ENOSPC`` or ``EROFS``.
* ``journal_line(path, line)`` — around a journal append.  May return a
  torn prefix of the line, simulating a crash mid-``write(2)``.
* ``on_job(benchmark)`` — at the start of every job attempt.  May sleep
  (``job-stall``) and then raise ``RuntimeError`` (``job-fail``).

All hooks are thread-safe (the serve layers are threaded) and count
every injected fault per (kind, site) pair; ``report()`` snapshots the
counters into a schema-versioned document and ``flush_report()`` appends
it to the ``REPRO_CHAOS_REPORT`` path, one JSON line per process, so each
worker of a coordinated run contributes a record.
"""

from __future__ import annotations

import atexit
import errno
import json
import os
import random
import threading
import time
from typing import Optional

from repro.chaos.plan import (
    CHAOS_ENV,
    CHAOS_PLAN_VERSION,
    CHAOS_REPORT_ENV,
    ChaosPlan,
    parse_chaos_spec,
)

CHAOS_REPORT_VERSION = 1

#: Upper bound on a ``job-stall``, so a typo cannot wedge a run for hours.
JOB_STALL_MAX_SECONDS = 60.0


class ChaosDrop(ConnectionError):
    """An injected connection drop (subclass of ``ConnectionError`` so
    existing ``OSError`` handling paths treat it like a real peer reset)."""


class _ClauseState:
    """Mutable per-clause bookkeeping: per-site tick counts and fire budget."""

    __slots__ = ("clause", "fired", "ticks")

    def __init__(self, clause):
        self.clause = clause
        self.fired = 0
        self.ticks: dict[str, int] = {}

    def budget_left(self) -> bool:
        if int(self.clause.params.get("sticky", 0)):
            return True
        return self.fired < int(self.clause.params.get("times", 1))


class ChaosController:
    """Deterministic fault injector driven by a :class:`ChaosPlan`."""

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._lock = threading.Lock()
        self._states = [_ClauseState(clause) for clause in plan.clauses]
        self.injected: dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------

    def _count(self, kind: str, site: str) -> None:
        key = f"{kind}@{site}" if site else kind
        self.injected[key] = self.injected.get(key, 0) + 1

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self.injected)

    # -- transport hook ------------------------------------------------

    def on_frame(self, site: str, data: bytes) -> bytes:
        """Called around a socket frame at ``site`` (e.g. ``client.send``).

        Returns the (possibly garbled) bytes to use, sleeps for ``slow``
        clauses, or raises :class:`ChaosDrop`.
        """

        sleep_for = 0.0
        with self._lock:
            for state in self._states:
                clause = state.clause
                params = clause.params
                if clause.kind not in ("conn-drop", "garble", "slow"):
                    continue
                site_prefix = str(params.get("site", ""))
                if site_prefix and not site.startswith(site_prefix):
                    continue
                if not state.budget_left():
                    continue
                if clause.kind == "conn-drop":
                    direction = str(params.get("on", "any"))
                    if direction != "any" and not site.endswith("." + direction):
                        continue
                    ticks = state.ticks.get(site, 0) + 1
                    state.ticks[site] = ticks
                    if ticks > int(params.get("after", 3)):
                        state.fired += 1
                        state.ticks[site] = 0
                        self._count("conn-drop", site)
                        raise ChaosDrop(f"chaos: injected connection drop at {site}")
                elif clause.kind == "garble":
                    if self._rng.random() < float(params.get("rate", 0.1)):
                        state.fired += 1
                        self._count("garble", site)
                        data = self._garble(data, str(params.get("mode", "flip")))
                elif clause.kind == "slow":
                    if self._rng.random() < float(params.get("rate", 1.0)):
                        state.fired += 1
                        self._count("slow", site)
                        sleep_for = max(sleep_for, float(params.get("seconds", 0.05)))
        if sleep_for > 0.0:
            time.sleep(sleep_for)
        return data

    def _garble(self, data: bytes, mode: str) -> bytes:
        if not data:
            return data
        if mode == "truncate":
            # cut mid-frame but keep the newline so the peer parses a
            # torn JSON document rather than blocking forever
            keep = max(1, self._rng.randrange(1, max(2, len(data))))
            return data[:keep].rstrip(b"\n") + b"\n"
        corrupted = bytearray(data)
        # flip a byte in the JSON body, never the trailing newline
        span = len(corrupted) - 1 if corrupted.endswith(b"\n") else len(corrupted)
        if span <= 0:
            return data
        index = self._rng.randrange(span)
        corrupted[index] ^= 0xFF
        if corrupted[index] in (0x0A, 0x0D):  # don't fabricate a frame boundary
            corrupted[index] ^= 0x01
        return bytes(corrupted)

    # -- storage hooks -------------------------------------------------

    def on_fs_op(self, op: str, path: str = "") -> None:
        """Called before a filesystem write (``op`` in put/checkpoint/journal).

        Raises ``OSError(ENOSPC)`` / ``OSError(EROFS)`` when a matching
        clause fires.
        """

        with self._lock:
            for state in self._states:
                clause = state.clause
                if clause.kind not in ("enospc", "readonly"):
                    continue
                params = clause.params
                target = str(params.get("op", "any"))
                if target != "any" and target != op:
                    continue
                if not state.budget_left():
                    continue
                ticks = state.ticks.get(op, 0) + 1
                state.ticks[op] = ticks
                if ticks > int(params.get("after", 0)):
                    state.fired += 1
                    self._count(clause.kind, op)
                    if clause.kind == "enospc":
                        raise OSError(
                            errno.ENOSPC, f"chaos: injected ENOSPC on {op} {path}"
                        )
                    raise OSError(
                        errno.EROFS, f"chaos: injected read-only fs on {op} {path}"
                    )

    def journal_line(self, path: str, line: bytes) -> bytes:
        """Called with the encoded journal line about to be appended.

        Returns the bytes to actually write — a torn prefix (no trailing
        newline) when a ``torn-tail:journal`` clause fires.
        """

        return self._torn("journal", path, line)

    def checkpoint_payload(self, path: str, payload: bytes) -> bytes:
        """Same as :meth:`journal_line` for whole checkpoint documents."""

        return self._torn("checkpoint", path, payload)

    def _torn(self, target: str, path: str, data: bytes) -> bytes:
        if len(data) < 2:
            return data
        with self._lock:
            for state in self._states:
                clause = state.clause
                if clause.kind != "torn-tail":
                    continue
                if str(clause.params.get("target", "journal")) != target:
                    continue
                if not state.budget_left():
                    continue
                state.fired += 1
                self._count("torn-tail", target)
                # keep at least one byte, lose at least the newline
                keep = max(1, len(data) // 2)
                return data[:keep]
        return data

    # -- job hook ------------------------------------------------------

    def on_job(self, benchmark: str) -> None:
        """Called at the start of every attempt of a ``benchmark`` job.

        Sleeps for ``job-stall`` clauses (outside the lock, so a stalled
        serve thread never blocks other threads' hooks), then raises
        ``RuntimeError`` for ``job-fail`` clauses.  Both fire on every
        matching job: they carry no ``times`` budget.
        """

        name = benchmark.upper()
        stall = 0.0
        fail = False
        with self._lock:
            for state in self._states:
                clause = state.clause
                if clause.kind not in ("job-fail", "job-stall"):
                    continue
                if str(clause.params["benchmark"]).upper() != name:
                    continue
                self._count(clause.kind, name)
                if clause.kind == "job-fail":
                    fail = True
                else:
                    seconds = min(float(clause.params["seconds"]), JOB_STALL_MAX_SECONDS)
                    stall = max(stall, seconds)
        if stall > 0.0:
            time.sleep(stall)
        if fail:
            raise RuntimeError(
                f"injected fault for benchmark {benchmark!r} ({CHAOS_ENV} job-fail)"
            )

    # -- reporting -----------------------------------------------------

    def report(self) -> dict[str, object]:
        with self._lock:
            return {
                "chaos_report_version": CHAOS_REPORT_VERSION,
                "chaos_plan_version": CHAOS_PLAN_VERSION,
                "pid": os.getpid(),
                "spec": self.plan.spec,
                "seed": self.plan.seed,
                "injected": dict(self.injected),
                "total_injected": sum(self.injected.values()),
            }

    def flush_report(self, path: Optional[str] = None) -> None:
        """Append this process's report as one JSON line (O_APPEND, so
        concurrent worker processes interleave whole lines, never bytes)."""

        destination = path or os.environ.get(CHAOS_REPORT_ENV)
        if not destination:
            return
        line = (json.dumps(self.report(), sort_keys=True) + "\n").encode("utf-8")
        try:
            fd = os.open(destination, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:
            pass  # reporting must never take the run down


# -- process-level singleton -------------------------------------------

_controller: Optional[ChaosController] = None
_resolved = False
_singleton_lock = threading.Lock()


def chaos_controller() -> Optional[ChaosController]:
    """The process's controller, lazily parsed from ``REPRO_CHAOS``.

    Returns ``None`` (after one env lookup, cached) when chaos is off —
    the hot-path cost of a disabled chaos build.
    """

    global _controller, _resolved
    if _resolved:
        return _controller
    with _singleton_lock:
        if not _resolved:
            spec = os.environ.get(CHAOS_ENV, "").strip()
            if spec:
                _controller = ChaosController(parse_chaos_spec(spec))
                atexit.register(_controller.flush_report)
            _resolved = True
    return _controller


def set_chaos(plan: Optional[ChaosPlan]) -> Optional[ChaosController]:
    """Install a controller explicitly (tests). Returns it."""

    global _controller, _resolved
    with _singleton_lock:
        _controller = ChaosController(plan) if plan is not None else None
        _resolved = True
    return _controller


def reset_chaos() -> None:
    """Forget the cached controller so the next call re-reads the env."""

    global _controller, _resolved
    with _singleton_lock:
        _controller = None
        _resolved = False
