"""The framed TCP server shared by ``repro serve`` and the farm coordinator,
and the warm-state compile server behind ``repro serve``.

:class:`FramedServer` owns the connection machinery both services speak:
a listening socket carrying the newline-JSON protocol of
:mod:`repro.serve.schema`, one reader thread per connection, bounded
framing with structured protocol-error replies, request-id dedup and the
chaos hooks.  Subclasses only answer decoded requests.

A :class:`CompileServer` answers pings, stats and cache hits on its own
connection threads and hands every cache miss to ``workers`` forked
processes over the farm's lease queue
(:class:`~repro.farm.coordinator.LeaseDesk`, the same
``claim``/``complete``/``fail`` protocol a farm coordinator speaks):

* a worker runs one job at a time, one attempt of
  :func:`repro.experiments.execute._execute_keyed` on its main thread
  — the *same* entry point every run uses, so a served compile produces
  the record payload, cache key and (queue-counted) error a ``repro run``
  would;
* compiles run off this process's GIL, so a hit never waits behind one;
* every request for one uncached key shares one execution (single-flight);
* each worker sizes its process's one
  :class:`~repro.serve.state.WarmStateRegistry` to ``max_devices`` and
  reports it, and a claim prefers work on the devices the claiming worker
  holds, so repeat compiles against one device configuration skip
  array/layout/router construction;
* a killed worker heals by lease expiry, within the request policy's retry
  budget; with no worker left, compile requests get an error reply.

Responses may arrive out of request order (workers finish when they finish);
clients match them by ``request_id``.  A per-connection write lock keeps
concurrently-finishing responses from interleaving on the socket.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from collections.abc import Callable
from dataclasses import asdict
from typing import Any, TypeVar

from ..chaos import active_controller
from ..experiments.cache import ResultCache
from ..experiments.jobs import Job, config_key, job_from_dict
from ..experiments.policy import JobPolicy
from .dedup import ResponseLog
from .schema import (
    SERVE_PROTOCOL_VERSION,
    FrameTooLargeError,
    ServeProtocolError,
    ServeRequest,
    ServeResponse,
    decode_line,
    encode_message,
    protocol_error_response,
    read_frame,
    work_stats,
)

__all__ = ["CompileServer", "FramedServer", "close_listeners"]

_S = TypeVar("_S", bound="FramedServer")

#: Sends one response on the connection its request arrived on.
Respond = Callable[[ServeResponse], None]

#: The listening sockets of this process's bound servers.
_LISTENERS: set[socket.socket] = set()


def close_listeners() -> None:
    """Close a forked child's copies of its parent's listening sockets, so
    a port whose server died refuses connections instead of queueing them."""
    for sock in list(_LISTENERS):
        with contextlib.suppress(OSError):
            sock.close()
    _LISTENERS.clear()


class FramedServer:
    """Threaded TCP server for newline-JSON request/response frames.

    The base class binds, accepts, reads frames, answers illegal ones with
    a structured protocol-error reply, replays duplicate request ids from
    :attr:`dedup`, and severs open connections on :meth:`shutdown`.
    Subclasses answer each new request in :meth:`_dispatch` and may
    override the lifecycle hooks.

    ``site`` labels the chaos hook points (``<site>.send`` /
    ``<site>.recv``); ``thread_prefix`` names the accept and connection
    threads.
    """

    site = "server"
    thread_prefix = "repro-serve"

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        #: Replays recorded responses when a client retries after a drop —
        #: the retried op is answered without executing twice.
        self.dedup = ResponseLog()
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connection_threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._shutdown = threading.Event()

    # ------------------------------------------------------------------ #
    # subclass hooks
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        """Runs in :meth:`start` once the port is bound, before accepting."""

    def _drain(self) -> None:
        """Runs in :meth:`shutdown` once accepting stopped, while open
        connections can still be answered."""

    def _close(self) -> None:
        """Runs last in :meth:`shutdown`, once every connection is closed."""

    def _count_error(self) -> None:
        """Called once per protocol error answered."""

    def _dispatch(self, request: ServeRequest, respond: Respond) -> ServeResponse | None:
        """Answer a new request: return the response, or ``None`` after
        arranging for ``respond`` to be called later.  A raised
        :class:`ServeProtocolError` becomes a ``protocol-error`` reply."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def bind(self: _S) -> _S:
        """Bind the port and run :meth:`_open`; no thread starts yet, so a
        caller may still fork safely (see :func:`close_listeners`)."""
        if self._sock is not None:
            raise RuntimeError(f"{self.site} is already running")
        self._shutdown.clear()
        sock = socket.create_server((self.host, self.port))
        self.port = sock.getsockname()[1]
        # accept() wakes up periodically to notice shutdown()
        sock.settimeout(0.2)
        try:
            self._open()
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        _LISTENERS.add(sock)
        return self

    def serve(self: _S) -> _S:
        """Begin accepting on the bound port."""
        assert self._sock is not None, "bind() first"
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(self._sock,),
            name=f"{self.thread_prefix}-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    def start(self: _S) -> _S:
        """Bind, run :meth:`_open`, and begin accepting."""
        return self.bind().serve()

    def shutdown(self) -> None:
        """Stop accepting, drain, sever open connections, then close."""
        if self._shutdown.is_set() and self._sock is None:
            return
        self._shutdown.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            _LISTENERS.discard(sock)
            # shutdown() wakes an accept() blocked in another thread at
            # once (on Linux); close() alone waits out the accept timeout
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self._drain()
        with self._conn_lock:
            open_conns = list(self._connections)
        for conn in open_conns:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        for thread in list(self._connection_threads):
            thread.join(timeout=5.0)
        self._connection_threads.clear()
        self._close()

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self, sock: socket.socket) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"{self.thread_prefix}-conn",
                daemon=True,
            )
            # only this thread mutates the list, so prune-then-append is safe
            self._connection_threads = [
                t for t in self._connection_threads if t.is_alive()
            ]
            self._connection_threads.append(thread)
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._conn_lock:
            self._connections.add(conn)
        write_lock = threading.Lock()

        def respond(response: ServeResponse) -> None:
            # record before the first write: a reply lost to a connection
            # drop must be replayable when the client retries its request
            self.dedup.record(response)
            data = encode_message(response)
            try:
                chaos = active_controller()
                if chaos is not None:
                    data = chaos.on_frame(f"{self.site}.send", data)
                with write_lock:
                    conn.sendall(data)
            except OSError:  # includes an injected ChaosDrop
                # replies may come from worker threads, so a failed send
                # severs the socket and the reader loop below ends on it
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_RDWR)

        try:
            reader = conn.makefile("rb")
            while True:
                try:
                    line = read_frame(reader)
                except FrameTooLargeError as exc:
                    # unrecoverable: framing is lost, so answer and sever
                    self._count_error()
                    respond(protocol_error_response(b"", exc))
                    break
                if line is None:
                    break
                if not line.strip():
                    continue
                chaos = active_controller()
                if chaos is not None:
                    line = chaos.on_frame(f"{self.site}.recv", line)
                try:
                    request = decode_line(line, ServeRequest)
                except ServeProtocolError as exc:
                    self._count_error()
                    respond(protocol_error_response(line, exc))
                    continue
                replayed = self.dedup.replay(request.request_id)
                if replayed is not None:
                    respond(replayed)
                    continue
                try:
                    response = self._dispatch(request, respond)
                except ServeProtocolError as exc:
                    self._count_error()
                    response = request.reply(
                        {"code": "protocol-error"}, error=f"protocol error: {exc}"
                    )
                if response is not None:
                    respond(response)
                if request.op == "shutdown":
                    break
        except OSError:
            pass
        finally:
            with contextlib.suppress(OSError):
                conn.close()
            with self._conn_lock:
                self._connections.discard(conn)


class CompileServer(FramedServer):
    """Persistent compile server: cache hits answered on its own threads,
    compiles run by forked lease workers with warm per-device state.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read the chosen
        one from :attr:`port` after :meth:`start`).
    workers:
        Compile worker processes, forked between :meth:`bind` and
        :meth:`serve`.  They compile in parallel, each off this process's
        GIL, so a cache hit never waits behind a compile.
    cache:
        Optional :class:`ResultCache` shared with batch runs — served repeat
        requests then return memoised payloads without recompiling.
    policy:
        Default execution policy for requests that do not send one.  Its
        ``retries`` bound the lease attempts of a compile (the queue owns
        the budget, as in the farm).
    max_devices:
        Warm-state LRU capacity of each worker's registry (distinct device
        configurations resident).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        workers: int = 2,
        cache: ResultCache | None = None,
        policy: JobPolicy | None = None,
        max_devices: int = 8,
    ) -> None:
        # imported here: the farm package builds on this module
        from ..farm.coordinator import LEASE_OPS, LEASE_SECONDS, LeaseDesk
        from ..farm.queue import LeaseQueue

        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_devices < 1:
            raise ValueError("max_devices must be at least 1")
        super().__init__(host, port)
        self.workers = workers
        self.cache = cache
        self.policy = policy if policy is not None else JobPolicy()
        self.max_devices = max_devices
        #: Cache misses waiting for a worker, one entry per config key.
        self.queue = LeaseQueue({}, policy=self.policy, lease_seconds=LEASE_SECONDS)
        self.desk = LeaseDesk(self.queue, self)
        self._lease_ops = LEASE_OPS
        self._handles: list[Any] = []
        self._watcher: threading.Thread | None = None
        self._stop_watching = threading.Event()
        # guards the counters and the requests waiting on each queued key;
        # notified when the last waiting request is answered
        self._state_lock = threading.Condition()
        self._waiting: dict[str, tuple[Job, list[tuple[ServeRequest, Respond]]]] = {}
        self._workers_alive = 0
        self._requests_served = 0
        self._compiles = 0
        self._cache_hits = 0
        self._errors = 0
        self._completed_jobs = 0
        self._failed_jobs = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def serve(self) -> CompileServer:
        """Fork the compile workers, then begin accepting.

        No thread of this server runs before the fork, so a worker inherits
        no lock in a held state.  Workers are never respawned: a fork after
        this point would break that rule.
        """
        from ..farm.launcher import LocalWorkerLauncher, stop_workers

        assert self._sock is not None, "bind() first"
        # a wildcard bind is reachable on loopback
        host = "127.0.0.1" if self.host in ("", "0.0.0.0") else self.host
        launcher = LocalWorkerLauncher(max_devices=self.max_devices)
        try:
            for index in range(self.workers):
                self._handles.append(launcher.launch(index, host, self.port))
        except BaseException:
            stop_workers(self._handles)
            raise
        self._workers_alive = len(self._handles)
        self._watcher = threading.Thread(
            target=self._watch_workers, name="repro-serve-watch", daemon=True
        )
        self._watcher.start()
        return super().serve()

    def _drain(self) -> None:
        from ..farm.launcher import stop_workers

        # compiles in flight are answered before connections are severed
        with self._state_lock:
            while self._waiting and self._workers_alive:
                self._state_lock.wait(0.2)
        self._stop_watching.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5.0)
            self._watcher = None
        stop_workers(self._handles)
        self._answer_all("server is shutting down")

    def serve_forever(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`shutdown`) stops us."""
        if self._sock is None:
            self.start()
        try:
            while not self._shutdown.wait(0.2):
                pass
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    @property
    def worker_pids(self) -> list[int]:
        """The forked compile workers' process ids."""
        return [handle.pid for handle in self._handles]

    def _watch_workers(self) -> None:
        """Reclaim expired leases; once no worker is alive, answer every
        waiting compile request with an error (new ones get it at once)."""
        from ..farm.launcher import local_worker_id

        gone: set[int] = set()
        period = min(0.2, self.queue.lease_seconds / 4.0)
        while not self._stop_watching.wait(period):
            self.desk.expire()
            for index, handle in enumerate(self._handles):
                if index not in gone and handle.poll() is not None:
                    gone.add(index)
                    self.desk.forget(local_worker_id(index, handle.pid))
            with self._state_lock:
                self._workers_alive = len(self._handles) - len(gone)
            if not self._workers_alive:
                self._answer_all("no compile worker is alive")
                return

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _count_error(self) -> None:
        with self._state_lock:
            self._errors += 1

    def _dispatch(self, request: ServeRequest, respond: Respond) -> ServeResponse | None:
        if request.op in self._lease_ops:  # a worker's, not a client's
            return self.desk.answer(request)
        with self._state_lock:
            self._requests_served += 1
        if request.op == "ping":
            return request.reply({"protocol": SERVE_PROTOCOL_VERSION})
        if request.op in ("stats", "progress"):
            return request.reply(self.stats())
        if request.op == "shutdown":
            respond(request.reply())
            self._shutdown.set()
            return None
        if self._shutdown.is_set():
            return request.reply(error="server is shutting down")
        return self._compile(request, respond)

    def _compile(self, request: ServeRequest, respond: Respond) -> ServeResponse | None:
        """Answer a cache hit now; queue a miss for the workers (every
        request for one key shares one execution)."""
        assert request.job is not None  # enforced by ServeRequest.__post_init__
        try:
            job = job_from_dict(request.job)
        except Exception as exc:
            self._count_error()
            return request.reply(error=f"invalid job: {type(exc).__name__}: {exc}")
        policy = self.policy
        if request.policy is not None:
            try:
                policy = JobPolicy(**request.policy)
            except Exception as exc:
                self._count_error()
                return request.reply(error=f"invalid policy: {type(exc).__name__}: {exc}")
        key = config_key(job)
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                with self._state_lock:
                    self._cache_hits += 1
                    self._compiles += 1
                    self._completed_jobs += 1
                warm = self.desk.holds(job)
                return request.reply(
                    {"key": key, "warm": warm, "cached": True, "result": dict(hit)}
                )
        with self._state_lock:
            if not self._workers_alive:
                self._errors += 1
                self._failed_jobs += 1
                return request.reply(error="no compile worker is alive")
            self._waiting.setdefault(key, (job, []))[1].append((request, respond))
            self.queue.add(key, job, policy=policy)
        return None

    # ------------------------------------------------------------------ #
    # lease transitions (called by the desk)
    # ------------------------------------------------------------------ #
    def lease_done(self) -> bool:
        return False  # a server's queue never drains for good

    def lease_granted(self, worker_id: str, lease: Any) -> None:
        pass

    def lease_completed(
        self, key: str, worker_id: str, result: dict[str, Any], *, accepted: bool, warm: bool
    ) -> None:
        if not accepted:
            return  # a duplicate: the first completion answered everyone
        job, waiters = self._take(key)
        if job is not None and self.cache is not None:
            self.cache.put(key, job, result)
        self.queue.forget(key)  # its waiters are taken; a new request starts afresh
        self._answer(
            waiters, {"key": key, "warm": warm, "cached": False, "result": result}, compiled=True
        )

    def lease_failed(self, key: str, worker_id: str, error: Any, *, requeued: bool) -> None:
        if not requeued:
            self._settle()

    def leases_expired(self, transitions: list[tuple[str, str]]) -> None:
        self._settle()

    def _take(self, key: str) -> tuple[Job | None, list[tuple[ServeRequest, Respond]]]:
        with self._state_lock:
            job, waiters = self._waiting.pop(key, (None, []))
            if not self._waiting:
                self._state_lock.notify_all()
        return job, waiters

    def _settle(self) -> None:
        """Answer the requests waiting on keys whose attempts ran out."""
        for error in self.queue.failed_errors():
            job, waiters = self._take(error.key)
            self.queue.forget(error.key)
            if not waiters:
                continue
            payload = {"key": error.key, "warm": self.desk.holds(job), "job_error": asdict(error)}
            self._answer(waiters, payload, error=f"job failed: {error.message}", compiled=True)

    def _answer_all(self, message: str) -> None:
        with self._state_lock:
            keys = list(self._waiting)
        for key in keys:
            self._answer(self._take(key)[1], None, error=message)

    def _answer(
        self,
        waiters: list[tuple[ServeRequest, Respond]],
        payload: dict[str, Any] | None,
        *,
        error: str | None = None,
        compiled: bool = False,
    ) -> None:
        with self._state_lock:
            if compiled:
                self._compiles += len(waiters)
            if error is None:
                self._completed_jobs += len(waiters)
            else:
                self._errors += len(waiters)
                self._failed_jobs += len(waiters)
        for request, respond in waiters:
            respond(request.reply(payload, error=error))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Server counters and the workers' warm state (the ``stats`` op's
        payload).  The ``queue`` block counts requests: waiting for a
        worker, being compiled, and answered (ok / not ok)."""
        from ..farm.queue import LEASED

        with self._state_lock:
            waiting = {key: len(waiters) for key, (_, waiters) in self._waiting.items()}
            counters = {
                "requests_served": self._requests_served,
                "compiles": self._compiles,
                "cache_hits": self._cache_hits,
                "errors": self._errors,
            }
            completed, failed = self._completed_jobs, self._failed_jobs
            alive = self._workers_alive
        in_flight = sum(
            count for key, count in waiting.items() if self.queue.entry_state(key) == LEASED
        )
        queued = sum(waiting.values()) - in_flight
        return {
            "protocol": SERVE_PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "workers_alive": alive,
            "caching": self.cache is not None,
            **counters,
            "queue": work_stats(
                total=queued + in_flight + completed + failed,
                queue_depth=queued,
                in_flight=in_flight,
                completed=completed,
                failed=failed,
            ),
            "dedup": {"recorded": len(self.dedup), "replayed": self.dedup.replayed},
            "warm_state": self.desk.warm_state(self.max_devices),
        }
