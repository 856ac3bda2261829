"""The framed TCP server shared by ``repro serve`` and the farm coordinator,
and the warm-state compile server behind ``repro serve``.

:class:`FramedServer` owns the connection machinery both services speak:
a listening socket carrying the newline-JSON protocol of
:mod:`repro.serve.schema`, one reader thread per connection, bounded
framing with structured protocol-error replies, request-id dedup and the
chaos hooks.  Subclasses only answer decoded requests.

A :class:`CompileServer` adds two things:

* a :class:`~concurrent.futures.ThreadPoolExecutor` whose workers run
  :func:`repro.experiments.engine._execute_keyed` — the *same* entry point
  the batch engine and the farm workers use, so a served compile produces the
  byte-identical record payload and cache key a ``repro run`` would;
* a :class:`~repro.serve.state.WarmStateRegistry` installed as the engine's
  warm-state provider while the server runs, so repeat compiles against one
  device configuration skip array/layout/router construction entirely.

Responses may arrive out of request order (workers finish when they finish);
clients match them by ``request_id``.  A per-connection write lock keeps
concurrently-finishing responses from interleaving on the socket.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import Any, TypeVar

from ..chaos import chaos_controller
from ..experiments.engine import (
    JobPolicy,
    ResultCache,
    _execute_keyed,
    config_key,
    job_from_dict,
    set_warm_state_provider,
)
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
from .state import WarmStateRegistry

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
                chaos = chaos_controller()
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
                chaos = chaos_controller()
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
    """Persistent compile server with warm per-device routing state.

    Parameters
    ----------
    host, port:
        Listen address; ``port=0`` binds an ephemeral port (read the chosen
        one from :attr:`port` after :meth:`start`).
    workers:
        Compile worker threads.  Compilation is pure Python and GIL-bound, so
        this sizes *concurrency* (how many requests make progress at once),
        not parallel speedup.
    cache:
        Optional :class:`ResultCache` shared with batch runs — served repeat
        requests then return memoised payloads without recompiling.
    policy:
        Default execution policy for requests that do not send one.
    max_devices:
        Warm-state LRU capacity (distinct device configurations resident).
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
        if workers < 1:
            raise ValueError("workers must be at least 1")
        super().__init__(host, port)
        self.workers = workers
        self.cache = cache
        self.policy = policy if policy is not None else JobPolicy()
        self.registry = WarmStateRegistry(max_devices=max_devices)
        self._pool: ThreadPoolExecutor | None = None
        self._previous_provider: Any = None
        self._state_lock = threading.Lock()
        self._requests_served = 0
        self._compiles = 0
        self._cache_hits = 0
        self._errors = 0
        # work_stats() counters: compile requests waiting for a pool slot,
        # executing right now, and finished (ok / not ok)
        self._queued = 0
        self._running = 0
        self._completed_jobs = 0
        self._failed_jobs = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _open(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve-worker"
        )
        self._previous_provider = set_warm_state_provider(self.registry.get)

    def _drain(self) -> None:
        # in-flight compiles finish before connections are severed, so their
        # responses still reach clients
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        set_warm_state_provider(self._previous_provider)
        self._previous_provider = None

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

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _count_error(self) -> None:
        with self._state_lock:
            self._errors += 1

    def _dispatch(self, request: ServeRequest, respond: Respond) -> ServeResponse | None:
        with self._state_lock:
            self._requests_served += 1
        if request.op == "ping":
            return request.reply({"protocol": SERVE_PROTOCOL_VERSION})
        if request.op == "stats":
            return request.reply(self.stats())
        if request.op == "shutdown":
            respond(request.reply())
            self._shutdown.set()
            return None
        # compile — run on the worker pool, respond when done
        pool = self._pool
        if pool is None or self._shutdown.is_set():
            return request.reply(error="server is shutting down")
        with self._state_lock:
            self._queued += 1
        pool.submit(self._run_compile, request, respond)
        return None

    # ------------------------------------------------------------------ #
    # compile execution
    # ------------------------------------------------------------------ #
    def _run_compile(self, request: ServeRequest, respond: Respond) -> None:
        with self._state_lock:
            self._queued -= 1
            self._running += 1
        try:
            response = self._compile_response(request)
        except Exception as exc:  # defensive: a worker must never die silently
            self._count_error()
            response = request.reply(error=f"{type(exc).__name__}: {exc}")
        finally:
            with self._state_lock:
                self._running -= 1
        with self._state_lock:
            if response.ok:
                self._completed_jobs += 1
            else:
                self._failed_jobs += 1
        respond(response)

    def _compile_response(self, request: ServeRequest) -> ServeResponse:
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
        warm = job in self.registry
        cached = False
        payload: dict[str, Any] | None = None
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                payload = dict(hit)
                cached = True
                with self._state_lock:
                    self._cache_hits += 1
        if payload is None:
            _, payload = _execute_keyed((key, dict(request.job), policy.to_dict()))
            if self.cache is not None and "job_error" not in payload:
                self.cache.put(key, job, payload)
        with self._state_lock:
            self._compiles += 1
        if "job_error" in payload:
            self._count_error()
            job_error = payload["job_error"]
            message = (
                job_error.get("message", "") if isinstance(job_error, dict) else str(job_error)
            )
            return request.reply(
                {"key": key, "warm": warm, "job_error": job_error},
                error=f"job failed: {message}",
            )
        return request.reply({"key": key, "warm": warm, "cached": cached, "result": payload})

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Server and warm-registry counters (the ``stats`` op's payload)."""
        with self._state_lock:
            counters = {
                "requests_served": self._requests_served,
                "compiles": self._compiles,
                "cache_hits": self._cache_hits,
                "errors": self._errors,
            }
            queue = work_stats(
                total=self._queued + self._running + self._completed_jobs + self._failed_jobs,
                queue_depth=self._queued,
                in_flight=self._running,
                completed=self._completed_jobs,
                failed=self._failed_jobs,
            )
        return {
            "protocol": SERVE_PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "caching": self.cache is not None,
            **counters,
            "queue": queue,
            "dedup": {"recorded": len(self.dedup), "replayed": self.dedup.replayed},
            "warm_state": self.registry.stats(),
        }
