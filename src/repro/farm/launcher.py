"""Pluggable worker launchers for a coordinated ``repro run``.

A launcher answers one question: *given a coordinator address, start worker
number ``index`` somewhere and hand back a process-like handle*.  The
built-in :class:`LocalWorkerLauncher` forks workers on this machine
(``repro run --jobs N``); :class:`CommandWorkerLauncher` renders a
user-supplied command template (``{host}``/``{port}``/``{index}``
placeholders) through the shell, which is enough to wrap ``ssh``,
``kubectl run``, a batch scheduler, or anything else that can eventually
execute ``repro farm-worker --connect HOST:PORT``.  Every worker process
runs one job at a time; a run's parallelism is its number of workers.

Handles only need ``poll()`` (None while running), ``terminate()`` and
``kill()`` — exactly the :class:`subprocess.Popen` surface — so the driver
can notice dead workers and stop live ones without knowing how they were
started.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NoReturn, Protocol

from ..experiments.devices import WarmStateRegistry
from ..experiments.execute import load_compile_path
from ..serve.server import close_listeners
from .queue import LEASE_SECONDS
from .worker import exit_on_sigterm, flush_chaos_report, run_worker

__all__ = [
    "CommandWorkerLauncher",
    "ForkedWorker",
    "LocalWorkerLauncher",
    "WorkerHandle",
    "WorkerLauncher",
    "local_worker_id",
    "render_worker_command",
    "stop_workers",
]


class WorkerHandle(Protocol):
    """The minimal process surface the farm driver needs."""

    def poll(self) -> int | None: ...  # noqa: E704

    def terminate(self) -> None: ...  # noqa: E704

    def kill(self) -> None: ...  # noqa: E704


class WorkerLauncher(Protocol):
    """Start worker ``index`` against the coordinator at ``host:port``."""

    def launch(self, index: int, host: str, port: int) -> WorkerHandle: ...  # noqa: E704


class ForkedWorker:
    """A forked worker process behind the :class:`subprocess.Popen` surface."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None

    def poll(self) -> int | None:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # already reaped elsewhere
                self.returncode = -1
            else:
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def terminate(self, signum: int = signal.SIGTERM) -> None:
        if self.poll() is None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signum)

    def kill(self) -> None:
        self.terminate(signal.SIGKILL)


def local_worker_id(index: int, pid: int) -> str:
    """The worker id a forked worker claims under."""
    return f"local-{index}-{pid}"


class LocalWorkerLauncher:
    """Fork workers on this host.

    The child runs :func:`~repro.farm.worker.run_worker` from the parent's
    memory, with no interpreter start-up or re-import.  ``log_dir``
    captures each worker's stdout + stderr to ``worker-<index>.log``,
    otherwise output is discarded; ``max_devices`` gives each worker its
    own warm-state registry of that size (``repro serve``).  Launch before
    the server starts any thread: a child inherits every lock as it was at
    the fork, so a lock another thread held then stays held forever.  The
    compile path is imported here, before the first fork, so no child
    imports anything.  A child ends itself once this process is gone.
    """

    def __init__(
        self, *, log_dir: str | Path | None = None, max_devices: int | None = None
    ) -> None:
        self.log_dir = Path(log_dir) if log_dir is not None else None
        self.max_devices = max_devices

    def launch(self, index: int, host: str, port: int) -> ForkedWorker:
        load_compile_path()
        log: str | Path = os.devnull
        if self.log_dir is not None:
            self.log_dir.mkdir(parents=True, exist_ok=True)
            log = self.log_dir / f"worker-{index}.log"
        log_fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        # the child must not run the parent's SIGTERM handler (it would
        # flush the parent's checkpoint) before it installs its own
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        parent_pid = os.getpid()
        try:
            pid = os.fork()
            if pid == 0:
                _worker_child(self, index, host, port, parent_pid, log_fd, mask)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(log_fd)
        return ForkedWorker(pid)


def _worker_child(
    launcher: LocalWorkerLauncher,
    index: int,
    host: str,
    port: int,
    parent_pid: int,
    log_fd: int,
    mask: Any,
) -> NoReturn:
    """The body of a forked worker; never returns into the parent's stack."""
    code = 1
    try:
        exit_on_sigterm()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        close_listeners()
        inject = sys.modules.get("repro.chaos.inject")
        if inject is not None:  # loaded only when chaos is on
            inject.reset_chaos()  # count this process's injections, not the parent's
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        os.close(log_fd)

        def note(message: str) -> None:
            os.write(2, f"[farm-worker] {message}\n".encode())

        registry = None
        if launcher.max_devices is not None:
            registry = WarmStateRegistry(max_devices=launcher.max_devices)
        code = run_worker(
            host,
            port,
            worker_id=local_worker_id(index, os.getpid()),
            progress=note,
            registry=registry,
            parent_pid=parent_pid,
            # the server is this worker's parent: a reconnect that fails
            # for about a lease period means it is gone
            connect_seconds=LEASE_SECONDS,
        )
    except SystemExit:  # stop_workers' SIGTERM
        code = 0
    except Exception:
        import traceback

        with contextlib.suppress(OSError):
            os.write(2, traceback.format_exc().encode())
    finally:
        try:
            flush_chaos_report()
        finally:
            os._exit(code)


def render_worker_command(template: str, *, index: int, host: str, port: int) -> str:
    """Substitute the launcher placeholders into a command template."""
    try:
        return template.format(host=host, port=port, index=index)
    except (KeyError, IndexError) as exc:
        raise ValueError(
            f"bad worker command template {template!r}: unknown placeholder {exc};"
            " available: {host} {port} {index}"
        ) from exc


class CommandWorkerLauncher:
    """Launch workers through an arbitrary shell command template.

    The template receives ``{host}``, ``{port}`` and ``{index}``; e.g.::

        repro run table2 --jobs 4 --worker-command \\
          'ssh node{index} REPRO_CACHE=/shared/.repro-cache \\
           python -m repro farm-worker --connect {host}:{port}'

    The spawned shell process is the handle — for remote launchers like
    ``ssh`` that means "the worker is up while the connection lives", which
    is exactly the liveness signal the driver wants.
    """

    def __init__(self, template: str) -> None:
        if not template.strip():
            raise ValueError("worker command template must be non-empty")
        self.template = template

    def launch(self, index: int, host: str, port: int) -> subprocess.Popen[bytes]:
        command = render_worker_command(self.template, index=index, host=host, port=port)
        return subprocess.Popen(  # noqa: S602 - the template is operator-supplied
            command,
            shell=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
        )


def stop_workers(handles: list[Any], *, timeout: float = 5.0) -> None:
    """Terminate every still-running worker handle, then kill (and reap)
    the ones still alive ``timeout`` seconds later."""
    for stop in ("terminate", "kill"):
        live = [handle for handle in handles if handle.poll() is None]
        for handle in live:
            with contextlib.suppress(OSError):
                getattr(handle, stop)()
        deadline = time.monotonic() + timeout
        while any(handle.poll() is None for handle in live) and time.monotonic() < deadline:
            time.sleep(0.01)
