"""Executing one job attempt: the compile path, the executors and the deadline.

:func:`_execute_keyed` is the one place a job runs.  An in-process run, a
farm worker and a serve worker all call it with a lease from a
:class:`~repro.farm.queue.LeaseQueue`; it makes one attempt under the
lease's timeout and returns the record payload or a captured
:class:`~repro.experiments.policy.JobError`, never an exception.

Nothing here is imported by planning, the cache or the artifacts, so a fully
cached run never loads this module, and this module loads the compile path
(:func:`load_compile_path`) only when a job executes.  ``signal`` loads when
a timeout is armed and ``traceback`` when a job fails.
"""

from __future__ import annotations

import builtins
import contextlib
import os
import threading
import time
from collections.abc import Callable
from dataclasses import asdict
from importlib import import_module
from typing import TYPE_CHECKING, Any

from ..backends.registry import DEFAULT_COMPILERS
from ..chaos import active_controller
from .jobs import EXECUTORS, Job, job_from_dict
from .policy import JobError
from .records import AnyRecord, improvement, record_to_payload

if TYPE_CHECKING:  # the compile path loads on first use: see load_compile_path
    from .runner import CompiledSet

__all__ = [
    "BUILTIN_EXECUTORS",
    "VERIFY_ENV",
    "JobExecutionError",
    "JobTimeoutError",
    "load_compile_path",
    "set_warm_state_provider",
]

#: Environment variable that, when set truthy, makes every compile job run
#: the static verifier (:mod:`repro.analysis`) over each backend's output and
#: fail the job on any violation.  It is deliberately *not* part of the job
#: config hash: verification only gates fresh compilations (cache hits were
#: verified when first computed, or predate the flag), so cached sweeps stay
#: cache-compatible whether or not ``--verify`` is on.
VERIFY_ENV = "REPRO_VERIFY"


def _verify_enabled() -> bool:
    value = os.environ.get(VERIFY_ENV, "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


#: Optional provider of resident per-device state, installed by each forked
#: compile worker of ``repro serve`` (:mod:`repro.serve`).  Maps a
#: :class:`Job` to an object with ``array``/``layout``/``router`` attributes
#: matching the job's device configuration.  With none installed, jobs use
#: the process's default :class:`~repro.experiments.devices.WarmStateRegistry`.
#: Process-global; a forked farm worker inherits its parent's, which is
#: harmless because warm state is a pure function of the device
#: configuration.  Read it here,
#: never through a re-export: a re-exported binding would not follow
#: :func:`set_warm_state_provider`.
_WARM_STATE_PROVIDER: Callable[[Job], Any] | None = None


def set_warm_state_provider(
    provider: Callable[[Job], Any] | None,
) -> Callable[[Job], Any] | None:
    """Install (or clear, with ``None``) the warm device-state provider.

    With none installed, jobs use the process's default registry.  Returns
    the previously installed provider so embedders can restore it.  The
    provider must return state whose device configuration matches the job's
    — the warm path trusts it; results stay byte-identical because the
    resident state is a pure function of that configuration.
    """
    global _WARM_STATE_PROVIDER
    previous = _WARM_STATE_PROVIDER
    _WARM_STATE_PROVIDER = provider
    return previous


#: The modules a job execution needs beyond this one: the runner (circuits,
#: programs, highway layout) and the built-in backends (the compilers).
_COMPILE_PATH = (".runner", "..backends.builtin")


def load_compile_path() -> None:
    """Import the compile path: every module that executing a job loads.

    No module of the engine imports any of it at module level, so a process
    that only plans, reads the cache or writes artifacts never pays for it;
    the first executed job imports it.  A process that forks compile workers
    calls this before the fork, so each worker starts with it loaded and
    imports nothing after the fork.  Idempotent.
    """
    for name in _COMPILE_PATH:
        import_module(name, __package__)
    if _verify_enabled():
        import_module("..analysis", __package__)


def _compile_job(job: Job) -> CompiledSet:
    """Compile a job's benchmark with every backend it lists.

    With :data:`VERIFY_ENV` set (the CLI's ``repro run --verify``), every
    backend's output is statically verified against the input circuit before
    the job may produce a record; a ``VerificationError`` propagates through
    the engine's normal :class:`JobError` fault path.

    The array, highway layout and router come from warm device state, built
    once per device configuration and reused by every later job on that
    device: from the installed provider (:func:`set_warm_state_provider`;
    each serve worker installs its own registry), else from this process's
    :func:`~repro.experiments.devices.default_registry`.  Reuse cannot change
    a result, because the state is a pure function of the device
    configuration.
    """
    from .devices import default_registry
    from .runner import compile_many

    state = (_WARM_STATE_PROVIDER or default_registry().get)(job)
    compiled = compile_many(
        job.benchmark,
        state.array,
        layout=state.layout,
        router=state.router,
        compilers=job.compilers,
        noise=job.noise_model(),
        highway_density=job.highway_density,
        num_data_qubits=job.num_data_qubits,
        min_components=job.min_components,
        baseline_trials=job.baseline_trials,
        seed=job.seed,
        benchmark_kwargs=dict(job.benchmark_kwargs) or None,
    )
    if _verify_enabled():
        compiled.verify_all(job.noise_model())
    return compiled


def _run_compare_job(job: Job) -> AnyRecord:
    """Execute a ``kind="compare"`` job (one N-way compilation).

    Every backend named in ``job.compilers`` is resolved through
    :func:`repro.backends.get_backend` and run once.  The default
    ``("baseline", "mech")`` pair yields the historic two-column record —
    metrics identical to the pre-registry engine; any other compiler list
    yields a :class:`MultiComparisonRecord` with per-backend columns.
    """
    from .runner import backend_stat_extras

    compiled = _compile_job(job)
    extra = backend_stat_extras(compiled)
    noise = job.noise_model()
    if job.compilers == DEFAULT_COMPILERS:
        return compiled.comparison_record(noise, extra=extra)
    return compiled.record(noise, extra=extra)


def _run_sensitivity_job(job: Job) -> AnyRecord:
    """Execute a ``kind="sensitivity"`` job (Fig. 13's compile-once protocol).

    Every backend runs once under the job's base noise model; the emitted
    circuits are then re-scored under each swept noise model, against the
    reference backend.  The sweep series land in the record's ``extra`` dict
    under ``<series>@<value>`` keys (the primary backend) and
    ``<backend>:<series>@<value>`` keys (any further non-reference backends)
    so they survive the result cache and the CSV artifacts.
    """
    params = dict(job.params)
    base_noise = job.noise_model()
    compiled = _compile_job(job)
    reference_result = compiled.results[compiled.reference]

    extra: dict[str, float] = {}
    for name in compiled.compilers:
        if name == compiled.reference:
            continue
        result = compiled.results[name]
        prefix = "" if name == compiled.primary else f"{name}:"
        for latency in params.get("meas_latencies", ()):
            noise = base_noise.with_ratios(meas_latency=float(latency))
            extra[f"{prefix}depth_vs_latency@{float(latency):g}"] = improvement(
                reference_result.metrics(noise).depth, result.metrics(noise).depth
            )
        for ratio in params.get("meas_error_ratios", ()):
            noise = base_noise.with_ratios(meas_on_ratio=float(ratio))
            extra[f"{prefix}eff_vs_meas_error@{float(ratio):g}"] = improvement(
                reference_result.metrics(noise).eff_cnots, result.metrics(noise).eff_cnots
            )
        for ratio in params.get("cross_error_ratios", ()):
            noise = base_noise.with_ratios(cross_on_ratio=float(ratio))
            extra[f"{prefix}eff_vs_cross_error@{float(ratio):g}"] = improvement(
                reference_result.metrics(noise).eff_cnots, result.metrics(noise).eff_cnots
            )
    if job.compilers == DEFAULT_COMPILERS:
        return compiled.comparison_record(base_noise, extra=extra)
    return compiled.record(base_noise, extra=extra)


#: The built-in executors behind :data:`~repro.experiments.jobs.EXECUTORS`.
BUILTIN_EXECUTORS: dict[str, Callable[[Job], AnyRecord]] = {
    "compare": _run_compare_job,
    "sensitivity": _run_sensitivity_job,
}


def _execute_job(job: Job) -> AnyRecord:
    chaos = active_controller()
    if chaos is not None:
        chaos.on_job(job.benchmark)  # the job-stall / job-fail hooks
    try:
        executor = EXECUTORS[job.kind]
    except KeyError as exc:
        raise ValueError(f"unknown job kind {job.kind!r}; choose from {sorted(EXECUTORS)}") from exc
    return executor(job)


# --------------------------------------------------------------------------
# fault tolerance


class JobTimeoutError(Exception):
    """A job exceeded its :attr:`JobPolicy.timeout` wall-clock budget."""


class JobExecutionError(RuntimeError):
    """Raised by ``on_error="raise"`` when the original exception type cannot
    be reconstructed in the parent process."""

    def __init__(self, error: JobError):
        super().__init__(
            f"job {error.benchmark} ({error.key[:12]}…) failed after "
            f"{error.attempts} attempt(s): {error.error_type}: {error.message}"
        )
        self.error = error


def _raise_job_error(error: JobError) -> None:
    """Re-raise a captured failure, preserving the original type if builtin."""
    exc_cls = getattr(builtins, error.error_type, None)
    if isinstance(exc_cls, type) and issubclass(exc_cls, Exception):
        try:
            exc = exc_cls(error.message)
        except Exception:
            exc = None
        if isinstance(exc, Exception):
            raise exc
    raise JobExecutionError(error)


def _async_raise(thread_id: int, exc_type: type[BaseException]) -> bool:
    """Schedule ``exc_type`` to be raised in the thread with ``thread_id``.

    CPython-only (``PyThreadState_SetAsyncExc``); the exception surfaces at
    the target thread's next bytecode boundary, so a thread blocked inside a
    single long C call is interrupted only once that call returns.  Returns
    whether the exception was actually scheduled.
    """
    try:
        import ctypes

        set_async_exc = ctypes.pythonapi.PyThreadState_SetAsyncExc
    except (ImportError, AttributeError):  # pragma: no cover - non-CPython
        return False
    set_async_exc.argtypes = (ctypes.c_ulong, ctypes.py_object)
    set_async_exc.restype = ctypes.c_int
    affected = set_async_exc(ctypes.c_ulong(thread_id), ctypes.py_object(exc_type))
    if affected > 1:  # pragma: no cover - stale thread id; undo the damage
        set_async_exc(ctypes.c_ulong(thread_id), ctypes.py_object())
        return False
    return affected == 1


@contextlib.contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`JobTimeoutError` in the body after ``seconds`` of wall
    clock.

    On the main thread the timer is SIGALRM-based, and it interrupts even a
    body blocked in a system call.  In-process runs and every farm and serve
    worker run their jobs there.  Off the main thread — an embedding that
    dispatches jobs from a thread pool — a monotonic-deadline watchdog thread
    schedules the timeout asynchronously instead: SIGALRM cannot be armed
    there, and the historic behaviour was to silently run the body un-timed.
    The watchdog raise lands at the next bytecode boundary of the timed
    thread, which for compile jobs (bytecode-rich, short native calls)
    tracks the deadline closely, but not for a body blocked in a sleep or a
    system call.
    """
    if seconds is None or seconds <= 0:
        yield
        return
    import signal

    sigalrm_ok = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not sigalrm_ok:
        target = threading.get_ident()
        finished = threading.Event()

        def _watchdog() -> None:
            if finished.wait(float(seconds)):
                return
            # double-check after the wait: the body may have completed in
            # the window between the timeout and this raise
            if not finished.is_set():
                _async_raise(target, JobTimeoutError)

        watchdog = threading.Thread(
            target=_watchdog, name="repro-deadline", daemon=True
        )
        watchdog.start()
        try:
            yield
        finally:
            finished.set()
        return

    def _on_alarm(signum, frame):
        raise JobTimeoutError(f"exceeded {seconds:g}s wall-clock timeout")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    armed_at = time.monotonic()
    previous_timer = signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if previous_timer[0]:
            # re-arm whatever the embedding process had running, less the
            # time we consumed (a tiny epsilon if it already expired)
            remaining = previous_timer[0] - (time.monotonic() - armed_at)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6), previous_timer[1])


#: How many trailing traceback lines a JobError keeps.
_TRACEBACK_TAIL_LINES = 12

#: The directory the ``repro`` package sits in; its frames are quoted
#: relative to it.
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _traceback_tail() -> str:
    """The last lines of the traceback being handled, this package's frames
    quoted package-relative (``File "repro/experiments/execute.py"``), so the
    same failure reads the same from any checkout or installation; frames of
    other code keep their paths."""
    import traceback

    tail = "\n".join(traceback.format_exc().splitlines()[-_TRACEBACK_TAIL_LINES:])
    package = f"repro{os.sep}"
    return tail.replace(f'File "{_PACKAGE_PARENT}{os.sep}{package}', f'File "{package}')


WorkItem = tuple[str, dict[str, object], dict[str, object] | None]


def _execute_keyed(item: WorkItem) -> tuple[str, dict[str, object]]:
    """Run one attempt: (key, job dict, policy dict) -> (key, payload).

    The payload is either a record payload or ``{"job_error": {...}}`` — no
    exception (other than ``KeyboardInterrupt``) escapes, so one poisoned job
    cannot kill a worker or discard in-flight results.  Only the policy's
    ``timeout`` applies: every attempt is a lease from a
    :class:`~repro.farm.queue.LeaseQueue`, which owns retries and reseeds.
    """
    key, job_dict, policy_dict = item
    timeout = (policy_dict or {}).get("timeout")
    job = job_from_dict(job_dict)
    start = time.perf_counter()
    try:
        with _deadline(timeout):
            record = _execute_job(job)
    except Exception as exc:
        message = str(exc)
        if not message and isinstance(exc, JobTimeoutError) and timeout:
            # the watchdog path raises the bare class (async raises
            # cannot carry arguments), so reconstruct the message
            message = f"exceeded {timeout:g}s wall-clock timeout"
        error = JobError(
            key=key,
            benchmark=job.benchmark,
            kind=job.kind,
            error_type=type(exc).__name__,
            message=message,
            traceback_tail=_traceback_tail(),
            attempts=1,
            seconds=time.perf_counter() - start,
        )
        return key, {"job_error": asdict(error)}
    return key, record_to_payload(record)
