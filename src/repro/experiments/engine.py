"""Parallel experiment-orchestration engine with on-disk result caching.

Every cell of the paper's tables and figures is modelled as a hashable
:class:`Job`: the benchmark name, the device (structure, chiplet footprint,
array shape, link density, highway density), the compiler list (registered
backend names, reference first — see :mod:`repro.backends`), the compiler
knobs and the seed.  The engine runs jobs in-process or over leased local
worker processes, memoizes each record in an on-disk JSON cache keyed by the
job's config hash (the compiler list is part of the hash), and emits JSON/CSV
artifacts per experiment.  The default ``("baseline", "mech")`` pair produces
the historic two-column :class:`~repro.experiments.runner.ComparisonRecord`;
any other compiler list produces an N-way
:class:`~repro.experiments.runner.MultiComparisonRecord` with per-backend
columns.

The design splits each experiment into three deterministic phases:

1. a *jobs builder* (``jobs_for_fig12`` and friends) expands the experiment's
   scale preset into a flat list of jobs — pure configuration, no compilation.
   The builders and the checkpoint metadata that names an experiment live in
   :mod:`repro.experiments.registry`; the engine only ever sees jobs and an
   opaque ``checkpoint_meta`` mapping;
2. :func:`run_jobs` executes the jobs — first consulting the cache, then
   deduplicating identical jobs within the run, then executing the misses
   either in-process or, with ``workers > 1``, through the compile farm's
   lease queue served to forked local workers (results are reassembled in
   job order, so parallel and serial runs return identical records);
3. :func:`write_artifacts` serialises the records as JSON and CSV so figures
   can be regenerated and diffed without recompiling anything.

Job *tags* (e.g. the swept parameter value a record corresponds to) are
deliberately excluded from the config hash and re-applied after cache
retrieval: two jobs that perform the same computation share one cache entry
no matter how the experiment labels them.

Execution is fault tolerant: a :class:`JobPolicy` attaches a per-job
wall-clock timeout, a retry budget and an ``on_error`` disposition to every
job, executors capture exceptions as structured :class:`JobError` records
instead of dying, a worker process lost mid-job is healed by lease expiry,
and an optional checkpoint file tracks exactly which jobs are cached,
completed, failed and still pending — so an interrupted or partially failed
sweep loses nothing that already compiled and a rerun against the same cache
executes only what remains.  Both executors keep that bookkeeping in one
:class:`RunLedger`.

Execution is also *incremental*: :func:`run_jobs_report` is split into a pure
:func:`plan_jobs` phase (keys, cache consultation, deduplication — no
compilation) and an execute phase that consumes the resulting
:class:`ExecutionPlan`.  Dry runs reuse the exact plan a real run would
execute (:func:`plan_summary` renders it as stable counts), checkpoints
serialise the *full* job list under a versioned schema so
:func:`load_checkpoint` can re-hydrate an interrupted sweep without
re-expanding the experiment spec, and :meth:`ResultCache.sweep_older_than`
adds an age-based (TTL) garbage collector next to the LRU size cap.
"""

from __future__ import annotations

import builtins
import contextlib
import csv
import hashlib
import json
import math
import os
import signal
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from collections.abc import Callable, Mapping, Sequence
from typing import Any

try:  # POSIX only; the access log degrades to best-effort appends without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..backends import DEFAULT_COMPILERS, available_backends
from ..chaos import chaos_controller
from ..hardware.array import ChipletArray
from ..hardware.noise import DEFAULT_NOISE, NoiseModel
from ..metrics import improvement
from .runner import (
    AnyRecord,
    ComparisonRecord,
    MultiComparisonRecord,
    backend_stat_extras,
    compile_many,
)

__all__ = [
    "CACHE_VERSION",
    "CHECKPOINT_VERSION",
    "SCALE_TIERS",
    "VERIFY_ENV",
    "Checkpoint",
    "CheckpointError",
    "ExecutionPlan",
    "FarmAbortedError",
    "Job",
    "JobError",
    "JobExecutionError",
    "JobPolicy",
    "JobTimeoutError",
    "ResultCache",
    "RunLedger",
    "RunReport",
    "append_journal",
    "checkpoint_document",
    "config_key",
    "error_row",
    "job_from_dict",
    "job_to_dict",
    "journal_path_for",
    "load_checkpoint",
    "noise_from_items",
    "noise_to_items",
    "plan_jobs",
    "plan_summary",
    "quarantine_checkpoint",
    "quarantine_path_for",
    "read_journal",
    "repair_journal",
    "record_from_payload",
    "record_to_payload",
    "record_row",
    "run_jobs",
    "run_jobs_report",
    "set_warm_state_provider",
    "write_artifacts",
]

#: Bump when the cache payload layout or the compilers' semantics change in a
#: way that invalidates memoized records.  Version 2: the pluggable-backend
#: redesign — jobs carry an explicit compiler list (part of the config hash)
#: and N-way payloads store per-backend columns.
CACHE_VERSION = 2

#: The scale tiers shared by every experiment's presets (and by the benchmark
#: harness's ``--repro-scale`` option).
SCALE_TIERS: tuple[str, ...] = ("small", "medium", "paper")

Primitive = str | int | float | bool | None
Items = tuple[tuple[str, Primitive], ...]


def noise_to_items(noise: NoiseModel) -> Items:
    """Serialise a noise model as a hashable, order-stable tuple of pairs."""
    return tuple(sorted(asdict(noise).items()))


def noise_from_items(items: Items) -> NoiseModel:
    """Inverse of :func:`noise_to_items`."""
    return NoiseModel(**dict(items))


#: Default-noise items, precomputed so ``Job`` can use them as a default.
DEFAULT_NOISE_ITEMS: Items = noise_to_items(DEFAULT_NOISE)


@dataclass(frozen=True)
class Job:
    """One hashable cell of a figure/table: benchmark x device x knobs.

    ``kind`` selects the executor: ``"compare"`` runs every listed compiler
    once and records the paper's headline metrics; ``"sensitivity"`` compiles
    once and re-scores the fixed circuits under the noise sweeps carried in
    ``params`` (Fig. 13's protocol).  ``compilers`` names the registered
    backends to compare, reference first; it is part of the config hash, so
    the same cell swept with different compiler sets caches separately.
    ``tags`` annotate the resulting record's ``extra`` dict but do not enter
    the config hash.
    """

    benchmark: str
    kind: str = "compare"
    structure: str = "square"
    chiplet_width: int = 4
    rows: int = 1
    cols: int = 2
    cross_links_per_edge: int | None = None
    highway_density: int = 1
    num_data_qubits: int | None = None
    min_components: int = 2
    baseline_trials: int = 1
    seed: int = 0
    noise: Items = DEFAULT_NOISE_ITEMS
    benchmark_kwargs: Items = ()
    params: tuple[tuple[str, tuple[float, ...]], ...] = ()
    tags: Items = ()
    compilers: tuple[str, ...] = DEFAULT_COMPILERS

    def build_array(self) -> ChipletArray:
        return ChipletArray(
            self.structure,
            self.chiplet_width,
            self.rows,
            self.cols,
            cross_links_per_edge=self.cross_links_per_edge,
        )

    def noise_model(self) -> NoiseModel:
        return noise_from_items(self.noise)

    def with_(self, **changes) -> "Job":
        return replace(self, **changes)


#: Tuple-typed Job fields that JSON round-trips as (nested) lists.
_TUPLE_FIELDS = ("noise", "benchmark_kwargs", "params", "tags", "compilers")


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(v) for v in value]
    return value


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def job_to_dict(job: Job) -> dict[str, object]:
    """JSON-serialisable dict representation of a job."""
    out: dict[str, object] = {}
    for f in fields(Job):
        value = getattr(job, f.name)
        out[f.name] = _listify(value) if f.name in _TUPLE_FIELDS else value
    return out


def job_from_dict(data: Mapping[str, object]) -> Job:
    """Inverse of :func:`job_to_dict`.

    Fields absent from ``data`` fall back to the dataclass defaults, so
    checkpoints serialised before a field existed (e.g. ``compilers``) keep
    re-hydrating — an old job and its re-hydrated twin hash identically
    because :func:`job_to_dict` re-adds the default before hashing.
    """
    kwargs: dict[str, object] = {}
    for f in fields(Job):
        if f.name not in data:
            continue
        value = data[f.name]
        kwargs[f.name] = _tuplify(value) if f.name in _TUPLE_FIELDS else value
    return Job(**kwargs)  # type: ignore[arg-type]


def config_key(job: Job) -> str:
    """Deterministic hash of everything that affects the job's result.

    ``tags`` are excluded: they label the record but do not change the
    computation.  The hash is stable across processes and Python versions
    (canonical JSON, sorted keys).
    """
    config = job_to_dict(job)
    del config["tags"]
    config["cache_version"] = CACHE_VERSION
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# record (de)serialisation


def record_to_payload(record: AnyRecord) -> dict[str, object]:
    """All dataclass fields of a record as a JSON-serialisable dict.

    Two-backend :class:`ComparisonRecord` payloads keep the historic flat
    field layout; :class:`MultiComparisonRecord` payloads carry a
    ``compilers`` list plus per-backend ``depths``/``eff_cnots``/``seconds``
    maps — the marker :func:`record_from_payload` dispatches on.
    """
    if isinstance(record, MultiComparisonRecord):
        return {
            "compilers": list(record.compilers),
            "benchmark": record.benchmark,
            "architecture": record.architecture,
            "num_data_qubits": record.num_data_qubits,
            "num_physical_qubits": record.num_physical_qubits,
            "depths": dict(record.depths),
            "eff_cnots": dict(record.eff_cnots),
            "highway_qubit_fraction": record.highway_qubit_fraction,
            "seconds": dict(record.seconds),
            "extra": dict(record.extra),
        }
    return {
        "benchmark": record.benchmark,
        "architecture": record.architecture,
        "num_data_qubits": record.num_data_qubits,
        "num_physical_qubits": record.num_physical_qubits,
        "baseline_depth": record.baseline_depth,
        "mech_depth": record.mech_depth,
        "baseline_eff_cnots": record.baseline_eff_cnots,
        "mech_eff_cnots": record.mech_eff_cnots,
        "highway_qubit_fraction": record.highway_qubit_fraction,
        "baseline_seconds": record.baseline_seconds,
        "mech_seconds": record.mech_seconds,
        "extra": dict(record.extra),
    }


def record_from_payload(payload: Mapping[str, object]) -> AnyRecord:
    """Inverse of :func:`record_to_payload` (always returns a fresh record)."""
    data = dict(payload)
    data["extra"] = dict(data.get("extra") or {})
    if "compilers" in data:
        data["compilers"] = tuple(data["compilers"])
        data["depths"] = dict(data.get("depths") or {})
        data["eff_cnots"] = dict(data.get("eff_cnots") or {})
        data["seconds"] = dict(data.get("seconds") or {})
        return MultiComparisonRecord(**data)  # type: ignore[arg-type]
    return ComparisonRecord(**data)  # type: ignore[arg-type]


def record_row(record: AnyRecord) -> dict[str, object]:
    """Flat artifact row: stored fields plus the derived paper metrics.

    N-way records flatten to per-backend columns (``<name>_depth``,
    ``<name>_eff_cnots``, ``<name>_seconds``, improvement/normalised ratios
    against the reference backend) instead of the two-backend core columns.
    """
    if isinstance(record, MultiComparisonRecord):
        row = record.as_dict()
        extra_keys = sorted(record.extra)
        for name in record.compilers:
            if name != record.reference:
                row[f"{name}_normalized_depth"] = record.normalized_depth_for(name)
                row[f"{name}_normalized_eff_cnots"] = record.normalized_eff_cnots_for(name)
            row[f"{name}_seconds"] = record.seconds.get(name, 0.0)
        # re-append extras after the derived columns, sorted and stable
        for key in extra_keys:
            row[key] = row.pop(key)
        return row
    row = record_to_payload(record)
    extra = row.pop("extra")
    row["depth_improvement"] = record.depth_improvement
    row["eff_cnots_improvement"] = record.eff_cnots_improvement
    row["normalized_depth"] = record.normalized_depth
    row["normalized_eff_cnots"] = record.normalized_eff_cnots
    for key in sorted(extra):
        row[key] = extra[key]
    return row


# --------------------------------------------------------------------------
# executors


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


#: Optional provider of resident per-device state, installed by a compile
#: server's worker pool (:mod:`repro.serve`).  Maps a :class:`Job` to an
#: object with ``array``/``layout``/``router`` attributes matching the job's
#: device configuration, or ``None`` for the cold path.  Process-global; a
#: forked farm worker inherits its parent's, which is harmless because warm
#: state is a pure function of the device configuration.
_WARM_STATE_PROVIDER: Callable[[Job], Any] | None = None


def set_warm_state_provider(
    provider: Callable[[Job], Any] | None,
) -> Callable[[Job], Any] | None:
    """Install (or clear, with ``None``) the warm device-state provider.

    Returns the previously installed provider so embedders can restore it.
    The provider must return state whose device configuration matches the
    job's — the warm path trusts it; results stay byte-identical because the
    resident state is a pure function of that configuration.
    """
    global _WARM_STATE_PROVIDER
    previous = _WARM_STATE_PROVIDER
    _WARM_STATE_PROVIDER = provider
    return previous


def _compile_job(job: Job):
    """Compile a job's benchmark with every backend it lists.

    With :data:`VERIFY_ENV` set (the CLI's ``repro run --verify``), every
    backend's output is statically verified against the input circuit before
    the job may produce a record; a ``VerificationError`` propagates through
    the engine's normal :class:`JobError` fault path.

    When a warm-state provider is installed (:func:`set_warm_state_provider`)
    the resident array/layout/router replace the cold per-job rebuild — the
    serve path's whole point; with no provider every job builds its own.
    """
    provider = _WARM_STATE_PROVIDER
    state = provider(job) if provider is not None else None
    if state is not None:
        array = state.array
        layout = state.layout
        router = state.router
    else:
        array = job.build_array()
        layout = None
        router = None
    compiled = compile_many(
        job.benchmark,
        array,
        layout=layout,
        router=router,
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
    so they survive the JSON cache and the CSV artifacts.
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


#: Executor registry, keyed by ``Job.kind``.  Both executors live in this
#: module so worker processes only ever need to import the engine.
EXECUTORS: dict[str, Callable[[Job], AnyRecord]] = {
    "compare": _run_compare_job,
    "sensitivity": _run_sensitivity_job,
}


def _execute_job(job: Job) -> AnyRecord:
    chaos = chaos_controller()
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


@dataclass(frozen=True)
class JobPolicy:
    """Fault-tolerance policy applied to every job of a sweep.

    ``timeout`` is a per-*attempt* wall-clock budget in seconds (None
    disables it); ``retries`` re-runs a failed job up to that many extra
    times, bumping the seed on each attempt when ``reseed_on_retry`` is set
    (the result is still stored under the original job's config key).
    ``on_error`` decides what happens once the attempts are exhausted:

    * ``"raise"`` — re-raise the failure in the caller (the engine's historic
      behaviour; everything that already finished stays cached);
    * ``"skip"`` — drop the job from the returned records, count it in
      :attr:`RunReport.failed` and keep sweeping;
    * ``"record"`` — like ``"skip"``, but the :class:`JobError` additionally
      flows into the artifacts as an error row.

    Failed jobs are never cached, so a rerun against the same cache executes
    only the jobs that failed.
    """

    timeout: float | None = None
    retries: int = 0
    reseed_on_retry: bool = False
    on_error: str = "raise"

    ON_ERROR_CHOICES = ("raise", "skip", "record")

    def __post_init__(self):
        if self.on_error not in self.ON_ERROR_CHOICES:
            raise ValueError(
                f"on_error must be one of {self.ON_ERROR_CHOICES}, got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:  # rejects NaN too
            raise ValueError(f"timeout must be positive and finite or None, got {self.timeout}")

    def to_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(JobPolicy)}


@dataclass
class JobError:
    """Structured account of one job that failed every attempt."""

    key: str
    benchmark: str
    kind: str
    error_type: str
    message: str
    traceback_tail: str
    attempts: int
    seconds: float


class JobExecutionError(RuntimeError):
    """Raised by ``on_error="raise"`` when the original exception type cannot
    be reconstructed in the parent process."""

    def __init__(self, error: JobError):
        super().__init__(
            f"job {error.benchmark} ({error.key[:12]}…) failed after "
            f"{error.attempts} attempt(s): {error.error_type}: {error.message}"
        )
        self.error = error


class FarmAbortedError(RuntimeError):
    """A parallel run lost every worker while work remained.

    ``checkpoint`` is the run's progress file (None when it kept none);
    ``repro resume <checkpoint>`` finishes the jobs that never completed.
    """

    def __init__(self, message: str, checkpoint: None | str | Path = None):
        super().__init__(message)
        self.checkpoint = checkpoint


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

    On the main thread (in-process runs) the timer is SIGALRM-based.  Off
    the main thread — farm workers (behind ``repro run --jobs N`` too), serve
    workers, or any embedding that dispatches jobs from a thread pool — a
    monotonic-deadline watchdog thread schedules the timeout asynchronously
    instead: SIGALRM cannot be armed there, and the historic behaviour was to
    silently run the body un-timed.  The watchdog raise lands at the next
    bytecode boundary of the timed thread, which for compile jobs (bytecode-
    rich, short native calls) tracks the deadline closely.
    """
    if seconds is None or seconds <= 0:
        yield
        return
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

WorkItem = tuple[str, dict[str, object], dict[str, object] | None]


def _execute_keyed(item: WorkItem) -> tuple[str, dict[str, object]]:
    """Executor entry point: (key, job dict, policy dict) -> (key, payload).

    The payload is either a record payload or ``{"job_error": {...}}`` — no
    exception (other than ``KeyboardInterrupt``) escapes, so one poisoned job
    cannot kill a worker or discard in-flight results.  The retry loop here
    serves in-process runs and ``repro serve``; farm leases carry a
    single-attempt policy because the lease queue owns the budget.
    """
    key, job_dict, policy_dict = item
    policy = JobPolicy(**policy_dict) if policy_dict else JobPolicy()
    job = job_from_dict(job_dict)
    start = time.perf_counter()
    error: JobError | None = None
    for attempt in range(policy.retries + 1):
        attempt_job = job
        if policy.reseed_on_retry and attempt:
            attempt_job = job.with_(seed=job.seed + attempt)
        try:
            with _deadline(policy.timeout):
                record = _execute_job(attempt_job)
        except Exception as exc:
            tail = "\n".join(traceback.format_exc().splitlines()[-_TRACEBACK_TAIL_LINES:])
            message = str(exc)
            if not message and isinstance(exc, JobTimeoutError) and policy.timeout:
                # the watchdog path raises the bare class (async raises
                # cannot carry arguments), so reconstruct the message
                message = f"exceeded {policy.timeout:g}s wall-clock timeout"
            error = JobError(
                key=key,
                benchmark=job.benchmark,
                kind=job.kind,
                error_type=type(exc).__name__,
                message=message,
                traceback_tail=tail,
                attempts=attempt + 1,
                seconds=time.perf_counter() - start,
            )
        else:
            return key, record_to_payload(record)
    assert error is not None
    return key, {"job_error": asdict(error)}


# --------------------------------------------------------------------------
# on-disk cache


#: Shard directories are the first two hex chars of the config hash.
_SHARD_CHARS = 2
_SHARD_GLOB = "[0-9a-f]" * _SHARD_CHARS
#: Append-only hit/miss log backing ``repro cache-stats`` telemetry.
_ACCESS_LOG = "access.log"
#: Compact the log into aggregated counts once it grows past this size.
_ACCESS_LOG_MAX_BYTES = 4 * 1024 * 1024
#: How many appends between log-size checks (keeps the hot path stat-free).
_ACCESS_COMPACT_EVERY = 1024
#: Temp files older than this are considered litter from a crashed writer.
_STALE_TMP_SECONDS = 3600.0


class ResultCache:
    """On-disk JSON memo of comparison records, one file per config hash.

    Entries are sharded by hash prefix (``ab/abcd….json``) so paper-scale
    sweeps never pile millions of files into one directory.  Writes are
    atomic (temp file + rename) so concurrent runs sharing a cache directory
    never observe torn files, and temp litter left by crashed writers is
    swept on :meth:`put`/:meth:`clear`.
    Payloads carry the full job config alongside the record, which makes a
    cache directory self-describing and debuggable with plain ``jq``.

    ``max_bytes`` caps the cache size: after every write, least-recently-used
    entries (by mtime — :meth:`get` touches entries it serves) are evicted
    until the total drops under the cap.  Corrupt entries are deleted on
    discovery and counted in :attr:`corrupt_seen` so cache rot surfaces in
    :class:`RunReport` instead of silently recomputing forever.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_bytes: int | None = None,
        record_access: bool = True,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive or None, got {max_bytes}")
        self.cache_dir = Path(cache_dir)
        self.max_bytes = max_bytes
        #: Whether get() appends hit/miss lines to the access log.
        self.record_access = record_access
        #: Corrupt entries discovered (and removed) by this instance.
        self.corrupt_seen = 0
        #: Entries evicted by the LRU cap by this instance.
        self.evicted = 0
        #: put() calls that failed at the filesystem (ENOSPC, read-only
        #: mount, permissions) and degraded to pass-through instead.
        self.write_errors = 0
        #: Latched once any put() degrades: results are flowing through
        #: this cache without being persisted.
        self.degraded = False
        #: Running size total; None until the first capped put() scans once.
        self._total_bytes: int | None = None
        #: Appends by this instance, for periodic compaction checks.
        self._accesses_logged = 0
        #: Guards the instance counters above when one cache object is shared
        #: by server worker threads; on-disk state needs no instance lock
        #: (atomic renames, O_APPEND log writes, O_EXCL compaction claim).
        self._lock = threading.Lock()

    @property
    def access_log_path(self) -> Path:
        return self.cache_dir / _ACCESS_LOG

    def _log_access(self, kind: str, key: str) -> None:
        """Append one ``H``/``M``/``P`` ``<key> <unix-time>`` line to the log.

        Single short appends are atomic on POSIX, so concurrent runs sharing
        a cache directory interleave whole lines.  A cache directory that does
        not exist yet (a read against a never-written cache) is left alone —
        pure reads must not create state on disk.  Every
        ``_ACCESS_COMPACT_EVERY`` appends the log size is checked and, past
        ``_ACCESS_LOG_MAX_BYTES``, the line-per-access history is compacted
        into aggregated ``A``/``T`` records so a long-lived farm cache never
        grows an unbounded log.

        The timestamp doubles as mtime-independent recency: eviction and TTL
        sweeps rank entries by ``max(st_mtime, last logged use)``, so a cache
        restored by tooling that resets mtimes (CI ``actions/cache``) keeps
        its true LRU order.  ``P`` lines record puts for exactly that reason
        and never count as hits or misses.

        Appends coordinate with compaction through a shared ``flock`` plus an
        inode check: a compactor renames the live log aside and takes an
        exclusive lock on it before parsing, so an append either lands before
        the parse (holding the shared lock on the same inode) or notices the
        rename and retries against the fresh log — no line can slip into the
        aside file after it was aggregated.
        """
        if not self.record_access or not self.cache_dir.is_dir():
            return
        line = f"{kind} {key} {time.time():.6f}\n".encode("utf-8")
        with contextlib.suppress(OSError):
            self._append_log_line(line)
            with self._lock:
                self._accesses_logged += 1
                check_size = self._accesses_logged % _ACCESS_COMPACT_EVERY == 0
            if check_size and self.access_log_path.stat().st_size > _ACCESS_LOG_MAX_BYTES:
                self._compact_access_log()

    def _append_log_line(self, line: bytes) -> None:
        """One atomic O_APPEND write, rename-aware (see :meth:`_log_access`)."""
        for _ in range(8):  # bounded retries if compactors keep renaming
            fd = os.open(
                str(self.access_log_path),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_SH)
                    try:
                        current = os.stat(self.access_log_path)
                    except FileNotFoundError:
                        continue  # renamed aside mid-open; write to the new log
                    if os.fstat(fd).st_ino != current.st_ino:
                        continue
                os.write(fd, line)
                return
            finally:
                os.close(fd)  # also releases the shared flock

    def _parse_access_log(
        self, path: Path | None = None
    ) -> tuple[int, int, dict[str, int], dict[str, float]]:
        """Totals, per-key hit counts and last-use times from the log.

        Line kinds: ``H <key> [<ts>]`` / ``M <key> [<ts>]`` raw accesses,
        ``P <key> <ts>`` put markers (recency only, no hit/miss), and the
        compacted forms ``A <key> <hits> [<ts>]`` (aggregated per-entry hits)
        and ``T <hits> <misses>`` (carried-over totals).  Timestamp-less
        lines written by earlier versions parse fine and simply contribute no
        recency.
        """
        hits = 0
        misses = 0
        per_key: dict[str, int] = {}
        last_used: dict[str, float] = {}

        def note_use(key: str, parts: list[str], index: int) -> None:
            if len(parts) > index:
                with contextlib.suppress(ValueError):
                    stamp = float(parts[index])
                    if stamp > last_used.get(key, 0.0):
                        last_used[key] = stamp

        with open(path or self.access_log_path, "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) < 2:
                    continue
                kind = parts[0]
                if kind == "H":
                    hits += 1
                    per_key[parts[1]] = per_key.get(parts[1], 0) + 1
                    note_use(parts[1], parts, 2)
                elif kind == "M":
                    misses += 1
                elif kind == "P":
                    note_use(parts[1], parts, 2)
                elif kind == "A" and len(parts) in (3, 4):
                    with contextlib.suppress(ValueError):
                        count = int(parts[2])
                        hits += count
                        per_key[parts[1]] = per_key.get(parts[1], 0) + count
                        note_use(parts[1], parts, 3)
                elif kind == "T" and len(parts) == 3:
                    with contextlib.suppress(ValueError):
                        hits += int(parts[1])
                        misses += int(parts[2])
        return hits, misses, per_key, last_used

    def _log_recency(self) -> dict[str, float]:
        """Newest logged use (hit or put) per key, for mtime-proof ranking."""
        try:
            _, _, _, last_used = self._parse_access_log()
        except OSError:
            return {}
        return last_used

    def _compact_access_log(self) -> None:
        """Aggregate the access log in place without dropping any tally.

        Compactions are serialised by an ``O_EXCL`` lock file: the loser of
        the claim simply skips (the winner is doing the work; a lock older
        than the stale-litter horizon is removed as debris from a crashed
        compactor).  The historic read→aggregate→``os.replace`` cycle raced
        concurrent *appenders* too — lines appended between the read and the
        replace vanished.  Instead the live log is renamed aside first, so
        appenders immediately start a fresh log, the aside file (now frozen)
        is aggregated, and the aggregate is appended back with one atomic
        ``O_APPEND`` write.  Every line lands in exactly one of the two
        files, so nothing is lost in any interleaving.

        One hole remains after the rename: an appender that opened the log
        *just before* the rename still holds a descriptor to the renamed
        inode and may write its line after we parsed it.  Appenders therefore
        hold a shared ``flock`` across their write (and re-open on inode
        mismatch, see :meth:`_append_log_line`); taking an *exclusive* lock
        on the aside file before parsing blocks until every such in-flight
        append has landed, closing the window.
        """
        lock = self.access_log_path.with_name(f".{_ACCESS_LOG}.lock")
        try:
            lock_fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            with contextlib.suppress(OSError):
                if time.time() - lock.stat().st_mtime > _STALE_TMP_SECONDS:
                    lock.unlink()
            return
        except OSError:
            return
        try:
            aside = self.access_log_path.with_name(
                f".{_ACCESS_LOG}.compacting-{os.getpid()}"
            )
            with contextlib.suppress(OSError):
                os.replace(self.access_log_path, aside)
                if fcntl is not None:
                    # wait out in-flight appenders holding the shared lock on
                    # the renamed inode; anyone arriving later sees the inode
                    # mismatch and diverts to the fresh log
                    aside_fd = os.open(str(aside), os.O_RDONLY)
                    try:
                        fcntl.flock(aside_fd, fcntl.LOCK_EX)
                    finally:
                        os.close(aside_fd)
                hits, misses, per_key, last_used = self._parse_access_log(aside)
                lines = [f"T {hits - sum(per_key.values())} {misses}"]
                for key in sorted(set(per_key) | set(last_used)):
                    entry = f"A {key} {per_key.get(key, 0)}"
                    if key in last_used:
                        entry += f" {last_used[key]:.6f}"
                    lines.append(entry)
                blob = ("\n".join(lines) + "\n").encode("utf-8")
                out = os.open(
                    str(self.access_log_path),
                    os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                    0o644,
                )
                try:
                    os.write(out, blob)
                finally:
                    os.close(out)
                os.unlink(aside)
        finally:
            os.close(lock_fd)
            with contextlib.suppress(OSError):
                lock.unlink()

    def access_stats(self, *, top: int = 10) -> dict[str, object]:
        """Hit/miss tallies and per-entry access counts from the access log.

        The groundwork for the ROADMAP's GC daemon: a shared farm cache can
        rank entries by how often they are actually served (``top_entries``)
        instead of only by recency.  ``top_entries`` only lists entries that
        still exist on disk (history survives TTL sweeps and LRU eviction,
        which would otherwise let long-gone entries crowd the ranking);
        ``tracked_entries`` counts every key ever served.  Returns zero
        counts when no log exists (or access recording is off).
        """
        try:
            hits, misses, per_key, _ = self._parse_access_log()
        except OSError:
            hits = misses = 0
            per_key = {}
        total = hits + misses
        # compaction keeps zero-hit keys for their recency stamp; they are
        # not "top" anything
        per_key = {key: count for key, count in per_key.items() if count > 0}
        ranked = sorted(per_key.items(), key=lambda item: (-item[1], item[0]))
        top_entries = []
        for key, count in ranked:
            if len(top_entries) >= max(top, 0):
                break
            if self.path_for(key).exists():
                top_entries.append({"key": key, "hits": count})
        return {
            "recorded": total,
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / total) if total else None,
            "tracked_entries": len(per_key),
            "top_entries": top_entries,
        }

    def path_for(self, key: str) -> Path:
        return self.cache_dir / key[:_SHARD_CHARS] / f"{key}.json"

    def _drop_corrupt(self, path: Path) -> None:
        self.corrupt_seen += 1
        try:
            path.unlink()
        except OSError:
            pass

    def get(self, key: str) -> dict[str, object] | None:
        """The cached record payload for ``key``, or None on a miss.

        A hit refreshes the entry's mtime (its LRU rank) and appends to the
        access log (see :meth:`access_stats`); a corrupt entry is deleted
        and counted.
        """
        record = self._read(key, refresh=True)
        self._log_access("H" if record is not None else "M", key)
        return record

    def peek(self, key: str) -> dict[str, object] | None:
        """Like :meth:`get`, but strictly read-only.

        No mtime refresh, no corrupt-entry deletion, no access log — the
        classification (hit or miss) matches what :meth:`get` would return,
        which is what dry-run planning needs without perturbing the LRU/TTL
        state it is previewing.
        """
        return self._read(key, refresh=False)

    def _read(self, key: str, *, refresh: bool) -> dict[str, object] | None:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (FileNotFoundError, NotADirectoryError):
            return None  # a miss (or a cache dir that is not a directory)
        except json.JSONDecodeError:
            entry = None
        if isinstance(entry, dict) and entry.get("cache_version") != CACHE_VERSION:
            return None  # a legitimate version skew, not rot
        record = entry.get("record") if isinstance(entry, dict) else None
        if not isinstance(record, dict):
            if refresh:
                self._drop_corrupt(path)
            return None
        if refresh:
            with contextlib.suppress(OSError):
                os.utime(path)
        return dict(record)

    def put(self, key: str, job: Job, record_payload: Mapping[str, object]) -> Path:
        """Store one record payload under ``key`` (atomic write).

        A filesystem failure (ENOSPC, read-only mount, permissions) does
        **not** propagate: the cache degrades to recorded pass-through mode
        — the caller keeps its in-memory payload and the run completes,
        with the degradation counted in :attr:`write_errors` / latched in
        :attr:`degraded` so :class:`RunReport` and the CLI can surface it.
        Losing memoisation must never lose a result that already compiled.
        """
        entry = {
            "cache_version": CACHE_VERSION,
            "key": key,
            "job": {k: v for k, v in job_to_dict(job).items() if k != "tags"},
            "record": dict(record_payload),
        }
        path = self.path_for(key)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            chaos = chaos_controller()
            if chaos is not None:
                chaos.on_fs_op("put", str(path))
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, indent=1, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            with self._lock:
                self.write_errors += 1
                self.degraded = True
            with contextlib.suppress(OSError):
                tmp.unlink()
            return path
        self._log_access("P", key)
        self._sweep_tmp(stale_only=True, dirs=(path.parent, self.cache_dir))
        if self.max_bytes:
            # keep a running total so the common (under-cap) put is O(1);
            # overwrites drift it upward, but every eviction pass recomputes
            # the exact total, so the drift only ever triggers an early scan
            with self._lock:
                if self._total_bytes is None:
                    self._total_bytes = sum(self._entry_sizes().values())
                else:
                    with contextlib.suppress(OSError):
                        self._total_bytes += path.stat().st_size
                over_cap = self._total_bytes > self.max_bytes
            if over_cap:
                self._evict_to_cap()
        return path

    def entries(self) -> list[Path]:
        """Every entry path, sorted by name."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob(f"{_SHARD_GLOB}/*.json"), key=lambda p: p.name)

    def _tmp_files(self) -> list[Path]:
        if not self.cache_dir.is_dir():
            return []
        litter = list(self.cache_dir.glob(".*.json.tmp-*"))
        litter += self.cache_dir.glob(f"{_SHARD_GLOB}/.*.json.tmp-*")
        return sorted(litter)

    def _sweep_tmp(self, *, stale_only: bool, dirs: Sequence[Path] | None = None) -> int:
        """Remove temp litter from crashed writers; returns the count.

        ``stale_only`` spares files younger than an hour, so a concurrent
        writer mid-``put`` never loses its temp file.  ``dirs`` restricts the
        sweep (``put`` passes just the shard it wrote and the cache root).
        """
        cutoff = time.time() - _STALE_TMP_SECONDS
        removed = 0
        if dirs is not None:
            litter: list[Path] = []
            for directory in dict.fromkeys(dirs):
                litter += directory.glob(".*.json.tmp-*")
        else:
            litter = self._tmp_files()
        for tmp in litter:
            try:
                if stale_only and tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def _entry_sizes(self) -> dict[Path, int]:
        sizes: dict[Path, int] = {}
        for path in self.entries():
            with contextlib.suppress(OSError):
                sizes[path] = path.stat().st_size
        return sizes

    def _last_use(self, path: Path, stat: os.stat_result, recency: Mapping[str, float]) -> float:
        """When ``path``'s entry was last written or served.

        The newer of the filesystem mtime and the access log's recency stamp:
        a cache restored by tooling that resets mtimes (CI ``actions/cache``)
        still ranks by its true usage order, and a cache with no log at all
        degrades to the historic mtime behaviour.
        """
        return max(stat.st_mtime, recency.get(path.stem, 0.0))

    def _evict_to_cap(self) -> int:
        """Evict least-recently-used entries until under ``max_bytes``."""
        if not self.max_bytes:
            return 0
        recency = self._log_recency()
        sized = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((self._last_use(path, stat, recency), stat.st_size, path))
            total += stat.st_size
        evicted = 0
        for _used, size, path in sorted(sized, key=lambda item: (item[0], item[2].name)):
            if total <= self.max_bytes:
                break
            with contextlib.suppress(OSError):
                path.unlink()
                total -= size
                evicted += 1
        with self._lock:
            self.evicted += evicted
            self._total_bytes = total
        return evicted

    def sweep_older_than(
        self,
        max_age_seconds: float,
        *,
        dry_run: bool = False,
        now: float | None = None,
    ) -> dict[str, int]:
        """Age-based (TTL) garbage collection, shard-aware.

        Removes every entry whose last use is strictly older than
        ``now - max_age_seconds``; entries at or newer than the cutoff are
        never touched.  Last use is the newer of the
        entry's mtime (a :meth:`get` refreshes it) and its access-log recency
        stamp, so freshly restored entries whose mtimes were reset by the
        restore tooling are not mis-swept.  ``dry_run`` counts what a sweep
        would remove without unlinking anything.
        Returns ``{"scanned", "removed", "freed_bytes"}``.
        """
        # NaN would make every mtime-vs-cutoff comparison False and delete
        # the whole cache, so it must not pass the range check
        if math.isnan(max_age_seconds) or max_age_seconds < 0:
            raise ValueError(f"max_age_seconds must be >= 0, got {max_age_seconds}")
        cutoff = (time.time() if now is None else now) - max_age_seconds
        recency = self._log_recency()
        scanned = removed = freed = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            scanned += 1
            if self._last_use(path, stat, recency) >= cutoff:
                continue
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    continue
            removed += 1
            freed += stat.st_size
        if not dry_run and removed:
            self._sweep_tmp(stale_only=True)
            for shard in self.cache_dir.glob(_SHARD_GLOB):
                if shard.is_dir():
                    with contextlib.suppress(OSError):
                        shard.rmdir()
            self._total_bytes = None  # force a rescan on the next capped put
        return {"scanned": scanned, "removed": removed, "freed_bytes": freed}

    def eviction_ranking(self) -> list[dict[str, object]]:
        """Every entry in the exact order ranked eviction removes them.

        Least-*served* first: entries are sorted by access-log hit count
        ascending, ties broken by the oldest last use (the newer of mtime and
        logged recency, same rule as the LRU cap and the TTL sweep), final
        ties by name so the order is fully deterministic.  This is the order
        the eviction daemon (``repro clean-cache --watch --max-mb``) walks and
        the preview ``repro cache-stats --rank access`` prints — one code
        path, so the preview can never lie about what a sweep would do.
        """
        try:
            _, _, per_key, last_used = self._parse_access_log()
        except OSError:
            per_key, last_used = {}, {}
        ranked: list[dict[str, object]] = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            key = path.stem
            ranked.append(
                {
                    "key": key,
                    "path": path,
                    "hits": per_key.get(key, 0),
                    "last_use": max(stat.st_mtime, last_used.get(key, 0.0)),
                    "bytes": stat.st_size,
                }
            )
        ranked.sort(key=lambda e: (e["hits"], e["last_use"], e["path"].name))
        return ranked

    def evict_ranked(self, max_bytes: int) -> dict[str, int]:
        """Evict the head of :meth:`eviction_ranking` until under ``max_bytes``.

        Unlike the recency-only :meth:`_evict_to_cap` (which backs the
        per-put LRU cap), this is the farm daemon's access-ranked pass: a
        hot entry served hundreds of times outlives a fresher entry nothing
        ever asked for.  Returns ``{"scanned", "removed", "freed_bytes",
        "total_bytes"}`` with ``total_bytes`` the post-eviction size.
        """
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        ranking = self.eviction_ranking()
        total = sum(int(entry["bytes"]) for entry in ranking)
        removed = freed = 0
        for entry in ranking:
            if total <= max_bytes:
                break
            with contextlib.suppress(OSError):
                entry["path"].unlink()  # type: ignore[union-attr]
                total -= int(entry["bytes"])
                freed += int(entry["bytes"])
                removed += 1
        if removed:
            with self._lock:
                self.evicted += removed
                self._total_bytes = None  # force a rescan on the next capped put
            for shard in self.cache_dir.glob(_SHARD_GLOB):
                if shard.is_dir():
                    with contextlib.suppress(OSError):
                        shard.rmdir()
        return {
            "scanned": len(ranking),
            "removed": removed,
            "freed_bytes": freed,
            "total_bytes": total,
        }

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every cache entry (and all temp litter); returns the number
        of entries removed."""
        removed = 0
        for path in self.entries():
            path.unlink()
            removed += 1
        self._sweep_tmp(stale_only=False)
        with contextlib.suppress(OSError):
            self.access_log_path.unlink()
        if self.cache_dir.is_dir():
            for pattern in (
                f".{_ACCESS_LOG}.tmp-*",
                f".{_ACCESS_LOG}.compacting-*",
                f".{_ACCESS_LOG}.lock",
            ):
                for litter in self.cache_dir.glob(pattern):
                    with contextlib.suppress(OSError):
                        litter.unlink()
        if self.cache_dir.is_dir():
            for shard in self.cache_dir.glob(_SHARD_GLOB):
                if shard.is_dir():
                    with contextlib.suppress(OSError):
                        shard.rmdir()
        self._total_bytes = None
        return removed

    def stats(self) -> dict[str, object]:
        """Size/health summary of the cache directory (reads every entry)."""
        total_bytes = 0
        corrupt = 0
        oldest: float | None = None
        newest: float | None = None
        entries = self.entries()
        for path in entries:
            try:
                stat = path.stat()
            except OSError:
                continue
            total_bytes += stat.st_size
            oldest = stat.st_mtime if oldest is None else min(oldest, stat.st_mtime)
            newest = stat.st_mtime if newest is None else max(newest, stat.st_mtime)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                if not isinstance(entry, dict) or not isinstance(entry.get("record"), dict):
                    corrupt += 1
            except (OSError, json.JSONDecodeError):
                corrupt += 1
        return {
            "cache_dir": str(self.cache_dir),
            "entries": len(entries),
            "total_bytes": total_bytes,
            "shards": len({path.parent for path in entries}),
            "tmp_files": len(self._tmp_files()),
            "corrupt_entries": corrupt,
            "max_bytes": self.max_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
            "access": self.access_stats(),
        }


def _coerce_cache(cache: None | str | Path | ResultCache) -> ResultCache | None:
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


# --------------------------------------------------------------------------
# planning


@dataclass
class ExecutionPlan:
    """What a run would do, computed without executing anything.

    The plan phase resolves every job's config key, consults the cache and
    deduplicates — exactly the bookkeeping :func:`run_jobs_report` performs
    before dispatching — so a dry run, a resume and a real run all share one
    code path and therefore always agree on the cached/pending split.
    """

    #: The original job sequence, order and duplicates preserved.
    jobs: list[Job]
    #: Config keys, parallel to ``jobs``.
    keys: list[str]
    #: First job seen per distinct key, in first-appearance order.
    unique: dict[str, Job]
    #: Cached record payloads, keyed by config key (the cache hits).
    payloads: dict[str, dict[str, object]]
    #: Unique jobs the run would actually execute.
    pending: dict[str, Job]

    @property
    def total(self) -> int:
        return len(self.jobs)

    @property
    def cache_hits(self) -> int:
        return len(self.payloads)

    @property
    def deduplicated(self) -> int:
        return len(self.jobs) - len(self.unique)


def plan_jobs(
    jobs: Sequence[Job],
    *,
    cache: None | str | Path | ResultCache = None,
    refresh: bool = False,
) -> ExecutionPlan:
    """The pure planning phase: validate kinds, hash, consult the cache, dedupe.

    Compiles nothing, and by default mutates nothing either: the cache is
    consulted through the strictly read-only :meth:`ResultCache.peek`, so
    previewing a plan never marks entries "recently used" (which would
    defeat a TTL sweep the operator is about to run).  A real run — which
    *wants* its hits' LRU recency refreshed and corrupt entries dropped —
    passes ``refresh=True`` to consult :meth:`ResultCache.get` instead; the
    hit/miss classification is the same either way.
    """
    # eager validation MUST precede any cache consultation: a plan (and thus
    # a dry run or resume) against a misspelled kind or compiler fails loudly
    # instead of classifying bogus jobs as pending
    unknown_kinds = sorted({job.kind for job in jobs} - set(EXECUTORS))
    if unknown_kinds:
        kinds = ", ".join(repr(kind) for kind in unknown_kinds)
        raise ValueError(f"unknown job kind {kinds}; choose from {sorted(EXECUTORS)}")
    known_compilers = set(available_backends())
    unknown_compilers = sorted(
        {name for job in jobs for name in job.compilers} - known_compilers
    )
    if unknown_compilers:
        names = ", ".join(repr(name) for name in unknown_compilers)
        raise ValueError(f"unknown compiler {names}; choose from {available_backends()}")

    store = _coerce_cache(cache)
    keys = [config_key(job) for job in jobs]
    unique: dict[str, Job] = {}
    payloads: dict[str, dict[str, object]] = {}
    pending: dict[str, Job] = {}
    for job, key in zip(jobs, keys, strict=True):
        if key in unique:
            continue
        unique[key] = job
        if store is None:
            hit = None
        else:
            hit = store.get(key) if refresh else store.peek(key)
        if hit is not None:
            payloads[key] = hit
        else:
            pending[key] = job
    return ExecutionPlan(
        jobs=list(jobs), keys=keys, unique=unique, payloads=payloads, pending=pending
    )


def plan_summary(
    plan: ExecutionPlan, *, failed_keys: Sequence[str] = ()
) -> dict[str, object]:
    """Stable counts for a plan: totals plus per-kind/per-benchmark breakdowns.

    Each unique job is classified ``cached`` (served from the cache),
    ``failed`` (its key appears in ``failed_keys`` — typically a previous
    run's checkpoint — and is not cached) or ``pending``.  This dict is the
    machine-readable contract behind ``repro run --dry-run --json``.
    """
    failed = set(failed_keys)
    counts = {"cached": 0, "pending": 0, "failed": 0}
    by_kind: dict[str, dict[str, int]] = {}
    by_benchmark: dict[str, dict[str, int]] = {}
    for key, job in plan.unique.items():
        if key in plan.payloads:
            status = "cached"
        elif key in failed:
            status = "failed"
        else:
            status = "pending"
        counts[status] += 1
        for table, label in ((by_kind, job.kind), (by_benchmark, job.benchmark)):
            bucket = table.setdefault(label, {"cached": 0, "pending": 0, "failed": 0})
            bucket[status] += 1
    return {
        "total": plan.total,
        "unique": len(plan.unique),
        "duplicates": plan.deduplicated,
        **counts,
        "by_kind": {kind: by_kind[kind] for kind in sorted(by_kind)},
        "by_benchmark": {name: by_benchmark[name] for name in sorted(by_benchmark)},
    }


# --------------------------------------------------------------------------
# execution


@dataclass
class RunReport:
    """What one :func:`run_jobs_report` call did."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    workers: int = 1
    seconds: float = 0.0
    #: Jobs that exhausted every attempt (one :class:`JobError` each).
    failed: int = 0
    errors: list[JobError] = field(default_factory=list)
    #: Corrupt cache entries discovered (and dropped) during this run.
    corrupt_entries: int = 0
    #: True when the dispatch loop was cut short by ``KeyboardInterrupt``.
    interrupted: bool = False
    #: Cache writes that failed at the filesystem during this run (the
    #: cache degraded to pass-through; results stayed in memory).
    cache_write_errors: int = 0
    #: Latched when any cache write degraded during this run.
    cache_degraded: bool = False
    #: Checkpoint compactions that failed at the filesystem.
    checkpoint_write_errors: int = 0
    #: Responses replayed from the transport dedup log (request retries
    #: that were answered without re-executing the op).
    transport_replays: int = 0

    def summary(self) -> str:
        extras = ""
        if self.failed:
            extras += f", {self.failed} failed"
        if self.corrupt_entries:
            extras += f", {self.corrupt_entries} corrupt cache entr"
            extras += "y dropped" if self.corrupt_entries == 1 else "ies dropped"
        if self.cache_degraded:
            extras += (
                f", cache degraded to pass-through"
                f" ({self.cache_write_errors} write error"
                f"{'s' if self.cache_write_errors != 1 else ''})"
            )
        if self.checkpoint_write_errors:
            extras += f", {self.checkpoint_write_errors} checkpoint write error"
            extras += "s" if self.checkpoint_write_errors != 1 else ""
        if self.transport_replays:
            extras += f", {self.transport_replays} retried request"
            extras += "s replayed" if self.transport_replays != 1 else " replayed"
        return (
            f"{self.total} jobs: {self.cache_hits} cached, {self.executed} executed"
            f"{extras}"
            f" ({self.workers} worker{'s' if self.workers != 1 else ''},"
            f" {self.seconds:.1f}s)"
        )


#: Version 2 made checkpoints self-contained: the full job list (tags
#: included) is serialised, so a resume re-hydrates jobs from the file alone
#: instead of re-expanding the experiment spec.  Version-1 checkpoints only
#: recorded keys and cannot be resumed.
CHECKPOINT_VERSION = 2

#: Minimum interval between routine (non-forced) checkpoint flushes.
_CHECKPOINT_FLUSH_SECONDS = 1.0


def _atomic_write_json(path: Path, document: Mapping[str, object]) -> None:
    chaos = chaos_controller()
    data = (json.dumps(document, indent=1, sort_keys=False) + "\n").encode("utf-8")
    if chaos is not None:
        chaos.on_fs_op("checkpoint", str(path))
        # a torn-tail clause simulates a non-atomic writer dying mid-write:
        # the truncated document still lands (tmp + rename), so readers see
        # a syntactically broken file exactly as a crashed plain write(2)
        # would have left it
        data = chaos.checkpoint_payload(str(path), data)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def checkpoint_document(
    *,
    finished: bool,
    interrupted: bool,
    meta: Mapping[str, object] | None,
    total_jobs: int,
    cache_hits: int,
    cached_keys: Sequence[str],
    completed_keys: Sequence[str],
    failed: Sequence[JobError],
    pending_entries: Sequence[Mapping[str, object]],
    serialized_jobs: Sequence[Mapping[str, object]],
) -> dict[str, object]:
    """The checkpoint-schema-v2 document :meth:`RunLedger.flush` writes."""
    return {
        "checkpoint_version": CHECKPOINT_VERSION,
        "finished": finished,
        "interrupted": interrupted,
        "meta": dict(meta) if meta else {},
        "total_jobs": total_jobs,
        "cache_hits": cache_hits,
        "cached": list(cached_keys),
        "completed": list(completed_keys),
        "failed": [asdict(error) for error in failed],
        "pending": [dict(entry) for entry in pending_entries],
        "jobs": [dict(job) for job in serialized_jobs],
    }


def journal_path_for(checkpoint_path: str | Path) -> Path:
    """The delta-journal path beside a checkpoint file.

    ``fig12.checkpoint.json`` → ``fig12.checkpoint.journal.jsonl``: same
    directory, same stem, so operators (and the CI artifact upload) find the
    journal by looking next to the checkpoint it shadows.
    """
    path = Path(checkpoint_path)
    stem = path.name[: -len(".json")] if path.name.endswith(".json") else path.name
    return path.with_name(f"{stem}.journal.jsonl")


def append_journal(path: str | Path, delta: Mapping[str, object]) -> None:
    """Append one state-transition delta as a compact JSON line.

    One ``O_APPEND`` write per event — atomic for these short lines on
    POSIX, so a coordinator crash can tear at most the final line (which
    :func:`read_journal` skips).  The journal is the farm's write-ahead
    record: every lease/complete/fail/expire lands here *before* the
    throttled checkpoint compaction, so a crash between flushes loses
    bookkeeping only, never results (those are already in the cache).
    """
    line = (json.dumps(dict(delta), sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )
    target = Path(path)
    chaos = chaos_controller()
    if chaos is not None:
        chaos.on_fs_op("journal", str(target))
        # a torn-tail clause appends only a prefix of the line — the exact
        # on-disk state a crash mid-write(2) leaves behind
        line = chaos.journal_line(str(target), line)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(str(target), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line)
    finally:
        os.close(fd)


def read_journal(path: str | Path) -> list[dict[str, object]]:
    """Parse a delta journal, skipping a torn trailing line from a crash."""
    entries: list[dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                text = line.strip()
                if not text:
                    continue
                try:
                    entry = json.loads(text)
                except json.JSONDecodeError:
                    continue  # torn tail from a crashed appender
                if isinstance(entry, dict):
                    entries.append(entry)
    except FileNotFoundError:
        return []
    return entries


def quarantine_path_for(path: str | Path) -> Path:
    """Where a corrupt journal tail / checkpoint is preserved aside."""
    target = Path(path)
    return target.with_name(target.name + ".quarantine")


def repair_journal(path: str | Path) -> dict[str, object] | None:
    """Quarantine a torn/corrupt journal tail and truncate to the good prefix.

    A coordinator crash mid-append (or an injected ``torn-tail`` fault)
    leaves a trailing fragment that is not a complete JSON line.  This
    walks back from the end of the file past every trailing line that does
    not parse, appends those bytes to ``<journal>.quarantine`` (preserved
    as evidence, never silently discarded), and truncates the journal to
    the surviving prefix — the same prefix :func:`read_journal` would have
    parsed, now made durable so subsequent appenders do not merge their
    first line into the torn fragment.

    Returns ``None`` when the journal is healthy (or absent); otherwise a
    stats dict with the quarantined byte count and paths.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError:
        # absent (no journal was ever written) or unreadable — either way
        # there is nothing to repair here; resume proceeds on the checkpoint
        return None

    def parses(raw: bytes) -> bool:
        text = raw.strip()
        if not text:
            return True  # a blank line is harmless, not a torn tail
        try:
            return isinstance(json.loads(text.decode("utf-8")), dict)
        except (UnicodeDecodeError, ValueError):
            return False

    lines = data.split(b"\n")  # a healthy journal ends with b"" here
    index = len(lines) - 1
    while index >= 0 and not parses(lines[index]):
        index -= 1
    if index == len(lines) - 1:
        return None
    kept = lines[: index + 1]
    good = b"\n".join(kept) + b"\n" if kept else b""
    # re-terminate: kept may end with b"" (data had a trailing newline)
    if good.endswith(b"\n\n"):
        good = good[:-1]
    torn = data[len(good):]
    quarantine = quarantine_path_for(target)
    fd = os.open(str(quarantine), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, torn if torn.endswith(b"\n") else torn + b"\n")
    finally:
        os.close(fd)
    os.truncate(str(target), len(good))
    return {
        "journal": str(target),
        "quarantine": str(quarantine),
        "quarantined_bytes": len(torn),
        "kept_events": sum(1 for line in kept if line.strip()),
    }


def quarantine_checkpoint(path: str | Path) -> Path:
    """Move a corrupt checkpoint aside to ``<path>.quarantine`` and return
    the quarantine path (the evidence is preserved, the slot is freed)."""
    target = Path(path)
    quarantine = quarantine_path_for(target)
    os.replace(target, quarantine)
    return quarantine


class CheckpointError(ValueError):
    """A checkpoint file is missing, malformed or not resumable."""


@dataclass
class Checkpoint:
    """A parsed, validated ``<name>.checkpoint.json`` file.

    ``jobs`` is the run's *full* original job list (order, duplicates and
    tags preserved), so re-running it through the engine against the same
    cache reproduces the uninterrupted run's records exactly: completed jobs
    are cache hits, only the pending/failed remainder executes.
    """

    path: Path
    version: int
    finished: bool
    interrupted: bool
    meta: dict[str, object]
    jobs: list[Job]
    #: Keys served from the cache when the checkpointed run planned itself.
    cached_keys: frozenset
    #: Keys the checkpointed run executed to completion (and cached).
    completed_keys: frozenset
    failed: list[JobError]

    @property
    def failed_keys(self) -> frozenset:
        return frozenset(error.key for error in self.failed)

    def remaining_jobs(self) -> list[Job]:
        """The unique jobs the original run did not finish (pending + failed)."""
        done = self.completed_keys | self.cached_keys
        remaining: dict[str, Job] = {}
        for job in self.jobs:
            key = config_key(job)
            if key not in done and key not in remaining:
                remaining[key] = job
        return list(remaining.values())


def load_checkpoint(path: str | Path, *, quarantine: bool = False) -> Checkpoint:
    """Parse and validate a checkpoint file written by :func:`run_jobs_report`.

    Raises :class:`CheckpointError` on a missing/corrupt file, an
    un-resumable version-1 checkpoint, or jobs that no longer round-trip
    through :func:`job_from_dict` (e.g. a checkpoint from an incompatible
    release).  With ``quarantine=True`` (the ``repro resume`` path) a
    syntactically corrupt file is additionally moved aside to
    ``<path>.quarantine`` before raising, so the evidence is preserved and
    a fresh run can re-create the checkpoint without fighting the rot.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint file not found: {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        suffix = ""
        if quarantine and isinstance(exc, json.JSONDecodeError):
            with contextlib.suppress(OSError):
                suffix = f"; corrupt file preserved at {quarantine_checkpoint(path)}"
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}{suffix}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    version = doc.get("checkpoint_version")
    if version == 1:
        raise CheckpointError(
            f"checkpoint {path} has version 1, which does not serialise its jobs"
            " and cannot be resumed; re-run the experiment once (it writes a"
            f" version-{CHECKPOINT_VERSION} checkpoint) and resume from that"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r}"
            f" (this release reads version {CHECKPOINT_VERSION})"
        )
    raw_jobs = doc.get("jobs")
    if not isinstance(raw_jobs, list):
        raise CheckpointError(f"checkpoint {path} has no serialised job list")
    jobs: list[Job] = []
    for index, raw in enumerate(raw_jobs):
        try:
            jobs.append(job_from_dict(raw))
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckpointError(
                f"checkpoint {path}: job #{index} does not round-trip ({exc!r});"
                " was it written by an incompatible release?"
            ) from exc
    error_fields = {f.name for f in fields(JobError)}
    failed: list[JobError] = []
    for raw in doc.get("failed") or ():
        if not isinstance(raw, dict) or not error_fields <= set(raw):
            raise CheckpointError(f"checkpoint {path} has a malformed failed-job entry")
        failed.append(JobError(**{name: raw[name] for name in error_fields}))
    meta = doc.get("meta")
    try:
        return Checkpoint(
            path=path,
            version=int(version),
            finished=bool(doc.get("finished")),
            interrupted=bool(doc.get("interrupted")),
            meta=dict(meta) if isinstance(meta, dict) else {},
            jobs=jobs,
            cached_keys=frozenset(str(key) for key in doc.get("cached") or ()),
            completed_keys=frozenset(str(key) for key in doc.get("completed") or ()),
            failed=failed,
        )
    except (TypeError, ValueError) as exc:
        # e.g. a non-iterable cached/completed list
        raise CheckpointError(f"checkpoint {path} has malformed fields: {exc}") from exc


class RunLedger:
    """One run's bookkeeping, shared by both executors.

    Opening a ledger plans the run (one cache lookup per unique key).  The
    in-process loop of :func:`run_jobs_report` and the farm coordinator
    record payloads and permanent failures here; the ledger writes the
    checkpoint, reassembles records in job order, builds the
    :class:`RunReport` and flushes on SIGTERM.  ``on_flush(finished)``
    runs after each checkpoint write (the coordinator journals it).
    """

    def __init__(
        self,
        jobs: Sequence[Job],
        *,
        cache: None | str | Path | ResultCache = None,
        checkpoint: None | str | Path = None,
        meta: Mapping[str, object] | None = None,
        on_flush: Callable[[bool], None] | None = None,
    ) -> None:
        self.store = _coerce_cache(cache)
        self._started = time.perf_counter()
        self._corrupt_base = self.store.corrupt_seen if self.store is not None else 0
        self._write_error_base = self.store.write_errors if self.store is not None else 0
        self.plan = plan_jobs(jobs, cache=self.store, refresh=True)
        #: Record payloads by config key: the cache hits, then each completion.
        self.payloads: dict[str, dict[str, object]] = dict(self.plan.payloads)
        #: Jobs that exhausted every attempt (never cached), by config key.
        self.errors: dict[str, JobError] = {}
        self.interrupted = False
        self.checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        self.checkpoint_write_errors = 0
        self._meta = meta
        self._on_flush = on_flush
        self._cached_keys = sorted(self.plan.payloads)
        self._serialized_jobs = (
            [job_to_dict(job) for job in self.plan.jobs] if self.checkpoint_path else []
        )
        self._lock = threading.RLock()
        self._last_flush = 0.0
        self._trailing: threading.Timer | None = None

    def complete(self, key: str, payload: dict[str, object]) -> None:
        """Keep a finished job's payload and cache it."""
        self.payloads[key] = payload
        if self.store is not None:
            self.store.put(key, self.plan.pending[key], payload)

    def flush(self, *, force: bool = True) -> None:
        """Write the checkpoint.  A routine flush (``force=False``) within
        :data:`_CHECKPOINT_FLUSH_SECONDS` of the last write is deferred: the
        next routine flush usually writes it, a trailing timer covers a lull."""
        if self.checkpoint_path is None:
            return
        with self._lock:
            if not force and time.monotonic() - self._last_flush < _CHECKPOINT_FLUSH_SECONDS:
                if self._trailing is None:
                    self._trailing = threading.Timer(_CHECKPOINT_FLUSH_SECONDS, self._flush_late)
                    self._trailing.daemon = True
                    self._trailing.start()
                return
            if self._trailing is not None:
                self._trailing.cancel()
                self._trailing = None
            self._last_flush = time.monotonic()
            payloads, failed = dict(self.payloads), dict(self.errors)
            remaining = [
                {"key": key, "benchmark": job.benchmark, "kind": job.kind}
                for key, job in self.plan.pending.items()
                if key not in payloads and key not in failed
            ]
            finished = not remaining and not self.interrupted
            document = checkpoint_document(
                finished=finished,
                interrupted=self.interrupted,
                meta=self._meta,
                total_jobs=self.plan.total,
                cache_hits=self.plan.cache_hits,
                cached_keys=self._cached_keys,
                completed_keys=[key for key in self.plan.pending if key in payloads],
                failed=list(failed.values()),
                pending_entries=remaining,
                serialized_jobs=self._serialized_jobs,
            )
            try:
                _atomic_write_json(self.checkpoint_path, document)
            except OSError:
                # a full/read-only disk must not abort the sweep; only
                # resumability degrades
                self.checkpoint_write_errors += 1
                return
            if self._on_flush is not None:
                self._on_flush(finished)

    def _flush_late(self) -> None:
        with self._lock:
            if self._trailing is not None:  # else a later flush superseded it
                self.flush()

    @contextlib.contextmanager
    def interruptible(self, on_sigterm: Callable[[], None] | None = None):
        """Flush the checkpoint, marked interrupted, if the body is stopped.

        Ctrl-C flushes and re-raises.  On SIGTERM (how launchers and batch
        schedulers stop a run) a handler flushes, runs ``on_sigterm``, then
        re-delivers the signal under the default disposition so the exit
        status still says "killed by SIGTERM".  Only the main thread may
        install the handler; other threads leave the signal alone.
        """

        def on_term(signum, frame):
            self.interrupted = True
            self.flush()
            if on_sigterm is not None:
                on_sigterm()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        installed = False
        previous: Any = None
        main_thread = threading.current_thread() is threading.main_thread()
        if self.checkpoint_path is not None and main_thread:
            with contextlib.suppress(ValueError, OSError):
                previous = signal.signal(signal.SIGTERM, on_term)
                installed = True
        try:
            yield
        except KeyboardInterrupt:
            self.interrupted = True
            self.flush()
            raise
        finally:
            if installed:
                with contextlib.suppress(ValueError, OSError):
                    signal.signal(signal.SIGTERM, previous)

    def records(self) -> list[AnyRecord]:
        """Records in original job order (tags re-applied); failed jobs are
        left out."""
        records: list[AnyRecord] = []
        for job, key in zip(self.plan.jobs, self.plan.keys, strict=True):
            payload = self.payloads.get(key)
            if payload is None:
                continue
            record = record_from_payload(payload)
            for tag, value in job.tags:
                record.extra[tag] = value
            records.append(record)
        return records

    def report(self, *, workers: int, transport_replays: int = 0) -> RunReport:
        store = self.store
        write_errors = store.write_errors - self._write_error_base if store is not None else 0
        return RunReport(
            total=self.plan.total,
            cache_hits=self.plan.cache_hits,
            executed=len(self.plan.pending),
            deduplicated=self.plan.deduplicated,
            workers=workers,
            seconds=time.perf_counter() - self._started,
            failed=len(self.errors),
            errors=list(self.errors.values()),
            corrupt_entries=store.corrupt_seen - self._corrupt_base if store is not None else 0,
            interrupted=self.interrupted,
            cache_write_errors=write_errors,
            cache_degraded=write_errors > 0,
            checkpoint_write_errors=self.checkpoint_write_errors,
            transport_replays=transport_replays,
        )


def run_jobs_report(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: None | str | Path | ResultCache = None,
    progress: Callable[[str], None] | None = None,
    policy: JobPolicy | None = None,
    checkpoint: None | str | Path = None,
    checkpoint_meta: Mapping[str, object] | None = None,
) -> tuple[list[AnyRecord], RunReport]:
    """Execute jobs (plan, then execute) and report what happened.

    Records come back in job order, so a parallel run is record-for-record
    identical to a serial one.  ``workers <= 1`` stays in-process;
    ``workers > 1`` serves the cache misses from the compile farm's lease
    queue to that many forked local workers (:func:`repro.farm.run_farm`),
    which heals a worker lost mid-job by lease expiry.  ``cache`` may be a
    directory path or a :class:`ResultCache`; ``None`` disables memoization
    (identical jobs are still computed only once per call).

    ``policy`` governs per-job timeouts, retries and error disposition (see
    :class:`JobPolicy`; the default re-raises the first failure).  Jobs that
    fail under ``on_error="skip"``/``"record"`` are dropped from the
    returned records and reported in :attr:`RunReport.errors`.
    ``checkpoint`` names a JSON file kept up to date with exactly which jobs
    are cached, completed, failed and pending, plus the full job list and
    the caller's ``checkpoint_meta``, so :func:`load_checkpoint` can resume
    the run after a crash, ``KeyboardInterrupt`` or SIGTERM.
    """
    policy = policy if policy is not None else JobPolicy()
    if workers > 1:
        from ..farm import coordinator as farm
        from ..farm.launcher import LocalWorkerLauncher

        return farm.run_farm(
            jobs,
            launcher=LocalWorkerLauncher(),
            workers=workers,
            cache=cache,
            policy=policy,
            lease_seconds=farm.LEASE_SECONDS,
            checkpoint=checkpoint,
            checkpoint_meta=checkpoint_meta,
            progress=progress,
        )
    ledger = RunLedger(jobs, cache=cache, checkpoint=checkpoint, meta=checkpoint_meta)
    pending = ledger.plan.pending
    policy_dict = policy.to_dict()
    ledger.flush()
    with ledger.interruptible():
        for done, (key, job) in enumerate(pending.items(), 1):
            _, payload = _execute_keyed((key, job_to_dict(job), policy_dict))
            note = f"{done}/{len(pending)} jobs executed"
            job_error = payload.get("job_error")
            error = JobError(**job_error) if isinstance(job_error, dict) else None
            if error is not None:
                # never cache a failure: a rerun should retry exactly these jobs
                ledger.errors[key] = error
                # the raise path abandons the run right after, so it forces
                ledger.flush(force=policy.on_error == "raise")
                note += f" ({error.benchmark} failed: {error.error_type})"
            else:
                ledger.complete(key, payload)
                ledger.flush(force=False)
            if progress is not None:
                progress(note)
            if error is not None and policy.on_error == "raise":
                _raise_job_error(error)
    ledger.flush()
    return ledger.records(), ledger.report(workers=1)


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: None | str | Path | ResultCache = None,
    progress: Callable[[str], None] | None = None,
    policy: JobPolicy | None = None,
    checkpoint: None | str | Path = None,
    checkpoint_meta: Mapping[str, object] | None = None,
) -> list[AnyRecord]:
    """Like :func:`run_jobs_report`, returning only the records."""
    records, _ = run_jobs_report(
        jobs,
        workers=workers,
        cache=cache,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
        checkpoint_meta=checkpoint_meta,
    )
    return records


# --------------------------------------------------------------------------
# artifacts


def error_row(error: JobError) -> dict[str, object]:
    """Flat artifact row for one failed job (``status="error"``)."""
    return {
        "status": "error",
        "benchmark": error.benchmark,
        "error_type": error.error_type,
        "error_message": error.message,
        "attempts": error.attempts,
        "seconds": round(error.seconds, 3),
        "config_key": error.key,
    }


def write_artifacts(
    name: str,
    records: Sequence[AnyRecord],
    out_dir: str | Path,
    *,
    text: str | None = None,
    metadata: Mapping[str, object] | None = None,
    errors: Sequence[JobError] | None = None,
) -> dict[str, Path]:
    """Write ``<out_dir>/<name>.json`` and ``.csv`` (and ``.txt`` if given).

    The JSON artifact holds one flat row per record (stored fields plus the
    derived paper metrics) under a small metadata header; the CSV holds the
    same rows with a stable column order (core fields first, then the union
    of extra keys, sorted).  ``errors`` (failed jobs' :class:`JobError`
    records) land in the JSON document's ``errors`` list and as
    ``status="error"`` rows at the bottom of the CSV, so a partially failed
    sweep is visible in the artifacts instead of silently shrunken.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [dict(record_row(record), status="ok") for record in records]
    error_rows = [error_row(error) for error in (errors or ())]

    json_path = out / f"{name}.json"
    document = {
        "experiment": name,
        "cache_version": CACHE_VERSION,
        **(dict(metadata) if metadata else {}),
        "records": rows,
        "errors": [asdict(error) for error in (errors or ())],
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=False)
        handle.write("\n")

    core = [
        "benchmark",
        "architecture",
        "num_data_qubits",
        "num_physical_qubits",
        "compilers",
        "reference",
        "baseline_depth",
        "mech_depth",
        "depth_improvement",
        "baseline_eff_cnots",
        "mech_eff_cnots",
        "eff_cnots_improvement",
        "normalized_depth",
        "normalized_eff_cnots",
        "highway_qubit_fraction",
        "baseline_seconds",
        "mech_seconds",
        "status",
    ]
    all_rows = rows + error_rows
    present = {key for row in all_rows for key in row}
    # keep the stable core order but only emit columns some row actually has:
    # a two-backend sweep keeps the historic header verbatim, an N-way sweep
    # gets its per-backend columns without a block of empty legacy cells
    core_present = [column for column in core if column in present or column == "status"]
    extra_columns = sorted(present - set(core))
    columns = core_present + extra_columns
    csv_path = out / f"{name}.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns, restval="")
        writer.writeheader()
        for row in all_rows:
            writer.writerow(row)

    paths = {"json": json_path, "csv": csv_path}
    if text is not None:
        txt_path = out / f"{name}.txt"
        txt_path.write_text(text + ("\n" if not text.endswith("\n") else ""), encoding="utf-8")
        paths["txt"] = txt_path
    return paths
