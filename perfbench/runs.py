"""The two workloads, each as an untraced measurement and a traced run.

An untraced run returns the end-to-end metrics; a traced run replays the
workload's jobs through :mod:`perfbench.layers` with spans on and returns
the per-layer metrics.  Both return a :class:`Outcome`; every output is
checked against the pinned reference.
"""

from __future__ import annotations

import gc
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.engine import (
    Job,
    ResultCache,
    record_to_payload,
    run_jobs_report,
    write_artifacts,
)
from repro.experiments.runner import CompiledSet
from repro.serve.client import ServeClient
from repro.serve.state import DeviceState

from . import common
from .layers import build_device, replay_job, replay_engine_pass, verify_compiled
from .reference import Reference
from .spans import Span, Tracer, covered_ns, self_times_ns
from .stats import median, tail
from .workloads import (
    job_label,
    serve_mixed_stream,
    serve_requests,
    serve_warmup_jobs,
    sweep_cache_jobs,
    sweep_passes,
)

__all__ = ["MEASURE", "TRACE", "Outcome"]

Metrics = dict[str, tuple[float, str]]

#: Requests in the traced serve-mixed stream.
TRACE_SERVE_REQUESTS = 400
#: Pings timed for ``serve.ping_rtt_ms``.
TRACE_PINGS = 20
#: Chunks in which a traced run alternates the engine and the replay.
TRACE_CHUNKS = 8


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: Metrics = field(default_factory=dict)
    report: Metrics = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tracer: Tracer | None = None

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# ---------------------------------------------------------------------------
# shared pieces


def _check(reference: Reference, outcome: Outcome, label: str, payload: dict) -> None:
    problem = reference.check(label, payload)
    if problem is not None:
        outcome.problems.append(problem)


def _quality(payloads: dict[str, dict]) -> Metrics:
    """The paper's quality numbers, summed over distinct jobs."""
    return {
        name: (float(sum(p[name] for p in payloads.values())), "count")
        for name in ("mech_depth", "mech_eff_cnots", "baseline_depth", "baseline_eff_cnots")
    }


def _latency(outcome: Outcome, samples_s: Sequence[float], what: str) -> None:
    outcome.metrics["latency_p50_ms"] = (median(samples_s) * 1e3, "ms")
    found = tail(samples_s)
    if found is None:
        outcome.notes.append(
            f"latency_tail_ms: none ({len(samples_s)} {what}; no percentile has"
            f" 10 samples beyond it)"
        )
        return
    outcome.report["latency_tail_ms"] = (found.value * 1e3, "ms")
    outcome.notes.append(
        f"latency_tail_ms is p{found.percentile:g} of {found.samples} {what}"
        f" ({found.beyond} beyond it)"
    )


def _progress_timer(samples: list[float]) -> Callable[[str], None]:
    """A ``progress`` callback appending the interval since the last call."""
    mark = [time.perf_counter()]

    def progress(_message: str) -> None:
        now = time.perf_counter()
        samples.append(now - mark[0])
        mark[0] = now

    return progress


def _finish(outcome: Outcome, setup: Sequence[float], peak_mb: float, wall: float) -> None:
    outcome.metrics["setup_s"] = (median(setup), "s")
    outcome.metrics["peak_rss_mb"] = (peak_mb, "MiB")
    outcome.report["fail_ratio"] = (outcome.failed / max(1, outcome.attempted), "ratio")
    outcome.report["timed_wall_s"] = (wall, "s")


def _engine_pass(jobs: Sequence[Job], **kwargs) -> tuple[dict[str, float], dict[str, dict]]:
    """One untraced ``run_jobs_report`` pass: per-job wall and payloads by label.

    In-process runs execute pending jobs in first-appearance order and call
    ``progress`` once per job, so the intervals line up with the unique jobs.
    """
    intervals: list[float] = []
    records, report = run_jobs_report(jobs, workers=1, progress=_progress_timer(intervals), **kwargs)
    unique = list({job_label(job): job for job in jobs})
    payloads = {job_label(job): record_to_payload(r) for job, r in zip(jobs, records, strict=True)}
    return dict(zip(unique, intervals, strict=True)), payloads


def _engine_beside_replay(
    jobs: Sequence[Job], tracer: Tracer, scratch: Path
) -> tuple[dict[str, float], list[tuple[str, dict]]]:
    """Run the untraced engine and the traced replay over the same chunk of
    jobs back to back, alternating which goes first, so that host speed drift
    between the two stays within one chunk.  Each has a result cache under
    ``scratch``, where every job misses and then puts.

    Returns the engine's per-job wall by label and every payload, engine's
    and replay's, as ``(label, payload)`` pairs.
    """
    size = max(1, len(jobs) // TRACE_CHUNKS)
    walls: dict[str, float] = {}
    payloads: list[tuple[str, dict]] = []
    for index, start in enumerate(range(0, len(jobs), size)):
        chunk = jobs[start : start + size]

        def engine(chunk=chunk, index=index) -> None:
            chunk_walls, chunk_payloads = _engine_pass(
                chunk,
                cache=ResultCache(scratch / "engine-cache"),
                checkpoint=scratch / f"engine-{index}.checkpoint.json",
            )
            walls.update(chunk_walls)
            payloads.extend(chunk_payloads.items())

        def replay(chunk=chunk) -> None:
            chunk_payloads = replay_engine_pass(tracer, chunk, scratch / "replay-cache", None)
            payloads.extend(chunk_payloads.items())

        for step in (engine, replay) if index % 2 == 0 else (replay, engine):
            gc.collect()
            step()
    return walls, payloads


def _job_coverage(tracer: Tracer, extra: Sequence[str] = ()) -> dict[str, int]:
    """Per job label: how much of the job the layer spans cover (ns).

    Covered time is the union of the job span's children plus any top-level
    spans named in ``extra`` for the same job (the cache put follows the
    compile in the engine's per-job step).
    """
    children: dict[int, list[Span]] = {}
    for span in tracer.spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    covered: dict[str, int] = {}
    for span in tracer.spans:
        if span.name == "job":
            covered[span.job] = covered.get(span.job, 0) + covered_ns(
                span, children.get(span.id, ())
            )
        elif span.name in extra and span.parent is None:
            covered[span.job] = covered.get(span.job, 0) + span.duration_ns
    return covered


def _sum_s(tracer: Tracer, name: str, arg: str | None = None) -> float:
    spans = tracer.named(name)
    if arg is None:
        return sum(span.duration_ns for span in spans) / 1e9
    return float(sum(span.args.get(arg, 0.0) for span in spans))


def _median_of(tracer: Tracer, name: str, scale: float) -> float:
    durations = tracer.durations_ns(name)
    return median(durations) / scale if durations else 0.0


def _layer_metrics(tracer: Tracer, outcome: Outcome) -> None:
    """Per-layer figures every workload's replay produces."""
    m = outcome.metrics
    m["hardware.array_ms"] = (_median_of(tracer, "hardware.array", 1e6), "ms")
    m["highway.layout_ms"] = (_median_of(tracer, "highway.layout", 1e6), "ms")
    m["programs.build_ms"] = (_median_of(tracer, "programs.build", 1e6), "ms")
    m["backends.configure_ms"] = (_median_of(tracer, "backends.configure", 1e6), "ms")
    m["baseline.compile_s"] = (_sum_s(tracer, "baseline.compile"), "s")
    m["baseline.route_s"] = (_sum_s(tracer, "baseline.compile", "phase_route_s"), "s")
    m["baseline.simulate_s"] = (_sum_s(tracer, "baseline.compile", "phase_simulate_s"), "s")
    m["compiler.compile_s"] = (_sum_s(tracer, "compiler.compile"), "s")
    m["compiler.layout_s"] = (_sum_s(tracer, "compiler.compile", "phase_layout_s"), "s")
    m["compiler.schedule_s"] = (_sum_s(tracer, "compiler.compile", "phase_schedule_s"), "s")
    m["metrics.eval_s"] = (_sum_s(tracer, "metrics.eval"), "s")
    m["experiments.payload_us"] = (_median_of(tracer, "experiments.payload", 1e3), "us")
    m["analysis.verify_s"] = (_sum_s(tracer, "analysis.verify"), "s")
    for name, self_ns in sorted(self_times_ns(tracer.spans).items()):
        outcome.report[f"self.{name}_ms"] = (self_ns / 1e6, "ms")


class _Verifier:
    """Verifies each compiled job as soon as it is replayed, recording the
    verify spans in ``tracer``.  Kept alive for a later check, every compiled
    circuit would grow the heap and slow the replays that follow."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.rejected: dict[str, dict[str, list[str]]] = {}

    def __call__(self, label: str, compiled: CompiledSet) -> None:
        found = verify_compiled(self.tracer, label, compiled)
        if found:
            self.rejected[label] = found


def _trace_common(
    outcome: Outcome,
    tracer: Tracer,
    reference: Reference,
    rejected: dict[str, dict[str, list[str]]],
    traced_wall: float,
    untraced_wall: float,
) -> None:
    outcome.metrics["cli.import_s"] = (common.import_seconds(), "s")
    outcome.problems.extend(
        f"unexpected verifier rejection: {r}" for r in reference.unexpected_rejections(rejected)
    )
    count = sum(len(by_backend) for by_backend in rejected.values())
    outcome.metrics["analysis.rejected"] = (float(count), "count")
    outcome.notes.extend(
        f"known verifier rejection: {label} {backend}: {codes}"
        for label, by_backend in sorted(rejected.items())
        for backend, codes in sorted(by_backend.items())
    )
    outcome.metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    outcome.report["trace.traced_wall_s"] = (traced_wall, "s")
    outcome.report["trace.untraced_wall_s"] = (untraced_wall, "s")
    _layer_metrics(tracer, outcome)
    outcome.tracer = tracer


def _coverage_metrics(
    outcome: Outcome, covered: dict[str, int], walls_s: dict[str, float], overhead: bool
) -> None:
    labels = [label for label in walls_s if label in covered]
    total_wall = sum(walls_s[label] for label in labels)
    total_covered = sum(covered[label] for label in labels) / 1e9
    outcome.metrics["trace.span_coverage"] = (total_covered / total_wall, "ratio")
    if overhead:
        outcome.report["experiments.engine_overhead_ms"] = (
            median([walls_s[label] - covered[label] / 1e9 for label in labels]) * 1e3,
            "ms",
        )


def _check_pass(outcome: Outcome, reference: Reference, jobs, records, report, payloads) -> None:
    """Tally one engine pass and check every record it returned."""
    outcome.attempted += report.total
    outcome.failed += report.failed
    for job, record in zip(jobs, records, strict=True):
        payloads[job_label(job)] = payload = record_to_payload(record)
        _check(reference, outcome, job_label(job), payload)


def _paired_replay(
    jobs: Sequence[Job], tracer: Tracer, verifier: _Verifier, state_for=None
) -> tuple[float, float, dict[str, dict]]:
    """Replay each job four times back to back, untraced, traced, traced,
    untraced (every other job the other way round), then verify it.  The
    mirrored order cancels the host speed drift between replays, and turning
    it round cancels what the first replay after a collection pays; either
    would otherwise swamp the tracing overhead.

    Returns (traced wall, untraced wall, payloads by label); each wall covers
    two replays of every job.
    """
    off = Tracer(enabled=False)
    walls = {True: 0.0, False: 0.0}
    payloads = {}
    for index, job in enumerate(jobs):
        state = state_for(job) if state_for is not None else None
        gc.collect()  # no job pays for the garbage of the one before
        # the second traced replay records into a tracer of its own, so
        # ``tracer`` holds exactly one replay of each job
        order = (off, tracer, Tracer(), off) if index % 2 == 0 else (tracer, off, off, Tracer())
        for run_tracer in order:
            start = time.perf_counter()
            compiled, payload = replay_job(run_tracer, job, state=state)
            walls[run_tracer.enabled] += time.perf_counter() - start
        payloads[job_label(job)] = payload
        verifier(job_label(job), compiled)
    return walls[True], walls[False], payloads


def _warm_up(job: Job) -> None:
    """Compile one job untraced: the process's first compile pays one-time
    costs that would otherwise land in the engine pass's first job."""
    replay_job(Tracer(enabled=False), job)


# ---------------------------------------------------------------------------
# sweep-cache


def _sweep_engine_pass(
    jobs: Sequence[Job], scratch: Path, tag: str, latencies: list[float] | None
) -> tuple[list, object]:
    """One engine pass against ``scratch/cache-<tag>``: run_jobs_report, then
    the artifacts."""
    progress = _progress_timer(latencies) if latencies is not None else None
    records, report = run_jobs_report(
        jobs,
        workers=1,
        cache=ResultCache(scratch / f"cache-{tag}"),
        progress=progress,
        checkpoint=scratch / f"sweep-{tag}.checkpoint.json",
    )
    write_artifacts("sweep-cache", records, scratch / f"artifacts-{tag}", errors=report.errors)
    return records, report


def measure_sweep_cache(seed: int, seconds: float, scratch: Path, reference: Reference) -> Outcome:
    outcome = Outcome()
    setup = common.setup_seconds("sweep-cache", seed, scratch)
    jobs = sweep_cache_jobs(seed)
    cold_passes, warm_passes = sweep_passes(seconds)
    latencies: list[float] = []
    payloads: dict[str, dict] = {}
    walls = {"cold": 0.0, "warm": 0.0}
    for index in range(cold_passes + warm_passes):
        phase = "cold" if index < cold_passes else "warm"
        tag = str(min(index, cold_passes - 1))  # warm passes reuse the last cold cache
        gc.collect()  # no pass pays for the previous one's garbage
        start = time.perf_counter()
        records, report = _sweep_engine_pass(
            jobs, scratch, tag, latencies if phase == "cold" else None
        )
        walls[phase] += time.perf_counter() - start
        expected_hits = report.total if phase == "warm" else 0
        if report.cache_hits != expected_hits:
            outcome.problems.append(
                f"pass {index}: {report.cache_hits} cache hits, expected {expected_hits}"
            )
        _check_pass(outcome, reference, jobs, records, report, payloads)
    outcome.metrics["jobs_per_s"] = (cold_passes * len(jobs) / walls["cold"], "1/s")
    outcome.report["warm_jobs_per_s"] = (warm_passes * len(jobs) / walls["warm"], "1/s")
    _latency(outcome, latencies, "cold jobs")
    outcome.metrics.update(_quality(payloads))
    _finish(outcome, setup, common.peak_rss_mb(), walls["cold"] + walls["warm"])
    outcome.notes.append(
        f"{cold_passes} cold passes of {len(jobs)} jobs in {walls['cold']:.2f}s,"
        f" {warm_passes} warm passes in {walls['warm']:.2f}s"
    )
    return outcome


def trace_sweep_cache(seed: int, seconds: float, scratch: Path, reference: Reference) -> Outcome:
    outcome = Outcome()
    jobs = sweep_cache_jobs(seed)
    _warm_up(jobs[0])
    tracer = Tracer()
    engine_walls, payloads = _engine_beside_replay(jobs, tracer, scratch)
    warm = replay_engine_pass(tracer, jobs, scratch / "replay-cache", scratch / "replay-warm")
    verifier = _Verifier(tracer)
    traced, untraced, paired = _paired_replay(jobs, Tracer(), verifier)
    for label, payload in [*payloads, *warm.items(), *paired.items()]:
        _check(reference, outcome, label, payload)
    outcome.attempted = 7 * len(jobs)  # engine, cold and warm replays, 4 paired
    covered = _job_coverage(tracer, extra=("experiments.cache_put",))
    _coverage_metrics(outcome, covered, engine_walls, overhead=True)
    gets = [span.args["hit"] for span in tracer.named("experiments.cache_get")]
    outcome.metrics["experiments.cache_hit_ratio"] = (sum(gets) / len(gets), "ratio")
    _serve_counters(outcome, 0, 0, 0)
    r = outcome.report
    r["experiments.plan_ms"] = (_median_of(tracer, "experiments.plan", 1e6), "ms")
    r["experiments.cache_get_us"] = (_median_of(tracer, "experiments.cache_get", 1e3), "us")
    r["experiments.cache_put_us"] = (_median_of(tracer, "experiments.cache_put", 1e3), "us")
    r["experiments.artifacts_ms"] = (_median_of(tracer, "experiments.artifacts", 1e6), "ms")
    _trace_common(outcome, tracer, reference, verifier.rejected, traced, untraced)
    return outcome


# ---------------------------------------------------------------------------
# serve-mixed


class _Server:
    """The compile server child process and its set-up timing."""

    def __init__(self, cache_dir: Path) -> None:
        start = time.perf_counter()
        self.child = common.Child([str(common.ROOT / "perfbench" / "serve_child.py"), str(cache_dir)])
        try:
            self.port = int(self.child.read()["port"])
            with self.client() as client:
                if not client.ping().ok:
                    raise RuntimeError("compile server did not answer ping")
        except BaseException:
            self.child.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def client(self) -> ServeClient:
        return ServeClient("127.0.0.1", self.port, timeout=120.0).connect()

    def stop(self) -> float:
        """Shut the server down; returns its peak RSS in MiB."""
        with self.child:
            with self.client() as client:
                client.shutdown_server()
            return float(self.child.read()["peak_rss_mb"])


def _start_server(scratch: Path, probes: int) -> tuple[_Server, list[float]]:
    """Start the server ``probes`` times (the set-up samples); keep the last.

    The kept server has every resident device built by one warm-up compile
    per device, outside the request stream.
    """
    samples = []
    for index in range(probes):
        server = _Server(scratch / f"serve-cache-{index}")
        samples.append(server.setup_s)
        if index < probes - 1:
            server.stop()
    with server.client() as client:
        for job in serve_warmup_jobs():
            if not client.compile_job(job).ok:
                server.stop()
                raise RuntimeError(f"warm-up compile of {job_label(job)} failed")
    return server, samples


@dataclass
class _Reply:
    job: Job
    first: bool
    ok: bool
    cached: bool
    rtt_s: float
    payload: dict | None


def _run_stream(server: _Server, streams, tracer: Tracer) -> tuple[list[_Reply], float]:
    """Each client thread sends its sequence closed-loop; returns the replies
    and the wall from the common start to the last reply."""
    replies: list[list[_Reply]] = [[] for _ in streams]
    clients = [server.client() for _ in streams]
    barrier = threading.Barrier(len(streams) + 1)
    errors: list[Exception] = []

    def client_loop(index: int) -> None:
        seen: set[Job] = set()
        out = replies[index]
        barrier.wait()
        try:
            for job in streams[index]:
                first = job not in seen
                seen.add(job)
                kind = "compile" if first else "hit"
                with tracer.span("serve.request", job_label(job), kind=kind):
                    start = time.perf_counter()
                    response = clients[index].compile_job(job)
                    rtt = time.perf_counter() - start
                payload = response.payload if response.ok else None
                out.append(
                    _Reply(job, first, response.ok, bool(payload and payload.get("cached")),
                           rtt, payload and payload.get("result"))
                )
        except Exception as exc:  # re-raised by the caller after join
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(len(streams))]
    for thread in threads:
        thread.start()
    gc.collect()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    for client in clients:
        client.close()
    if errors:
        raise errors[0]
    return [reply for per_client in replies for reply in per_client], wall


def _check_replies(outcome: Outcome, reference: Reference, replies: list[_Reply]) -> dict:
    """Reference counts for every reply and the designed hit/compile split."""
    payloads = {}
    for reply in replies:
        outcome.attempted += 1
        if not reply.ok:
            outcome.failed += 1
            continue
        if reply.cached == reply.first:
            outcome.problems.append(
                f"{job_label(reply.job)}: {'hit' if reply.cached else 'compile'} where a"
                f" {'compile' if reply.first else 'hit'} was designed"
            )
        payloads[job_label(reply.job)] = reply.payload
        _check(reference, outcome, job_label(reply.job), reply.payload)
    return payloads


def _check_stats(outcome: Outcome, before: dict, after: dict, stream) -> tuple[int, int]:
    """(hits, compiles) the server counted between two stats snapshots,
    checked against the stream's designed split."""
    hits = after["cache_hits"] - before["cache_hits"]
    compiles = after["compiles"] - before["compiles"] - hits
    if (hits, compiles) != (stream.hits, stream.compiles):
        outcome.problems.append(
            f"server counted {hits} hits and {compiles} compiles,"
            f" the stream has {stream.hits} and {stream.compiles}"
        )
    return hits, compiles


def measure_serve_mixed(seed: int, seconds: float, scratch: Path, reference: Reference) -> Outcome:
    outcome = Outcome()
    stream = serve_mixed_stream(seed, serve_requests(seconds))
    server, setup = _start_server(scratch, common.PROBE_REPEATS)
    try:
        with server.client() as client:
            before = client.stats()
        replies, wall = _run_stream(server, stream.clients, Tracer(enabled=False))
        with server.client() as client:
            _check_stats(outcome, before, client.stats(), stream)
    finally:
        peak = server.stop()
    payloads = _check_replies(outcome, reference, replies)
    outcome.metrics["jobs_per_s"] = (len(replies) / wall, "1/s")
    _latency(outcome, [reply.rtt_s for reply in replies], "requests")
    outcome.metrics.update(_quality(payloads))
    _finish(outcome, setup, peak, wall)
    outcome.notes.append(
        f"{stream.requests} requests from 2 closed-loop clients:"
        f" {stream.compiles} compiles, {stream.hits} cache hits"
    )
    return outcome


def _serve_counters(outcome: Outcome, compiles: int, hits: int, devices: int) -> None:
    """Server counters (zero where the workload runs no server)."""
    outcome.metrics["serve.compiles"] = (float(compiles), "count")
    outcome.metrics["serve.cache_hits"] = (float(hits), "count")
    outcome.metrics["serve.warm_devices"] = (float(devices), "count")


def trace_serve_mixed(seed: int, seconds: float, scratch: Path, reference: Reference) -> Outcome:
    outcome = Outcome()
    stream = serve_mixed_stream(seed, TRACE_SERVE_REQUESTS)
    tracer = Tracer()
    server, _ = _start_server(scratch, 1)
    try:
        with server.client() as client:
            for _ in range(TRACE_PINGS):
                with tracer.span("serve.ping"):
                    client.ping()
            before = client.stats()
        replies, _ = _run_stream(server, stream.clients, tracer)
        with server.client() as client:
            after = client.stats()
    finally:
        outcome.report["serve.peak_rss_mb"] = (server.stop(), "MiB")
    hits, compiles = _check_stats(outcome, before, after, stream)
    _check_replies(outcome, reference, replies)
    _serve_counters(outcome, compiles, hits, after["warm_state"]["devices_resident"])
    outcome.metrics["experiments.cache_hit_ratio"] = (hits / len(replies), "ratio")

    # in-process replay of every first-time compile on warm device state
    states: dict[tuple, DeviceState] = {}
    for job in serve_warmup_jobs():
        label = job_label(job)
        with tracer.span("serve.state_build", label):
            states[job.structure, job.chiplet_width] = DeviceState.build(job)
        build_device(tracer, job, label)
    verifier = _Verifier(tracer)
    traced, untraced, payloads = _paired_replay(
        [reply.job for reply in replies if reply.first],
        tracer,
        verifier,
        state_for=lambda job: states[job.structure, job.chiplet_width],
    )
    for label, payload in payloads.items():
        _check(reference, outcome, label, payload)
    compile_rtt = {job_label(r.job): r.rtt_s for r in replies if r.first}
    covered = _job_coverage(tracer)
    _coverage_metrics(outcome, covered, compile_rtt, overhead=False)

    r = outcome.report
    r["serve.ping_rtt_ms"] = (_median_of(tracer, "serve.ping", 1e6), "ms")
    for kind in ("hit", "compile"):
        rtts = [s.duration_ns for s in tracer.named("serve.request") if s.args["kind"] == kind]
        r[f"serve.{kind}_rtt_ms"] = (median(rtts) / 1e6, "ms")
    replayed = [s.duration_ns for s in tracer.named("job")]
    r["serve.overhead_ms"] = (r["serve.compile_rtt_ms"][0] - median(replayed) / 1e6, "ms")
    r["serve.state_build_ms"] = (_median_of(tracer, "serve.state_build", 1e6), "ms")
    _trace_common(outcome, tracer, reference, verifier.rejected, traced, untraced)
    return outcome


MEASURE = {
    "sweep-cache": measure_sweep_cache,
    "serve-mixed": measure_serve_mixed,
}
TRACE = {
    "sweep-cache": trace_sweep_cache,
    "serve-mixed": trace_serve_mixed,
}
