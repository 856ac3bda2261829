"""Seeded inputs of the two workloads.

Every job seed is drawn from ``range(SEED_POOL)``, so every input any
``--seed`` can produce has its swaps, depth and eff-CNOT counts pinned in
``reference.json``.

Why these workloads:

* ``sweep-cache`` — 256 small jobs over all four coupling structures, cold
  (miss then put) and then warm (all hits): per-job fixed costs and the
  result cache.
* ``serve-mixed`` — two closed-loop clients against the compile server:
  three quarters cache hits bound by transport, one quarter first-time
  compiles on warm device state.

Together they run every layer.  There is no third workload of large devices
(SABRE routing is already half of a sweep-cache compile): on a shared 2-core
host a run's throughput follows the host's speed, which drifts by tens of
percent within a minute, so runs must be long to average it, and the time
one benchmark may take leaves room for two long workloads, not three.

Run lengths are sized from ``--seconds`` with the nominal per-unit costs
below (measured on a 2-core x86-64 container), so one ``--seconds`` value
always gives the same amount of work and the same sample counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.experiments.engine import Job

__all__ = [
    "HIT_REPEATS",
    "SERVE_DEVICES",
    "ServeStream",
    "WORKLOADS",
    "job_label",
    "serve_mixed_stream",
    "serve_requests",
    "serve_warmup_jobs",
    "sweep_cache_jobs",
    "sweep_passes",
]

WORKLOADS = ("sweep-cache", "serve-mixed")

STRUCTURES = ("square", "hexagon", "heavy_square", "heavy_hexagon")
BENCHMARKS = ("QFT", "QAOA", "VQE", "BV")
SEED_POOL = 64
SWEEP_SEEDS_PER_CELL = 16

#: The serve-mixed server's resident devices (structure, chiplet width), all
#: 1x2 arrays: two small and one medium.
SERVE_DEVICES = (("square", 4), ("hexagon", 4), ("square", 5))
#: Cache-hit repeats per first-time compile in the serve stream (3 -> 75 %
#: hits, far from one half so p50 sits in the hit mode, the tail in compiles).
HIT_REPEATS = 3

SWEEP_COLD_PASS_SECONDS = 9.5
SWEEP_WARM_PASS_SECONDS = 0.085
SWEEP_COLD_SHARE = 0.85
SERVE_REQUESTS_PER_SECOND = 35.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def job_label(job: Job) -> str:
    """Readable identity of a job's inputs; the key of ``reference.json``."""
    return (
        f"{job.structure}/w{job.chiplet_width}/{job.rows}x{job.cols}"
        f"/{job.benchmark}/s{job.seed}"
    )


def sweep_cache_jobs(seed: int) -> list[Job]:
    rng = _rng("sweep-cache", seed)
    jobs = [
        Job(benchmark, structure=structure, chiplet_width=4, rows=1, cols=2, seed=job_seed)
        for structure in STRUCTURES
        for benchmark in BENCHMARKS
        for job_seed in rng.sample(range(SEED_POOL), SWEEP_SEEDS_PER_CELL)
    ]
    rng.shuffle(jobs)
    return jobs


def sweep_passes(seconds: float) -> tuple[int, int]:
    """(cold passes, warm passes) for a run of ``seconds``."""
    cold = max(1, round(seconds * SWEEP_COLD_SHARE / SWEEP_COLD_PASS_SECONDS))
    warm = max(1, round(seconds * (1.0 - SWEEP_COLD_SHARE) / SWEEP_WARM_PASS_SECONDS))
    return cold, warm


@dataclass(frozen=True)
class ServeStream:
    """Per-client request sequences; clients own disjoint sets of jobs."""

    clients: tuple[tuple[Job, ...], ...]
    compiles: int
    hits: int

    @property
    def requests(self) -> int:
        return self.compiles + self.hits


def serve_requests(seconds: float) -> int:
    return max(400, round(seconds * SERVE_REQUESTS_PER_SECOND))


def serve_mixed_stream(seed: int, requests: int, clients: int = 2) -> ServeStream:
    """A closed-loop request stream of about ``requests`` requests.

    Distinct jobs are spread evenly over every (device, benchmark) cell and
    dealt round-robin to the clients, so no two clients ever ask for the same
    job: each job's first request is the one compile of it and each of its
    repeats is a cache hit, whatever the interleaving.
    """
    rng = _rng("serve-mixed", seed)
    cells = [(s, w, b) for s, w in SERVE_DEVICES for b in BENCHMARKS]
    distinct = max(clients, requests // (1 + HIT_REPEATS))
    if distinct > len(cells) * SEED_POOL:
        raise ValueError(f"{requests} requests need more distinct jobs than the pool holds")
    jobs = []
    for index, (structure, width, benchmark) in enumerate(cells):
        count = distinct // len(cells) + (1 if index < distinct % len(cells) else 0)
        for job_seed in rng.sample(range(SEED_POOL), count):
            jobs.append(
                Job(benchmark, structure=structure, chiplet_width=width, rows=1, cols=2,
                    seed=job_seed)
            )
    rng.shuffle(jobs)
    streams = []
    for owned in (jobs[index::clients] for index in range(clients)):
        sequence: list[Job] = []
        for count, job in enumerate(owned, start=1):
            sequence.append(job)
            sequence.extend(owned[rng.randrange(count)] for _ in range(HIT_REPEATS))
        streams.append(tuple(sequence))
    return ServeStream(tuple(streams), compiles=len(jobs), hits=HIT_REPEATS * len(jobs))


def serve_warmup_jobs() -> list[Job]:
    """One job per resident device, seeded outside the pool, built in set-up."""
    return [
        Job("BV", structure=structure, chiplet_width=width, rows=1, cols=2, seed=SEED_POOL)
        for structure, width in SERVE_DEVICES
    ]
