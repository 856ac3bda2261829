"""Regenerate ``reference.json``: compile and verify every job in the pools.

Usage (from the repository root; takes a few minutes on one core)::

    python3 perfbench/pin.py

Run it only when routing output is meant to change; the benchmark fails on
any count that differs from the pinned file.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.experiments.engine import Job  # noqa: E402

from perfbench.layers import replay_job, verify_compiled  # noqa: E402
from perfbench.reference import REFERENCE_PATH, counts  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    BENCHMARKS,
    SEED_POOL,
    SERVE_DEVICES,
    STRUCTURES,
    job_label,
)


def pool() -> list[Job]:
    jobs = {}
    devices = [(structure, 4) for structure in STRUCTURES] + list(SERVE_DEVICES)
    for structure, width in devices:
        for benchmark in BENCHMARKS:
            for seed in range(SEED_POOL):
                job = Job(benchmark, structure=structure, chiplet_width=width, rows=1, cols=2,
                          seed=seed)
                jobs[job_label(job)] = job
    return list(jobs.values())


def main() -> int:
    tracer = Tracer(enabled=False)
    jobs = pool()
    pinned: dict[str, dict[str, float]] = {}
    rejected: dict[str, dict[str, list[str]]] = {}
    start = time.perf_counter()
    for index, job in enumerate(jobs, start=1):
        label = job_label(job)
        compiled, payload = replay_job(tracer, job)
        pinned[label] = counts(payload)
        found = verify_compiled(tracer, label, compiled)
        if found:
            rejected[label] = found
        if index % 100 == 0:
            print(f"{index}/{len(jobs)} jobs, {time.perf_counter() - start:.0f}s", flush=True)
    document = {"jobs": dict(sorted(pinned.items())), "verifier_rejected": dict(sorted(rejected.items()))}
    REFERENCE_PATH.write_text(json.dumps(document, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned)} jobs, {len(rejected)} with known verifier rejections")
    return 0


if __name__ == "__main__":
    sys.exit(main())
