"""Set-up probe: do a workload's set-up in a fresh process, then report ready.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED CACHE_DIR``.  The
parent times spawn to the ready line.
"""

from __future__ import annotations

import json
import sys

from repro.experiments.engine import ResultCache

from perfbench.workloads import sweep_cache_jobs


def main(argv: list[str]) -> int:
    seed, cache_dir = int(argv[2]), argv[3]
    jobs = sweep_cache_jobs(seed)
    ResultCache(cache_dir)
    print(json.dumps({"ready": len(jobs)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
