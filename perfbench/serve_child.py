"""The serve-mixed workload's compile server, run as a child process.

Usage: ``python3 perfbench/serve_child.py CACHE_DIR``.  Prints
``{"port": N}`` once listening and ``{"peak_rss_mb": X}`` after a shutdown
request has stopped it.
"""

from __future__ import annotations

import json
import resource
import sys

from repro.experiments.engine import ResultCache
from repro.serve.server import CompileServer


def main(argv: list[str]) -> int:
    server = CompileServer(workers=2, cache=ResultCache(argv[1])).start()
    print(json.dumps({"port": server.port}), flush=True)
    server.serve_forever()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
