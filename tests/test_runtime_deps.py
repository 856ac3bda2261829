"""The runtime imports numpy and the standard library only.

scipy and networkx are test-time oracles; loading either at start-up would
cost every fresh process (each CLI call, server and worker) a large import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def test_entry_points_import_neither_scipy_nor_networkx():
    code = (
        "import sys, repro.cli, repro.serve.server, repro.farm.worker;"
        " print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
