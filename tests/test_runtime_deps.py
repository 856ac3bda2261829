"""The compile path imports the standard library only.

scipy and networkx are test-time oracles, and numpy is needed only by the
statevector simulator; loading any of them at start-up would cost every
fresh process (each CLI call, server and worker) a large import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str, **env_overrides: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_overrides)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_entry_points_import_neither_scipy_nor_networkx():
    code = (
        "import sys, repro.cli, repro.serve.server, repro.farm.worker;"
        " print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'networkx')))"
    )
    assert run_python(code) == "[]"


def test_verified_compiles_of_every_benchmark_and_backend_stay_numpy_free():
    code = """
import sys
import repro.cli, repro.serve.server, repro.farm.worker
from repro.backends import available_backends
from repro.experiments.engine import Job, run_jobs_report
from repro.perf.bench import measure_calibration

jobs = [
    Job(benchmark=name, structure="square", chiplet_width=4, rows=1, cols=2,
        compilers=tuple(available_backends()))
    for name in ("QFT", "QAOA", "VQE", "BV")
]
records, report = run_jobs_report(jobs)
assert len(records) == 4 and not report.errors, report
assert measure_calibration(repeats=1) > 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy", "networkx")))
"""
    assert run_python(code, REPRO_VERIFY="1") == "[]"
