"""Process plumbing, set-up probes, run context and the result line."""

from __future__ import annotations

import json
import os
import platform
import resource
import select
import subprocess
import sys
import time
from collections.abc import Mapping, Sequence
from pathlib import Path

from .stats import median

__all__ = [
    "ROOT",
    "OUT_DIR",
    "Child",
    "child_env",
    "import_seconds",
    "peak_rss_mb",
    "run_context",
    "setup_seconds",
    "write_result",
]

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Fresh processes per set-up or import probe; the median is reported.
PROBE_REPEATS = 5
#: Longest a child may take to report readiness or to exit.
CHILD_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


class Child:
    """A child Python process that reports on stdout, one JSON object a line.

    As a context manager it waits for the child to exit, or kills it when
    the block raised.
    """

    def __init__(self, args: Sequence[str]) -> None:
        # unbuffered, so select() sees every byte the child has written
        self.proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=ROOT,
            bufsize=0,
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if exc_type is not None:
            self.kill()
        else:
            self.close()

    def kill(self) -> None:
        self.proc.kill()
        self.close()

    def read(self, timeout: float = CHILD_TIMEOUT_S) -> dict:
        """The next JSON line the child prints."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise TimeoutError(f"child {self.proc.args} sent nothing for {timeout:g}s")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"child {self.proc.args} exited with {self.proc.wait()}")
            if line.startswith(b"{"):
                return json.loads(line)

    def close(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        """Wait for the child to exit, killing it past ``timeout``."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()


def setup_seconds(workload: str, seed: int, scratch: Path) -> list[float]:
    """Process start until the first job could start, in fresh processes.

    Each probe runs ``setup_probe.py``: interpreter start, imports, the job
    list and the result-cache open, timed from spawn to its ready line.
    """
    samples = []
    for index in range(PROBE_REPEATS):
        start = time.perf_counter()
        probe = ROOT / "perfbench" / "setup_probe.py"
        with Child([str(probe), workload, str(seed), str(scratch / f"probe-{index}")]) as child:
            child.read()
            samples.append(time.perf_counter() - start)
    return samples


def import_seconds() -> float:
    """Median wall of ``import repro.cli`` in a fresh interpreter."""
    code = (
        "import json, time; t = time.perf_counter(); import repro.cli;"
        " print(json.dumps({'s': time.perf_counter() - t}))"
    )
    samples = []
    for _ in range(PROBE_REPEATS):
        with Child(["-c", code]) as child:
            samples.append(child.read()["s"])
    return median(samples)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str | None:
    # the ceiling keeps git from looking for a repository above the root
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def run_context() -> dict[str, object]:
    """Where the run happened; recorded to diagnose noisy sets, never used to
    rescale a metric."""
    import numpy

    from repro.perf.bench import measure_calibration

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "calibration_s": measure_calibration(),
    }


def write_result(
    name: str,
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Mapping[str, tuple[float, str]],
    report: Mapping[str, tuple[float, str]],
    notes: Sequence[str],
    document: Mapping[str, object],
) -> None:
    """Print the report and, as the last line, the result JSON.

    ``metrics`` go into the result line; ``report`` holds further figures
    printed with them (workload-specific metrics and layer figures that the
    result line cannot carry for every workload).
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.json"
    full = {
        **document,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
        "notes": list(notes),
    }
    path.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    for key, (value, unit) in {**metrics, **report}.items():
        print(f"{key:32s} {value:>16.6g} {unit}")
    for note in notes:
        print(note)
    print(f"result document: {path.relative_to(ROOT)}")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line), flush=True)
