"""What each entry point imports.

The compile path imports the standard library only: scipy and networkx are
test-time oracles, and numpy is needed only by the statevector simulator;
loading any of them at start-up would cost every fresh process (each CLI
call, server and worker) a large import.

A process that never compiles (a cached run, a client, the CLI itself)
imports no compiler either, and a process that forks compile workers loads
the compile path before the fork.  Each case runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


#: Package prefixes of the compile path.
COMPILE_PATH = (
    "repro.analysis",
    "repro.backends.builtin",
    "repro.baseline",
    "repro.circuits",
    "repro.compiler",
    "repro.highway",
    "repro.programs",
)

LOADED_COMPILE_PATH = (
    "import sys; print(sorted(m for m in sys.modules"
    f" if m.startswith({COMPILE_PATH!r})))"
)

@pytest.mark.parametrize(
    "module", ["repro.experiments.engine", "repro.serve.client", "repro.cli"]
)
def test_entry_points_import_no_compiler(module):
    assert run_python(f"import {module}; {LOADED_COMPILE_PATH}") == "[]"


def test_farm_coordinator_imports_no_compiler():
    # its record type is an annotation and device_key lives in the engine
    code = (
        "import sys, repro.farm.coordinator;"
        " print(sorted(m for m in sys.modules if m.startswith("
        "('repro.compiler', 'repro.baseline', 'repro.experiments.runner'))))"
    )
    assert run_python(code) == "[]"


def test_fig15_job_list_imports_no_compiler():
    # the circuit width comes from the highway layouts, not a compiler
    code = (
        "import sys; from repro.experiments.fig15_highway_density import jobs_for_fig15;"
        " assert jobs_for_fig15(scale='small');"
        " print(sorted(m for m in sys.modules if m.startswith('repro.compiler')))"
    )
    assert run_python(code) == "[]"


def test_cached_run_and_artifacts_import_no_compiler(tmp_path):
    code = f"""
from repro.experiments.engine import Job, run_jobs_report, write_artifacts

jobs = [Job("BV", structure="square", chiplet_width=3, rows=1, cols=2, seed=seed)
        for seed in (0, 1)]
records, report = run_jobs_report(jobs, cache={str(tmp_path / "cache")!r})
write_artifacts("sweep", records, {str(tmp_path / "artifacts")!r})
print(report.cache_hits)
{LOADED_COMPILE_PATH}
"""
    assert run_python(code).splitlines()[0] == "0"  # the first run compiles
    assert run_python(code).splitlines() == ["2", "[]"]
    assert (tmp_path / "artifacts" / "sweep.json").exists()


def test_in_process_run_loads_the_lease_queue_alone(tmp_path):
    # the queue needs no wire code; a fully cached run does not load it
    code = f"""
import sys
from repro.experiments.engine import Job, run_jobs_report

jobs = [Job("BV", structure="square", chiplet_width=3, rows=1, cols=2)]
run_jobs_report(jobs, cache={str(tmp_path / "cache")!r})
print(sorted(m for m in sys.modules if m.startswith(("repro.farm", "repro.serve"))))
"""
    assert run_python(code) == "['repro.farm', 'repro.farm.queue']"
    assert run_python(code) == "[]"


#: Modules a sweep's set-up never needs: opening a cache touches no disk.
DEFERRED = (
    "csv",
    "repro.chaos",
    "repro.experiments.execute",
    "repro.experiments.ledger",
    "repro.experiments.records",
    "signal",
    "sqlite3",
    "traceback",
)

LOADED_DEFERRED = (
    "import sys; print(sorted(m for m in sys.modules"
    f" if m.startswith({DEFERRED!r})))"
)


def test_sweep_setup_loads_only_jobs_and_the_cache(tmp_path):
    # what perfbench's set-up probe does before it reports ready
    code = f"""
from repro.experiments.engine import Job, ResultCache
ResultCache({str(tmp_path / "cache")!r})
{LOADED_DEFERRED}
"""
    assert run_python(code) == "[]"


def test_cache_stats_loads_neither_the_run_loop_nor_the_executors(tmp_path):
    code = f"""
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["cache-stats", "--cache-dir", {str(tmp_path / "cache")!r}]) == 0
print(sorted(m for m in sys.modules
             if m in ("repro.experiments.ledger", "repro.experiments.execute")))
"""
    assert run_python(code) == "[]"


def test_cached_run_does_not_load_the_executors(tmp_path):
    code = f"""
import sys
from repro.experiments.engine import Job, run_jobs_report
_, report = run_jobs_report([Job("BV", chiplet_width=3)], cache={str(tmp_path / "cache")!r})
print(report.cache_hits, "repro.experiments.execute" in sys.modules)
"""
    assert run_python(code) == "0 True"  # the first run executes
    assert run_python(code) == "1 False"


def test_run_without_chaos_loads_no_chaos_runtime(tmp_path):
    # the cache put, the checkpoint write and the job hook all stay unloaded
    code = f"""
import sys
from repro.experiments.engine import Job, run_jobs_report
run_jobs_report([Job("BV", chiplet_width=3)], cache={str(tmp_path / "cache")!r},
                checkpoint={str(tmp_path / "run.checkpoint.json")!r})
print(sorted(m for m in sys.modules if m.startswith("repro.chaos.")))
"""
    assert run_python(code, REPRO_CHAOS="") == "[]"
    assert run_python(code, REPRO_CHAOS="seed:1") == "['repro.chaos.inject', 'repro.chaos.plan']"


#: ``repro.experiments.engine.__all__`` before the engine was split by concern.
ENGINE_API = (
    "CACHE_VERSION", "CHECKPOINT_VERSION", "SCALE_TIERS", "VERIFY_ENV", "Checkpoint",
    "CheckpointError", "ExecutionPlan", "FarmAbortedError", "Job", "JobError",
    "JobExecutionError", "JobPolicy", "JobTimeoutError", "ResultCache", "RunLedger",
    "RunReport", "append_journal", "checkpoint_document", "config_key", "error_row",
    "job_from_dict", "job_to_dict", "journal_path_for", "load_checkpoint",
    "load_compile_path", "noise_from_items", "noise_to_items", "plan_jobs", "plan_summary",
    "quarantine_checkpoint", "quarantine_path_for", "read_journal", "repair_journal",
    "record_from_payload", "record_to_payload", "record_row", "run_jobs", "run_jobs_report",
    "set_warm_state_provider", "write_artifacts",
)


def test_engine_keeps_every_public_name():
    code = f"""
import importlib, json
from repro.experiments import engine
homes = {{}}
for name in {ENGINE_API!r}:
    home = importlib.import_module(engine._EXPORTS[name], "repro.experiments")
    assert home.__name__ != engine.__name__, name
    namespace = {{}}
    exec(f"from repro.experiments.engine import {{name}} as value", namespace)
    assert namespace["value"] is getattr(home, name), name
    assert getattr(engine, name) is getattr(home, name), name
    homes[name] = home.__name__
assert set(engine.__all__) == set(engine._EXPORTS) >= set({ENGINE_API!r})
print(json.dumps(sorted(set(homes.values()))))
"""
    assert json.loads(run_python(code)) == [
        f"repro.experiments.{name}"
        for name in ("artifacts", "cache", "execute", "jobs", "ledger", "plan", "policy", "records")
    ]


LAZY_ROOTS = (
    "repro",
    "repro.backends",
    "repro.experiments",
    "repro.farm",
    "repro.hardware",
    "repro.serve",
)


def test_lazy_roots_keep_their_api():
    code = f"""
import importlib, json
checked = 0
for root in {LAZY_ROOTS!r}:
    package = importlib.import_module(root)
    names = [name for name in package.__all__ if name != "__version__"]
    assert set(names) == set(package._EXPORTS), root
    assert set(package.__all__) <= set(dir(package)), root
    for name in names:
        home = importlib.import_module(package._EXPORTS[name], root)
        namespace = {{}}
        exec(f"from {{root}} import {{name}} as value", namespace)
        assert getattr(package, name) is getattr(home, name), (root, name)
        assert namespace["value"] is getattr(home, name), (root, name)
        checked += 1
    try:
        package.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError(root + " resolved an unknown name")
print(json.dumps(checked))
"""
    assert json.loads(run_python(code)) > 100


def test_compile_server_loads_the_compile_path_before_forking():
    code = """
import json, sys
from repro.serve.server import CompileServer

server = CompileServer(workers=1)
before = "repro.backends.builtin" in sys.modules
server.start()
try:
    print(json.dumps([before, sorted(sys.modules)]))
finally:
    server.shutdown()
"""
    before, loaded = json.loads(run_python(code))
    assert before is False
    for module in (
        "repro.backends.builtin",
        "repro.baseline.sabre",
        "repro.compiler.mech",
        "repro.experiments.runner",
        "repro.programs",
    ):
        assert module in loaded
