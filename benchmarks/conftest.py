"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures through the
orchestration engine at a reduced ("small") scale by default so the whole
suite finishes in minutes; pass ``--repro-scale medium`` (or ``paper``) to run
closer to the paper's settings (the paper itself reports hundreds of CPU hours
for the full sweep).  The scale tiers are the engine's shared presets
(:data:`repro.experiments.engine.SCALE_TIERS`) — each experiment module maps
them onto its own device sweep, so the benchmarks carry no per-benchmark
ad-hoc settings.

More knobs plumb straight into the engine:

* ``--repro-jobs N`` fans each regeneration out over N worker processes;
* ``--repro-cache-dir PATH`` enables the on-disk result cache.  Off by
  default: a warm cache would make ``pytest-benchmark`` time cache lookups
  instead of compilations;
* ``--repro-timeout SECONDS`` / ``--repro-retries N`` / ``--repro-on-error
  {raise,skip,record}`` build the engine's :class:`JobPolicy` — useful at
  ``--repro-scale paper`` where one straggler baseline compilation would
  otherwise block a whole overnight benchmark run.  The default policy
  (``raise``) matches the historic fail-fast behaviour;
* ``--repro-checkpoint-dir PATH`` writes a resumable
  ``<experiment>.checkpoint.json`` per benchmark.  An interrupted overnight
  run (given ``--repro-cache-dir``) can then be finished with
  ``repro resume PATH/<experiment>.checkpoint.json`` — only the jobs that
  never completed execute;
* ``--repro-compilers a,b,c`` compares N registered compiler backends
  (reference first) instead of the default baseline-vs-MECH pair, exactly
  like ``repro run --compilers``.

Each benchmark prints the regenerated table so the numbers land in the
benchmark log, and reports the end-to-end wall time of one full regeneration
through ``pytest-benchmark`` (a single round — compilation is deterministic
and slow, so repeated rounds would only waste time).
"""

from pathlib import Path

import pytest

from repro.experiments.engine import SCALE_TIERS, JobPolicy


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        action="store",
        default="small",
        choices=list(SCALE_TIERS),
        help="Engine scale preset for the reproduction benchmarks.",
    )
    parser.addoption(
        "--repro-jobs",
        action="store",
        type=int,
        default=1,
        help="Worker processes per experiment regeneration (engine --jobs).",
    )
    parser.addoption(
        "--repro-cache-dir",
        action="store",
        default=None,
        help="Optional on-disk result cache shared across benchmark runs.",
    )
    parser.addoption(
        "--repro-timeout",
        action="store",
        type=float,
        default=None,
        help="Per-job wall-clock timeout in seconds (engine --timeout).",
    )
    parser.addoption(
        "--repro-retries",
        action="store",
        type=int,
        default=0,
        help="Extra attempts for a failed job (engine --retries).",
    )
    parser.addoption(
        "--repro-on-error",
        action="store",
        default="raise",
        choices=list(JobPolicy.ON_ERROR_CHOICES),
        help="Failed-job disposition (engine --on-error; default raise).",
    )
    parser.addoption(
        "--repro-checkpoint-dir",
        action="store",
        default=None,
        help="Directory for resumable <experiment>.checkpoint.json files"
        " (resume an interrupted benchmark with `repro resume`).",
    )
    parser.addoption(
        "--repro-compilers",
        action="store",
        default=None,
        help="Comma-separated registered compiler backends to compare"
        " (reference first; engine --compilers, default baseline,mech;"
        " see `repro compilers`).",
    )


@pytest.fixture(scope="session")
def repro_scale(request):
    return request.config.getoption("--repro-scale")


@pytest.fixture(scope="session")
def engine_opts(request):
    """Keyword arguments forwarded to every ``run_experiment`` call."""
    opts = {
        "workers": request.config.getoption("--repro-jobs"),
        "cache": request.config.getoption("--repro-cache-dir"),
    }
    timeout = request.config.getoption("--repro-timeout")
    retries = request.config.getoption("--repro-retries")
    on_error = request.config.getoption("--repro-on-error")
    if timeout is not None or retries or on_error != "raise":
        opts["policy"] = JobPolicy(timeout=timeout, retries=retries, on_error=on_error)
    compilers = request.config.getoption("--repro-compilers")
    if compilers is not None:
        opts["compilers"] = [name.strip() for name in compilers.split(",") if name.strip()]
    return opts


@pytest.fixture(scope="session")
def checkpoint_for(request):
    """``name -> checkpoint path`` (or None when no checkpoint dir is given).

    Threads ``--repro-checkpoint-dir`` into each ``run_experiment`` call's
    ``checkpoint`` argument so interrupted benchmark sweeps are resumable.
    """
    checkpoint_dir = request.config.getoption("--repro-checkpoint-dir")

    def _path(name):
        if checkpoint_dir is None:
            return None
        return str(Path(checkpoint_dir) / f"{name}.checkpoint.json")

    return _path


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
