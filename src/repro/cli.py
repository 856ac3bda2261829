"""``python -m repro`` / ``repro`` — unified experiment-orchestration CLI.

Runs any of the paper's figures/tables through the orchestration engine::

    repro run fig12 --scale small --jobs 4
    repro run table2 fig16 --benchmarks BV QFT --out-dir artifacts
    repro run table2 --compilers baseline,mech,sabre-x   # N-way comparison
    repro run fig12 --timeout 3600 --retries 1 --on-error record
    repro run fig12 --dry-run            # what would execute?  (--json for machines)
    repro resume artifacts/fig12.checkpoint.json
    repro resume artifacts/fig12.checkpoint.json --only-failed
    repro compilers                      # registered compiler backends (--json)
    repro bench --quick                  # pinned perf suite -> BENCH_<ts>.json
    repro bench --quick --backends all   # sweep every registered backend
    repro bench --suite fig12 --against artifacts/BENCH_20260730-120000.json
    repro bench --history benchmarks/history   # trends over accumulated docs
    repro verify --suite quick           # static IR verification of every backend
    repro run fig12 --verify             # verify each fresh compilation in-line
    repro serve --port 7463              # warm-state compile server (repro.serve)
    repro submit --port 7463 --benchmark QFT --chiplet-width 5 --rows 1 --cols 2
    repro submit --port 7463 --suite quick --concurrency 4
    repro submit --port 7463 --shutdown  # graceful server stop (--ping, --stats)
    repro bench --latency --quick        # cold vs warm serve-path p50/p99 gate
    repro farm run table2 --local-workers 2      # coordinator + leased workers
    repro farm run fig12 --worker-command 'ssh node{index} ...'   # remote workers
    repro farm-worker --connect 127.0.0.1:7464   # join an existing coordinator
    repro list
    repro cache-stats [--json]           # size/health + hit-rate telemetry
    repro cache-stats --rank access      # the daemon's exact eviction order
    repro clean-cache --older-than 30    # TTL sweep (add --dry-run to preview)
    repro clean-cache --watch --interval 300 --max-mb 512   # eviction daemon

Every run memoizes its per-job results in an on-disk cache (default
``.repro-cache/``, sharded by config-hash prefix), so re-running an
experiment — or running a different experiment that shares cells with a
previous one — only compiles what is missing.  Each experiment emits
``<name>.json`` / ``<name>.csv`` / ``<name>.txt`` artifacts plus a
``<name>.checkpoint.json`` progress file into the output directory (default
``artifacts/``).  Failed jobs (``--timeout`` exceeded, compiler crash) are
retried ``--retries`` times and then, under the default ``--on-error
record``, reported as error rows in the artifacts while every healthy job
still completes; the exit code is 1 when any job failed.

Execution is incremental: ``repro run --dry-run`` prints the exact
cached/pending/failed plan a real run would execute (compiling nothing), and
``repro resume <checkpoint>`` finishes an interrupted or partially failed
sweep from its checkpoint file alone — the serialized job list is
re-hydrated, completed jobs are served from the cache, only the remainder
executes, and the merged artifacts match an uninterrupted run's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from collections.abc import Sequence

from .backends import DEFAULT_COMPILERS, available_backends, backend_descriptions
from .chaos import CHAOS_ENV, ChaosSpecError, chaos_controller
from .experiments.engine import (
    SCALE_TIERS,
    VERIFY_ENV,
    Checkpoint,
    CheckpointError,
    FarmAbortedError,
    JobPolicy,
    ResultCache,
    RunReport,
    journal_path_for,
    load_checkpoint,
    plan_jobs,
    plan_summary,
    repair_journal,
    run_jobs_report,
    write_artifacts,
)
from .experiments.engine import config_key
from .experiments.registry import (
    EXPERIMENTS,
    build_experiment_jobs,
    experiment_meta,
    plan_experiment,
    run_experiment,
)
from .experiments.runner import AnyRecord, format_failed_rows, normalize_compilers
from .experiments.settings import BENCHMARK_NAMES

__all__ = ["main", "build_parser"]

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_OUT_DIR = "artifacts"
#: Default TCP port of the ``repro serve`` / ``repro submit`` pair.
DEFAULT_SERVE_PORT = 7463

#: Seconds per day, for ``clean-cache --older-than DAYS``.
_DAY_SECONDS = 86400.0


def _add_cache_options(
    parser: argparse.ArgumentParser, *, default_dir: str | None = DEFAULT_CACHE_DIR
) -> None:
    if default_dir is not None:
        dir_help = f"result-cache directory (default {default_dir})"
    else:
        dir_help = (
            "result-cache directory (default: the cache dir recorded in the"
            f" checkpoint, falling back to {DEFAULT_CACHE_DIR})"
        )
    parser.add_argument("--cache-dir", default=default_dir, help=dir_help)
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="LRU size cap for the result cache (least-recently-used entries"
        " are evicted once the cache grows past this; default unlimited)",
    )


def _add_policy_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout (per attempt; default none)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="extra attempts for a failed job (default 0)",
    )
    parser.add_argument(
        "--reseed-on-retry",
        action="store_true",
        help="bump the job seed on each retry (the result keeps the original cache key)",
    )
    parser.add_argument(
        "--on-error",
        choices=list(JobPolicy.ON_ERROR_CHOICES),
        default="record",
        help="what to do when a job exhausts its attempts: abort the sweep"
        " (raise), drop the job (skip), or keep sweeping and emit a JobError"
        " row in the artifacts (record; default)",
    )


def _add_worker_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (0 = one per CPU; default 1)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="regenerate one or more figures/tables through the engine",
        description="Regenerate experiments; results are cached per job config hash.",
    )
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"experiments to run: {', '.join(sorted(EXPERIMENTS))}",
    )
    run.add_argument("--scale", default="small", choices=list(SCALE_TIERS))
    run.add_argument(
        "--benchmarks",
        nargs="*",
        default=list(BENCHMARK_NAMES),
        metavar="NAME",
        help=f"benchmark programs (default: {' '.join(BENCHMARK_NAMES)})",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--compilers",
        default=",".join(DEFAULT_COMPILERS),
        metavar="A,B[,C...]",
        help="comma-separated registered compiler backends to compare, the"
        " first being the reference for improvement ratios (default"
        f" {','.join(DEFAULT_COMPILERS)}; see `repro compilers` for the registry)",
    )
    _add_worker_options(run)
    _add_cache_options(run)
    run.add_argument(
        "--out-dir",
        default=DEFAULT_OUT_DIR,
        help=f"artifact directory (default {DEFAULT_OUT_DIR})",
    )
    _add_policy_options(run)
    run.add_argument(
        "--verify",
        action="store_true",
        help="statically verify every freshly compiled result (hardware"
        " legality, semantic preservation, highway-protocol invariants,"
        " metric consistency); a verification failure fails the job through"
        " the normal --on-error path.  Cache hits are served unverified —"
        " they were checked when first computed",
    )
    run.add_argument(
        "--dry-run",
        action="store_true",
        help="plan only: diff the expanded jobs against the cache and print"
        " what a run would do (cached/pending/failed) without executing"
        " anything or writing artifacts",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="with --dry-run, print the plan as a JSON document",
    )

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted or partially failed run from its checkpoint file",
        description="Re-hydrate the serialized job list of a <name>.checkpoint.json"
        " (no experiment re-expansion), execute only the jobs that never"
        " completed (completed jobs are cache hits), and write the merged"
        " artifacts exactly as the uninterrupted run would have.",
    )
    resume.add_argument(
        "checkpoint",
        metavar="CHECKPOINT",
        help="path to the <name>.checkpoint.json written by a previous run",
    )
    _add_worker_options(resume)
    _add_cache_options(resume, default_dir=None)
    resume.add_argument(
        "--out-dir",
        default=None,
        help="artifact directory (default: the checkpoint's own directory)",
    )
    _add_policy_options(resume)
    resume.add_argument(
        "--dry-run",
        action="store_true",
        help="plan only: print what the resume would execute and exit",
    )
    resume.add_argument(
        "--json",
        action="store_true",
        help="with --dry-run, print the plan as a JSON document",
    )
    resume.add_argument(
        "--only-failed",
        action="store_true",
        help="re-execute only the checkpoint's failed jobs (plus cached"
        " completions for the artifacts); jobs that never started are"
        " dropped from this resume and from the rewritten checkpoint",
    )

    sub.add_parser("list", help="list the available experiments and scale tiers")

    bench = sub.add_parser(
        "bench",
        help="compile a pinned workload suite per backend and track wall-clock",
        description="Run the pinned compile workloads of a bench suite with"
        " every requested backend, print the timing table and write a"
        " BENCH_<timestamp>.json document.  With --against FILE the run is"
        " compared to a previous document (old timings rescaled by the"
        " recorded machine-calibration ratio) and the exit code is 1 when the"
        " geometric-mean wall-clock regresses beyond --max-regression or a"
        " matched row's swaps, depth or eff-CNOTs differ.  With"
        " --history DIR no compilation happens at all: every accumulated"
        " BENCH_*.json under DIR is analysed into per-backend trend series"
        " and a TREND_<timestamp>.json report, exiting 1 when any backend's"
        " wall-clock drifted beyond --max-drift since the previous document.",
    )
    bench.add_argument(
        "--suite",
        default="quick",
        choices=["quick", "fig12", "full"],
        help="pinned workload suite (default quick; fig12 = the paper's"
        " large 7x7-chiplet scalability presets)",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="alias for --suite quick (the CI smoke tier)",
    )
    bench.add_argument(
        "--compilers",
        "--backends",
        dest="compilers",
        default=",".join(DEFAULT_COMPILERS),
        metavar="A,B[,C...]",
        help="registered compiler backends to benchmark — one name, a"
        " comma list, or the sentinel 'all' for the whole registry (default"
        f" {','.join(DEFAULT_COMPILERS)})",
    )
    bench.add_argument(
        "--repeat",
        type=int,
        default=3,
        metavar="N",
        help="compile each workload N times and keep the fastest (default 3:"
        " one-off stalls in a ~30 ms compile would otherwise trip --against)",
    )
    bench.add_argument(
        "--out-dir",
        default=DEFAULT_OUT_DIR,
        help=f"directory for the BENCH_*.json document (default {DEFAULT_OUT_DIR})",
    )
    bench.add_argument(
        "--against",
        metavar="FILE",
        default=None,
        help="compare this run against a previous BENCH_*.json document;"
        " any change in a matched row's swaps, depth or eff-CNOTs fails the run",
    )
    bench.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        metavar="FRACTION",
        help="with --against, fail (exit 1) when the geometric-mean"
        " wall-clock grows by more than this fraction (default 0.25)",
    )
    bench.add_argument(
        "--history",
        metavar="DIR",
        default=None,
        help="analyse every BENCH_*.json under DIR into a per-backend trend"
        " report instead of compiling anything (writes TREND_*.json to"
        " --out-dir)",
    )
    bench.add_argument(
        "--max-drift",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="with --history, fail (exit 1) when any backend's geomean"
        " wall-clock grew by more than this fraction since the previous"
        " document (default 0.5)",
    )
    bench.add_argument(
        "--verify",
        action="store_true",
        help="statically verify every compiled result; rows gain"
        " verified/violations columns and the exit code is 1 when any"
        " compilation has violations",
    )
    bench.add_argument(
        "--json",
        action="store_true",
        help="print the bench document (and comparison) as JSON",
    )
    bench.add_argument("--quiet", action="store_true", help="suppress progress output")
    latency = bench.add_argument_group(
        "latency mode (--latency)",
        "serve-path latency suite: cold one-shot-process requests vs warm"
        " requests against an in-process compile server, p50/p99 under"
        " concurrent load, written as LATENCY_<timestamp>.json.  Exit code 1"
        " when the warm/cold p50 ratio exceeds --max-warm-ratio, the"
        " concurrent warm p99 exceeds --max-p99, or served results are not"
        " byte-identical to the batch path.",
    )
    latency.add_argument(
        "--latency",
        action="store_true",
        help="measure serve-path latency instead of compile throughput",
    )
    latency.add_argument(
        "--requests",
        type=int,
        default=8,
        metavar="N",
        help="warm requests per workload, measured serially and concurrently"
        " (default 8)",
    )
    latency.add_argument(
        "--concurrency",
        type=int,
        default=4,
        metavar="N",
        help="client threads (and server workers) for the concurrent warm"
        " phase (default 4)",
    )
    latency.add_argument(
        "--cold-requests",
        type=int,
        default=2,
        metavar="N",
        help="cold one-shot-process requests per workload (default 2)",
    )
    latency.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="only measure the first N workloads of the suite (CI smoke)",
    )
    latency.add_argument(
        "--max-warm-ratio",
        type=float,
        default=0.75,
        metavar="RATIO",
        help="fail (exit 1) when warm p50 / cold p50 exceeds RATIO"
        " (default 0.75; the acceptance target is 0.5)",
    )
    latency.add_argument(
        "--max-p99",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) when the concurrent warm p99 exceeds SECONDS"
        " (default: no absolute bound)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the warm-state compile server (pair with `repro submit`)",
        description="Serve compile requests over a local TCP socket.  Cache"
        " hits are answered by the server itself; misses go to forked"
        " compile worker processes over the farm's lease queue, each keeping"
        " per-device routing state (chiplet array, highway layout, router"
        " distance tables) resident between requests.  Requests execute"
        " through the engine's own job machinery, so served results carry"
        " the same cache keys and payloads as `repro run` and share its"
        " result cache.  Stop with `repro submit --shutdown` or Ctrl-C.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVE_PORT,
        help=f"TCP port; 0 binds an ephemeral port (default {DEFAULT_SERVE_PORT})",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="compile worker processes, forked at start (default 2)",
    )
    serve.add_argument(
        "--max-devices",
        type=int,
        default=8,
        metavar="N",
        help="distinct device configurations each worker keeps warm (LRU; default 8)",
    )
    _add_cache_options(serve)
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job wall-clock timeout for served compiles"
        " (requests may override; default none)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="default extra attempts for a failed served job, including one"
        " whose worker died mid-compile (default 0)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress startup/shutdown output")

    submit = sub.add_parser(
        "submit",
        help="submit compile jobs (or ping/stats/shutdown) to a running server",
        description="Client for `repro serve`.  Submit one job described by"
        " the device flags, or a whole pinned bench suite with --suite;"
        " responses print as a per-compiler metric table (--json for the raw"
        " responses).  --ping, --stats and --shutdown are control operations"
        " and take no job flags.",
    )
    submit.add_argument("--host", default="127.0.0.1", help="server address (default 127.0.0.1)")
    submit.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVE_PORT,
        help=f"server TCP port (default {DEFAULT_SERVE_PORT})",
    )
    submit.add_argument(
        "--ping",
        action="store_true",
        help="liveness check: exit 0 once the server answers (retries briefly)",
    )
    submit.add_argument("--stats", action="store_true", help="print server/warm-state counters")
    submit.add_argument("--shutdown", action="store_true", help="stop the server gracefully")
    submit.add_argument(
        "--suite",
        default=None,
        choices=["quick", "fig12", "full"],
        help="submit every workload of a pinned bench suite instead of one"
        " job from the device flags",
    )
    submit.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="with --suite, only submit the first N workloads",
    )
    submit.add_argument("--benchmark", default="QFT", help="benchmark circuit (default QFT)")
    submit.add_argument("--structure", default="square", help="chiplet structure (default square)")
    submit.add_argument("--chiplet-width", type=int, default=5, help="qubits per chiplet edge")
    submit.add_argument("--rows", type=int, default=1, help="chiplet rows (default 1)")
    submit.add_argument("--cols", type=int, default=2, help="chiplet columns (default 2)")
    submit.add_argument(
        "--highway-density", type=int, default=1, help="highway lines per chiplet (default 1)"
    )
    submit.add_argument("--seed", type=int, default=0, help="job seed (default 0)")
    submit.add_argument(
        "--compilers",
        default=",".join(DEFAULT_COMPILERS),
        metavar="A,B[,C...]",
        help="registered compiler backends to compare, at least two"
        f" (default {','.join(DEFAULT_COMPILERS)})",
    )
    submit.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="N",
        help="parallel client connections for multi-job submissions (default 1)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job wall-clock timeout applied by the server (default:"
        " the server's own default policy)",
    )
    submit.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-dial socket timeout when (re)connecting (default 5)",
    )
    submit.add_argument(
        "--max-connect-seconds",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="total wall-clock budget for connect retries, with capped"
        " exponential backoff (default 15)",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the raw serve responses as JSON",
    )

    verify = sub.add_parser(
        "verify",
        help="statically verify compiled circuits: topology, semantics,"
        " highway protocol, metrics",
        description="Compile every workload of a pinned suite with the"
        " requested backends and run the static circuit-IR verifier"
        " (repro.analysis) over each result: every emitted 2-qubit gate must"
        " be hardware-legal, the routed circuit must be a"
        " dependency-preserving reordering of the input modulo commutation"
        " with movement elided, the highway protocol's"
        " establishment/occupancy/commutation invariants must hold, and the"
        " reported stats must match recomputation.  Writes a VERIFY_*.json"
        " report document.  Exit code: 0 when every compilation verifies"
        " clean, 1 when any violation is found, 2 on usage errors.",
    )
    verify.add_argument(
        "--suite",
        default="quick",
        choices=["quick", "fig12", "full"],
        help="pinned workload suite to verify (default quick)",
    )
    verify.add_argument(
        "--compilers",
        "--backends",
        dest="compilers",
        default="all",
        metavar="A[,B...]",
        help="registered compiler backends to verify — one name, a comma"
        " list, or 'all' for the whole registry (default all)",
    )
    verify.add_argument(
        "--out-dir",
        default=DEFAULT_OUT_DIR,
        help=f"directory for the VERIFY_*.json report (default {DEFAULT_OUT_DIR})",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="print the verification report as JSON",
    )
    verify.add_argument("--quiet", action="store_true", help="suppress progress output")

    compilers = sub.add_parser(
        "compilers",
        help="list the registered compiler backends (repro run --compilers)",
    )
    compilers.add_argument(
        "--json",
        action="store_true",
        help="print the backend registry as a JSON document",
    )

    stats = sub.add_parser("cache-stats", help="summarise the result cache's size and health")
    stats.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the full stats document (per-entry access counts,"
        " hit-rate summary) as JSON",
    )
    stats.add_argument(
        "--rank",
        choices=["access"],
        default=None,
        help="print the access-ranked eviction order instead of the summary:"
        " exactly the order `clean-cache --max-mb` evicts in (fewest recorded"
        " hits first, ties broken by least-recent use, then by entry name)",
    )

    clean = sub.add_parser(
        "clean-cache",
        help="delete cached results: everything, or only entries older than a TTL",
    )
    clean.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    clean.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="only remove entries whose last use is older than DAYS days"
        " (default: remove everything)",
    )
    clean.add_argument(
        "--max-mb",
        type=float,
        default=None,
        metavar="MB",
        help="also evict access-ranked entries (fewest recorded hits first,"
        " least recently used breaking ties) until the cache fits under MB"
        " — `cache-stats --rank access` previews the exact order",
    )
    clean.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without deleting anything",
    )
    clean.add_argument(
        "--watch",
        action="store_true",
        help="run as an eviction daemon: repeat the sweep every --interval"
        " seconds until interrupted (SIGINT/SIGTERM exit cleanly)",
    )
    clean.add_argument(
        "--interval",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="sweep period for --watch (default 300)",
    )
    clean.add_argument(
        "--max-cycles",
        type=int,
        default=None,
        metavar="N",
        help="with --watch, exit after N sweep cycles (mainly for CI smoke runs)",
    )

    farm = sub.add_parser(
        "farm",
        help="distributed compile farm: coordinator + leased work-queue workers",
        description="Run an experiment across many worker processes/machines."
        " The coordinator plans against the shared cache (cached work is never"
        " dispatched), serves a lease-based work queue over the repro-serve"
        " wire protocol (v2), journals every state transition beside the"
        " checkpoint, and heals crashed workers by lease expiry. A crashed"
        " coordinator resumes with `repro resume <checkpoint>`.",
    )
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)
    farm_run = farm_sub.add_parser(
        "run",
        help="run one experiment through a coordinator plus launched workers",
    )
    farm_run.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help=f"experiment to run: {', '.join(sorted(EXPERIMENTS))}",
    )
    farm_run.add_argument(
        "--scale",
        default="small",
        choices=[*SCALE_TIERS, "smoke"],
        help="scale tier (smoke is an alias for small)",
    )
    farm_run.add_argument(
        "--benchmarks",
        nargs="*",
        default=list(BENCHMARK_NAMES),
        metavar="NAME",
        help=f"benchmark programs (default: {' '.join(BENCHMARK_NAMES)})",
    )
    farm_run.add_argument("--seed", type=int, default=0)
    farm_run.add_argument(
        "--compilers",
        default=",".join(DEFAULT_COMPILERS),
        metavar="A,B[,C...]",
        help="comma-separated compiler backends, reference first (default"
        f" {','.join(DEFAULT_COMPILERS)})",
    )
    farm_run.add_argument(
        "--local-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes to launch (default 2)",
    )
    farm_run.add_argument(
        "--worker-threads",
        type=int,
        default=1,
        metavar="N",
        help="executor threads inside each worker (default 1)",
    )
    farm_run.add_argument(
        "--worker-command",
        default=None,
        metavar="TEMPLATE",
        help="launch each worker with this shell command template instead of"
        " a forked local process; placeholders: {host} {port} {index} {workers}"
        " (e.g. 'ssh node{index} python -m repro farm-worker --connect"
        " {host}:{port} --workers {workers}')",
    )
    farm_run.add_argument("--host", default="127.0.0.1", help="coordinator bind address")
    farm_run.add_argument(
        "--port",
        type=int,
        default=0,
        help="coordinator TCP port (default 0: ephemeral)",
    )
    farm_run.add_argument(
        "--lease-seconds",
        type=float,
        default=15.0,
        metavar="S",
        help="lease/heartbeat horizon: a worker silent this long forfeits its"
        " jobs back to the queue (default 15)",
    )
    farm_run.add_argument(
        "--worker-log-dir",
        default=None,
        metavar="DIR",
        help="capture each local worker's output to DIR/worker-<i>.log",
    )
    _add_cache_options(farm_run)
    farm_run.add_argument(
        "--out-dir",
        default=DEFAULT_OUT_DIR,
        help=f"artifact directory (default {DEFAULT_OUT_DIR})",
    )
    _add_policy_options(farm_run)
    farm_run.add_argument("--quiet", action="store_true", help="suppress progress output")

    worker = sub.add_parser(
        "farm-worker",
        help="one farm worker: claim leases, execute, report (used by farm run)",
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address to join",
    )
    worker.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="executor threads in this worker process (default 1)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        metavar="ID",
        help="stable identity for leases/heartbeats (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--batch",
        type=int,
        default=None,
        metavar="N",
        help="max leases per claim (default: --workers)",
    )
    worker.add_argument(
        "--connect-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="per-dial socket timeout while waiting for the coordinator"
        " (default 2)",
    )
    worker.add_argument(
        "--max-connect-seconds",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="total wall-clock budget for the initial connect, with capped"
        " exponential backoff (default 30)",
    )
    worker.add_argument("--quiet", action="store_true", help="suppress progress output")

    return parser


def _cmd_list() -> int:
    width = max(len(name) for name in EXPERIMENTS)
    print("available experiments (python -m repro run <name> ...):")
    for name in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[name]
        print(f"  {name:<{width}}  {spec.title}  [scales: {', '.join(SCALE_TIERS)}]")
    return 0


def _cmd_compilers(as_json: bool) -> int:
    """List the backend registry (the golden-tested ``repro compilers``)."""
    descriptions = backend_descriptions()
    if as_json:
        document = {
            "compilers": [
                {"name": name, "description": descriptions[name]}
                for name in sorted(descriptions)
            ],
            "default": list(DEFAULT_COMPILERS),
        }
        print(json.dumps(document, indent=2))
        return 0
    width = max(len(name) for name in descriptions)
    print("registered compiler backends (repro run --compilers A,B[,C...]):")
    for name in sorted(descriptions):
        print(f"  {name:<{width}}  {descriptions[name]}")
    print(
        f"default comparison: {','.join(DEFAULT_COMPILERS)}"
        " (the first name is the reference)"
    )
    return 0


def _parse_compilers(value: str) -> list[str] | None:
    """Split/normalise a ``--compilers`` value; None signals a usage error.

    Registry membership is checked here (with the mirrored unknown-name
    error the experiment/benchmark validation uses); the shape rules — at
    least two names, no duplicates, case folding — are the library's own
    :func:`normalize_compilers`, so the CLI and the API cannot drift.
    """
    names = [part for part in value.split(",") if part.strip()]
    known = set(available_backends())
    bad = [name for name in (n.strip().lower() for n in names) if name not in known]
    if bad:
        print(
            f"error: unknown compiler(s) {', '.join(sorted(set(bad)))}; "
            f"choose from {', '.join(available_backends())}",
            file=sys.stderr,
        )
        return None
    try:
        return list(normalize_compilers(names))
    except ValueError as exc:
        print(f"error: --compilers: {exc}", file=sys.stderr)
        return None


def _parse_bench_backends(value: str) -> list[str] | None:
    """Split/normalise a bench ``--compilers``/``--backends`` value.

    Unlike :func:`_parse_compilers`, a bench sweep has no reference backend,
    so a single name is fine, and the sentinel ``all`` expands to the whole
    registry.  None signals a usage error (already printed).
    """
    names = [part.strip().lower() for part in value.split(",") if part.strip()]
    if names == ["all"]:
        return list(available_backends())
    known = set(available_backends())
    bad = [name for name in names if name not in known]
    if bad:
        print(
            f"error: unknown compiler(s) {', '.join(sorted(set(bad)))}; "
            f"choose from {', '.join(available_backends())} (or 'all')",
            file=sys.stderr,
        )
        return None
    if not names:
        print("error: --backends must name at least one backend", file=sys.stderr)
        return None
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        print(
            f"error: duplicate compiler(s) {', '.join(duplicates)} in --backends",
            file=sys.stderr,
        )
        return None
    return names


def _entry_word(count: int) -> str:
    return "entry" if count == 1 else "entries"


def _sweep_ttl(cache: ResultCache, args: argparse.Namespace) -> str:
    """One TTL pass; returns the human-readable outcome line."""
    result = cache.sweep_older_than(args.older_than * _DAY_SECONDS, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    return (
        f"{verb} {result['removed']} of {result['scanned']} cache"
        f" {_entry_word(result['scanned'])} older than {args.older_than:g}"
        f" day{'s' if args.older_than != 1 else ''}"
        f" ({result['freed_bytes'] / 1048576:.2f} MiB) from {args.cache_dir}"
    )


def _sweep_ranked(cache: ResultCache, args: argparse.Namespace) -> str:
    """One access-ranked eviction pass down to ``--max-mb``."""
    max_bytes = max(1, int(args.max_mb * 1048576))
    if args.dry_run:
        ranking = cache.eviction_ranking()
        total = sum(entry["bytes"] for entry in ranking)
        removed = freed = 0
        for entry in ranking:
            if total - freed <= max_bytes:
                break
            freed += entry["bytes"]
            removed += 1
        verb, kept = "would evict", total - freed
    else:
        result = cache.evict_ranked(max_bytes)
        removed, freed, kept = result["removed"], result["freed_bytes"], result["total_bytes"]
        verb = "evicted"
    return (
        f"{verb} {removed} access-ranked {_entry_word(removed)}"
        f" ({freed / 1048576:.2f} MiB) to fit {args.max_mb:g} MB;"
        f" {kept / 1048576:.2f} MiB kept in {args.cache_dir}"
    )


def _cmd_clean_cache(args: argparse.Namespace) -> int:
    if args.older_than is not None and not (args.older_than >= 0):
        # inverted so NaN fails the check too
        print("error: --older-than must be >= 0 days", file=sys.stderr)
        return 2
    if args.max_mb is not None and not (args.max_mb > 0):
        print("error: --max-mb must be positive", file=sys.stderr)
        return 2
    if args.max_cycles is not None and not args.watch:
        print("error: --max-cycles requires --watch", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir)

    if args.watch:
        if not (args.interval > 0):
            print("error: --interval must be positive", file=sys.stderr)
            return 2
        if args.dry_run:
            print("error: --watch performs real evictions; drop --dry-run", file=sys.stderr)
            return 2
        if args.older_than is None and args.max_mb is None:
            print(
                "error: --watch needs at least one policy:"
                " --older-than DAYS and/or --max-mb MB",
                file=sys.stderr,
            )
            return 2
        return _eviction_daemon(cache, args)

    if args.older_than is None and args.max_mb is None:
        # historic behaviour: a bare clean-cache empties the cache
        if args.dry_run:
            count = len(cache)
            print(f"would remove {count} cache {_entry_word(count)} from {args.cache_dir}")
            return 0
        removed = cache.clear()
        print(f"removed {removed} cache {_entry_word(removed)} from {args.cache_dir}")
        return 0
    if args.older_than is not None:
        print(_sweep_ttl(cache, args))
    if args.max_mb is not None:
        print(_sweep_ranked(cache, args))
    return 0


def _eviction_daemon(cache: ResultCache, args: argparse.Namespace) -> int:
    """``clean-cache --watch``: periodic TTL + access-ranked eviction.

    Runs until SIGINT/SIGTERM (clean exit) or ``--max-cycles`` sweeps — the
    latter is how CI exercises one daemon cycle against a shared cache.
    """
    import signal as _signal

    stop = {"flag": False}

    def _request_stop(signum: int, frame: object) -> None:
        stop["flag"] = True

    previous = {}
    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(_signal, signame, None)
        if signum is not None:
            try:
                previous[signum] = _signal.signal(signum, _request_stop)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
    policies = []
    if args.older_than is not None:
        policies.append(f"ttl {args.older_than:g}d")
    if args.max_mb is not None:
        policies.append(f"cap {args.max_mb:g}MB")
    print(
        f"eviction daemon on {args.cache_dir}: {', '.join(policies)},"
        f" every {args.interval:g}s"
        + (f", {args.max_cycles} cycle(s)" if args.max_cycles is not None else ""),
        file=sys.stderr,
    )
    cycles = 0
    try:
        while not stop["flag"]:
            stamp = time.strftime("%H:%M:%S")
            if args.older_than is not None:
                print(f"[{stamp}] {_sweep_ttl(cache, args)}")
            if args.max_mb is not None:
                print(f"[{stamp}] {_sweep_ranked(cache, args)}")
            cycles += 1
            if args.max_cycles is not None and cycles >= args.max_cycles:
                break
            deadline = time.monotonic() + args.interval
            while not stop["flag"] and time.monotonic() < deadline:
                time.sleep(min(0.2, args.interval))
    finally:
        for signum, handler in previous.items():
            try:
                _signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass
    print(f"eviction daemon stopped after {cycles} cycle(s)", file=sys.stderr)
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    if args.rank == "access":
        return _cmd_cache_rank(args)
    return _cache_stats_summary(args.cache_dir, args.json)


def _cmd_cache_rank(args: argparse.Namespace) -> int:
    """``cache-stats --rank access``: the daemon's exact eviction order."""
    ranking = ResultCache(args.cache_dir).eviction_ranking()
    if args.json:
        document = [
            {
                "rank": index + 1,
                "key": entry["key"],
                "hits": entry["hits"],
                "last_use": entry["last_use"],
                "bytes": entry["bytes"],
            }
            for index, entry in enumerate(ranking)
        ]
        print(json.dumps(document, indent=2))
        return 0
    if not ranking:
        print(f"cache {args.cache_dir}: empty (nothing to rank)")
        return 0
    total = sum(entry["bytes"] for entry in ranking)
    print(
        f"eviction order for {args.cache_dir} ({len(ranking)}"
        f" {_entry_word(len(ranking))}, {total / 1048576:.2f} MiB;"
        " evicted first at the top):"
    )
    print(f"  {'rank':>4}  {'key':<18} {'hits':>5}  {'last use':<19} {'KiB':>8}")
    for index, entry in enumerate(ranking, start=1):
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(entry["last_use"]))
        print(
            f"  {index:>4}  {entry['key'][:16] + '…':<18}"
            f" {entry['hits']:>5}  {stamp:<19} {entry['bytes'] / 1024:>8.1f}"
        )
    return 0


def _cache_stats_summary(cache_dir: str, as_json: bool = False) -> int:
    stats = ResultCache(cache_dir).stats()
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache {stats['cache_dir']}:")
    print(
        f"  entries:      {stats['entries']}"
        f" ({stats['total_bytes'] / 1048576:.2f} MiB in {stats['shards']} shards)"
    )
    print(f"  tmp litter:   {stats['tmp_files']}")
    print(f"  corrupt:      {stats['corrupt_entries']}")
    for label, mtime in (("oldest", stats["oldest_mtime"]), ("newest", stats["newest_mtime"])):
        if mtime is not None:
            stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(mtime))
            print(f"  {label}:       {stamp}")
    access = stats["access"]
    if access["recorded"]:
        rate = access["hit_rate"]
        print(
            f"  accesses:     {access['recorded']}"
            f" ({access['hits']} hits / {access['misses']} misses,"
            f" {rate:.1%} hit rate)"
        )
        for entry in access["top_entries"][:5]:
            print(f"    {entry['key'][:16]}…  {entry['hits']} hits")
    else:
        print("  accesses:     none recorded")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench import (
        compare_bench,
        format_bench,
        format_comparison,
        load_bench,
        run_bench,
        write_bench,
    )

    if args.latency:
        return _cmd_bench_latency(args)
    if args.history is not None:
        return _cmd_bench_history(args)
    if args.repeat < 1:
        print("error: --repeat must be at least 1", file=sys.stderr)
        return 2
    if not (args.max_regression >= 0):  # inverted so NaN fails too
        print("error: --max-regression must be >= 0", file=sys.stderr)
        return 2
    compilers = _parse_bench_backends(args.compilers)
    if compilers is None:
        return 2
    suite = "quick" if args.quick else args.suite
    baseline_doc = None
    if args.against is not None:
        try:
            baseline_doc = load_bench(args.against)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: --against: {exc}", file=sys.stderr)
            return 2

    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=sys.stderr))
    document = run_bench(
        suite,
        compilers=compilers,
        repeat=args.repeat,
        progress=progress,
        verify=args.verify,
    )
    path = write_bench(document, args.out_dir)
    dirty_rows = [row for row in document["rows"] if row.get("verified") is False]

    comparison = None
    if baseline_doc is not None:
        comparison = compare_bench(
            baseline_doc, document, max_regression=args.max_regression
        )
        if comparison["matched"] == 0:
            # a comparison that matches nothing must not pass as "no
            # regression" — that would silently disable the CI gate whenever
            # the suite's workloads or compiler list drift
            print(
                f"error: --against: no (workload, backend) rows in common with"
                f" {args.against}; unmatched: {', '.join(comparison['missing'][:6])}"
                f"{'...' if len(comparison['missing']) > 6 else ''}",
                file=sys.stderr,
            )
            return 2

    if args.json:
        payload = {"bench": document, "path": str(path)}
        if comparison is not None:
            payload["comparison"] = comparison
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_bench(document))
        print(f"bench document: {path}")
        if args.verify:
            if dirty_rows:
                for row in dirty_rows:
                    print(
                        f"VERIFY FAILED {row['workload']} [{row['backend']}]:"
                        f" {row['violations']} violation(s)",
                        file=sys.stderr,
                    )
            else:
                print(f"verify: all {len(document['rows'])} rows clean")
        if comparison is not None:
            print()
            print(format_comparison(comparison))
    if dirty_rows:
        return 1
    return 1 if comparison is not None and comparison["failed"] else 0


#: Version stamp of the VERIFY_*.json report document schema.
VERIFY_SCHEMA_VERSION = 1


def _cmd_verify(args: argparse.Namespace) -> int:
    """``repro verify``: compile a pinned suite and statically verify it."""
    from .analysis import format_report, report_from_dict
    from .perf.bench import BENCH_SEED, SUITES, write_document
    from .perf.workloads import compile_workload

    compilers = _parse_bench_backends(args.compilers)
    if compilers is None:
        return 2
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=sys.stderr))

    rows: list[dict[str, object]] = []
    dirty = 0
    for workload in SUITES[args.suite]:
        if progress is not None:
            progress(f"verify {workload.name} [{', '.join(compilers)}]")
        measured = compile_workload(workload, compilers, verify=True)
        for backend in compilers:
            row = measured[backend]
            rows.append(row)
            if not row["verified"]:
                dirty += 1
    document = {
        "schema_version": VERIFY_SCHEMA_VERSION,
        "suite": args.suite,
        "seed": BENCH_SEED,
        "created_at": time.strftime("%Y-%m-%d %H:%M:%S"),
        "compilers": list(compilers),
        "clean": dirty == 0,
        "dirty_rows": dirty,
        "rows": rows,
    }
    path = write_document(document, args.out_dir, "VERIFY")

    if args.json:
        print(json.dumps({"verify": document, "path": str(path)}, indent=2, sort_keys=True))
    else:
        width = max(len(str(row["workload"])) for row in rows) if rows else 8
        for row in rows:
            report = row["verify"]
            status = (
                "clean"
                if row["verified"]
                else f"{row['violations']} violation(s)"
            )
            print(
                f"{row['workload']:<{width}} {row['backend']:<16} {status}"
                f"  ({report['ops_checked']} ops,"
                f" {report['protocol_instances']} protocol instance(s))"
            )
        print(
            f"verify suite={args.suite}: {len(rows) - dirty}/{len(rows)} rows clean"
        )
        for row in rows:
            if row["verified"]:
                continue
            print(f"\n{row['workload']} [{row['backend']}]:", file=sys.stderr)
            print(format_report(report_from_dict(row["verify"])), file=sys.stderr)
        print(f"verification report: {path}")
    return 1 if dirty else 0


def _cmd_bench_latency(args: argparse.Namespace) -> int:
    """``repro bench --latency``: the serve-path latency suite and gate."""
    from .perf.latency import (
        format_latency,
        latency_regressed,
        run_latency,
        write_latency,
    )

    if args.against is not None or args.history is not None:
        print(
            "error: --latency is its own mode; it cannot combine with"
            " --against or --history",
            file=sys.stderr,
        )
        return 2
    for flag, value in (
        ("--requests", args.requests),
        ("--concurrency", args.concurrency),
        ("--cold-requests", args.cold_requests),
    ):
        if value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    if args.limit is not None and args.limit < 1:
        print("error: --limit must be at least 1", file=sys.stderr)
        return 2
    if not (args.max_warm_ratio > 0):  # inverted so NaN fails too
        print("error: --max-warm-ratio must be positive", file=sys.stderr)
        return 2
    compilers = _parse_compilers(args.compilers)
    if compilers is None:
        return 2
    suite = "quick" if args.quick else args.suite
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=sys.stderr))
    document = run_latency(
        suite,
        compilers=compilers,
        requests=args.requests,
        concurrency=args.concurrency,
        cold_requests=args.cold_requests,
        limit=args.limit,
        progress=progress,
    )
    path = write_latency(document, args.out_dir)
    reasons = latency_regressed(
        document, max_warm_ratio=args.max_warm_ratio, max_p99=args.max_p99
    )
    if args.json:
        print(
            json.dumps(
                {"latency": document, "path": str(path), "gate_failures": reasons},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_latency(document))
        print(f"latency document: {path}")
        for reason in reasons:
            print(f"LATENCY GATE: {reason}", file=sys.stderr)
    return 1 if reasons else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the warm-state compile server until stopped."""
    from .serve.server import CompileServer

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.max_devices < 1:
        print("error: --max-devices must be at least 1", file=sys.stderr)
        return 2
    if args.cache_max_mb is not None and not (args.cache_max_mb > 0):
        print("error: --cache-max-mb must be positive", file=sys.stderr)
        return 2
    try:
        policy = JobPolicy(timeout=args.timeout, retries=args.retries)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = _build_cache(args)
    server = CompileServer(
        args.host,
        args.port,
        workers=args.workers,
        cache=cache,
        policy=policy,
        max_devices=args.max_devices,
    )
    try:
        server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        caching = args.cache_dir if cache is not None else "disabled"
        print(
            f"repro serve: listening on {server.host}:{server.port}"
            f" ({args.workers} workers, cache {caching});"
            f" stop with `repro submit --port {server.port} --shutdown` or Ctrl-C",
            file=sys.stderr,
        )
    server.serve_forever()
    if not args.quiet:
        stats = server.stats()
        print(
            f"repro serve: stopped after {stats['requests_served']} requests"
            f" ({stats['compiles']} compiles, {stats['cache_hits']} cache hits,"
            f" {stats['errors']} errors)",
            file=sys.stderr,
        )
    return 0


def _format_submit_rows(responses: list, jobs: list) -> str:
    """Fixed-width per-compiler metric table for submitted jobs."""
    lines = []
    header = (
        f"{'benchmark':<10} {'architecture':<18} {'backend':<16} {'depth':>8}"
        f" {'eff CNOTs':>10} {'seconds':>8}  served"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for job, response in zip(jobs, responses):
        result = response.payload["result"]
        arch = result.get("architecture", "?")
        benchmark = result.get("benchmark", job.benchmark)
        served = "warm" if response.payload.get("warm") else "cold"
        if response.payload.get("cached"):
            served += "+cached"
        if "compilers" in result:  # multi-comparison payload
            for backend in result["compilers"]:
                lines.append(
                    f"{benchmark:<10} {arch:<18} {backend:<16}"
                    f" {result['depths'][backend]:>8.0f}"
                    f" {result['eff_cnots'][backend]:>10.0f}"
                    f" {result['seconds'][backend]:>8.3f}  {served}"
                )
        else:  # historic two-compiler payload
            for backend in ("baseline", "mech"):
                lines.append(
                    f"{benchmark:<10} {arch:<18} {backend:<16}"
                    f" {result[f'{backend}_depth']:>8.0f}"
                    f" {result[f'{backend}_eff_cnots']:>10.0f}"
                    f" {result[f'{backend}_seconds']:>8.3f}  {served}"
                )
    return "\n".join(lines)


def _cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit``: client for a running ``repro serve``."""
    from .experiments.engine import Job
    from .serve.client import ServeClient, submit_jobs
    from .serve.retry import BackoffPolicy
    from .serve.schema import ServeProtocolError

    control_ops = sum(bool(flag) for flag in (args.ping, args.stats, args.shutdown))
    if control_ops > 1:
        print("error: --ping/--stats/--shutdown are mutually exclusive", file=sys.stderr)
        return 2
    if not (args.connect_timeout > 0):
        print("error: --connect-timeout must be positive", file=sys.stderr)
        return 2
    if not (args.max_connect_seconds > 0):
        print("error: --max-connect-seconds must be positive", file=sys.stderr)
        return 2
    connect_policy = BackoffPolicy(
        initial=0.1, cap=2.0, max_total_seconds=args.max_connect_seconds
    )
    if args.ping:
        try:
            with ServeClient(
                args.host,
                args.port,
                connect_timeout=args.connect_timeout,
                connect_policy=connect_policy,
            ) as client:
                up = client.ping().ok
        except (OSError, ServeProtocolError):
            up = False
        if up:
            print(f"repro serve at {args.host}:{args.port} is up")
            return 0
        print(f"error: no server answered at {args.host}:{args.port}", file=sys.stderr)
        return 1
    try:
        if args.stats:
            with ServeClient(
                args.host,
                args.port,
                connect_timeout=args.connect_timeout,
                connect_policy=connect_policy,
            ) as client:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            with ServeClient(
                args.host,
                args.port,
                connect_timeout=args.connect_timeout,
                connect_policy=connect_policy,
            ) as client:
                response = client.shutdown_server()
            if response.ok:
                print(f"repro serve at {args.host}:{args.port} is shutting down")
                return 0
            print(f"error: shutdown refused: {response.error}", file=sys.stderr)
            return 1

        compilers = _parse_compilers(args.compilers)
        if compilers is None:
            return 2
        if args.concurrency < 1:
            print("error: --concurrency must be at least 1", file=sys.stderr)
            return 2
        if args.suite is not None:
            from .perf.bench import resolve_suite
            from .perf.latency import workload_job

            workloads = resolve_suite(args.suite)
            if args.limit is not None:
                if args.limit < 1:
                    print("error: --limit must be at least 1", file=sys.stderr)
                    return 2
                workloads = workloads[: args.limit]
            jobs = [workload_job(w, compilers) for w in workloads]
        else:
            known = {name.upper() for name in BENCHMARK_NAMES}
            if args.benchmark.upper() not in known:
                print(
                    f"error: unknown benchmark {args.benchmark!r};"
                    f" choose from {', '.join(BENCHMARK_NAMES)}",
                    file=sys.stderr,
                )
                return 2
            jobs = [
                Job(
                    benchmark=args.benchmark.upper(),
                    structure=args.structure,
                    chiplet_width=args.chiplet_width,
                    rows=args.rows,
                    cols=args.cols,
                    highway_density=args.highway_density,
                    seed=args.seed,
                    compilers=tuple(compilers),
                )
            ]
        try:
            policy = JobPolicy(timeout=args.timeout) if args.timeout is not None else None
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        responses = submit_jobs(
            jobs,
            args.host,
            args.port,
            concurrency=args.concurrency,
            policy=policy,
            connect_timeout=args.connect_timeout,
            connect_policy=connect_policy,
        )
    except (OSError, ServeProtocolError) as exc:
        print(
            f"error: cannot talk to repro serve at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1

    failed = [response for response in responses if not response.ok]
    if args.json:
        print(
            json.dumps(
                [response.to_dict() for response in responses], indent=2, sort_keys=True
            )
        )
    else:
        good = [
            (job, response)
            for job, response in zip(jobs, responses)
            if response.ok
        ]
        if good:
            print(
                _format_submit_rows(
                    [response for _, response in good], [job for job, _ in good]
                )
            )
        for response in failed:
            print(f"FAILED {response.request_id}: {response.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    """``repro bench --history DIR``: analysis only, no compilation."""
    from .perf.history import (
        HistoryError,
        compute_history,
        format_history,
        load_history,
        write_trend,
    )

    if args.against is not None:
        print(
            "error: --history and --against are mutually exclusive"
            " (--history already compares every document to its neighbours)",
            file=sys.stderr,
        )
        return 2
    if not (args.max_drift >= 0):  # inverted so NaN fails too
        print("error: --max-drift must be >= 0", file=sys.stderr)
        return 2
    try:
        documents, skipped = load_history(args.history)
    except HistoryError as exc:
        print(f"error: --history: {exc}", file=sys.stderr)
        return 2
    report = compute_history(documents, max_drift=args.max_drift, skipped=skipped)
    path = write_trend(report, args.out_dir)
    if args.json:
        print(json.dumps({"trend": report, "path": str(path)}, indent=2, sort_keys=True))
    else:
        print(format_history(report))
        print(f"trend report: {path}")
    return 1 if report["regressed"] else 0


def _validate_common_flags(args: argparse.Namespace) -> int | None:
    """Usage checks shared by ``run`` and ``resume``; an exit code or None."""
    if args.cache_max_mb is not None and not (args.cache_max_mb > 0):
        # the inverted comparison also catches NaN, which int() would crash on
        print("error: --cache-max-mb must be positive", file=sys.stderr)
        return 2
    if args.json and not args.dry_run:
        print("error: --json requires --dry-run", file=sys.stderr)
        return 2
    if args.jobs < 0:
        print("error: --jobs must be >= 0 (0 = one worker per CPU)", file=sys.stderr)
        return 2
    return None


def _build_cache(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return None
    max_bytes = (
        max(1, int(args.cache_max_mb * 1048576)) if args.cache_max_mb is not None else None
    )
    return ResultCache(args.cache_dir, max_bytes=max_bytes)


def _build_policy(args: argparse.Namespace) -> JobPolicy | None:
    """The run's :class:`JobPolicy`, or None after a one-line usage error."""
    try:
        return JobPolicy(
            timeout=args.timeout,
            retries=args.retries,
            reseed_on_retry=args.reseed_on_retry,
            on_error=args.on_error,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _workers(args: argparse.Namespace) -> int:
    return args.jobs if args.jobs > 0 else (os.cpu_count() or 1)


# --------------------------------------------------------------------------
# dry-run plan rendering (a stable contract — golden-tested)


def _plan_lines(name: str, summary: dict[str, object]) -> list[str]:
    duplicates = summary["duplicates"]
    lines = [
        f"{name}: {summary['total']} jobs, {summary['unique']} unique"
        f" ({duplicates} duplicate{'s' if duplicates != 1 else ''})"
        f" — {summary['cached']} cached, {summary['pending']} pending,"
        f" {summary['failed']} failed"
    ]
    for kind, bucket in summary["by_kind"].items():
        lines.append(
            f"  kind {kind}: {bucket['cached']} cached,"
            f" {bucket['pending']} pending, {bucket['failed']} failed"
        )
    for benchmark, bucket in summary["by_benchmark"].items():
        lines.append(
            f"  benchmark {benchmark}: {bucket['cached']} cached,"
            f" {bucket['pending']} pending, {bucket['failed']} failed"
        )
    return lines


_DRY_RUN_FOOTER = "dry-run: no jobs executed, no artifacts written"


def _checkpoint_failed_keys(checkpoint_path: Path) -> frozenset:
    """Failed-job keys from a previous run's checkpoint, if one is readable.

    Reads just the ``failed`` field (every checkpoint version records it)
    rather than fully re-hydrating the job list — dry-run classification
    needs only the keys.  No checkpoint means a clean slate (nothing to
    classify as failed); a checkpoint that exists but cannot be parsed is
    *not* the same thing, so that case warns instead of silently reporting
    zero failures.
    """
    if not checkpoint_path.exists():
        return frozenset()
    try:
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(
            f"warning: ignoring unreadable checkpoint for failed-job"
            f" classification ({checkpoint_path}: {exc})",
            file=sys.stderr,
        )
        return frozenset()
    entries = doc.get("failed") if isinstance(doc, dict) else None
    return frozenset(
        str(entry["key"])
        for entry in (entries if isinstance(entries, list) else ())
        if isinstance(entry, dict) and "key" in entry
    )


def _emit_plans(plans: list[dict[str, object]], header: dict[str, object], as_json: bool) -> int:
    if as_json:
        print(json.dumps({"dry_run": True, **header, "experiments": plans}, indent=2))
        return 0
    for summary in plans:
        print("\n".join(_plan_lines(summary["experiment"], summary)))
    print(_DRY_RUN_FOOTER)
    return 0


# --------------------------------------------------------------------------
# run / resume


def _emit_experiment(
    name: str,
    records: Sequence[AnyRecord],
    report: RunReport,
    *,
    out_dir: str,
    metadata: dict[str, object],
    on_error: str,
) -> None:
    """Shared artifact/stdout emission for ``run`` and ``resume``."""
    spec = EXPERIMENTS[name]
    text = spec.format_records(records)
    if on_error == "record" and report.errors:
        # failed cells stay visible in the table and the .txt artifact
        text += "\n" + "\n".join(format_failed_rows(report.errors))
    paths = write_artifacts(
        name,
        records,
        out_dir,
        text=text,
        metadata=metadata,
        errors=report.errors if on_error == "record" else None,
    )
    print(text)
    print(f"[{name}] {report.summary()}")
    if on_error == "record":
        # skip mode stays quiet beyond the summary's failure count
        for error in report.errors:
            print(
                f"[{name}] FAILED {error.benchmark} ({error.key[:12]}…): "
                f"{error.error_type}: {error.message} "
                f"[{error.attempts} attempt{'s' if error.attempts != 1 else ''}, "
                f"{error.seconds:.1f}s]",
                file=sys.stderr,
            )
    print(f"[{name}] artifacts: {paths['json']}, {paths['csv']}")


def _check_names(experiments: Sequence[str], benchmarks: Sequence[str]) -> int | None:
    """Exit code 2, after a one-line error, for unknown experiments or
    benchmarks (``run`` and ``farm run`` share the check); else None."""
    unknown = [name for name in experiments if name not in EXPERIMENTS]
    if unknown:
        print(
            f"error: unknown experiment(s) {', '.join(sorted(set(unknown)))}; "
            f"choose from {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    known = {name.upper() for name in BENCHMARK_NAMES}
    bad = [name for name in benchmarks if name.upper() not in known]
    if bad or not benchmarks:
        what = f"unknown benchmark(s) {', '.join(sorted(set(bad)))}" if bad else "no benchmarks given"
        print(f"error: {what}; choose from {', '.join(BENCHMARK_NAMES)}", file=sys.stderr)
        return 2
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    usage_error = _check_names(args.experiments, args.benchmarks)
    if usage_error is not None:
        return usage_error
    usage_error = _validate_common_flags(args)
    if usage_error is not None:
        return usage_error
    policy = _build_policy(args)
    if policy is None:
        return 2
    # normalise case so "bv" and "BV" share cache entries
    benchmarks = [name.upper() for name in args.benchmarks]
    compilers = _parse_compilers(args.compilers)
    if compilers is None:
        return 2
    cache = _build_cache(args)

    if args.dry_run:
        plans = []
        for name in args.experiments:
            plan = plan_experiment(
                name,
                scale=args.scale,
                benchmarks=benchmarks,
                seed=args.seed,
                cache=cache,
                compilers=compilers,
            )
            failed_keys = _checkpoint_failed_keys(
                Path(args.out_dir) / f"{name}.checkpoint.json"
            )
            plans.append(
                {"experiment": name, **plan_summary(plan, failed_keys=sorted(failed_keys))}
            )
        header = {
            "scale": args.scale,
            "benchmarks": benchmarks,
            "seed": args.seed,
            "cache_dir": None if args.no_cache else args.cache_dir,
            "compilers": compilers,
        }
        return _emit_plans(plans, header, args.json)

    if args.verify:
        # worker processes inherit the environment, so the flag reaches every
        # compile job without touching the (cache-key-relevant) job config
        os.environ[VERIFY_ENV] = "1"
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=sys.stderr))
    failures = 0
    for name in args.experiments:
        spec = EXPERIMENTS[name]
        if not args.quiet:
            print(f"== {name}: {spec.title} (scale={args.scale}) ==", file=sys.stderr)
        records, report = run_experiment(
            name,
            scale=args.scale,
            benchmarks=benchmarks,
            seed=args.seed,
            workers=_workers(args),
            cache=cache,
            policy=policy,
            checkpoint=Path(args.out_dir) / f"{name}.checkpoint.json",
            progress=progress,
            compilers=compilers,
        )
        _emit_experiment(
            name,
            records,
            report,
            out_dir=args.out_dir,
            metadata={
                "scale": args.scale,
                "benchmarks": benchmarks,
                "seed": args.seed,
                "compilers": compilers,
            },
            on_error=args.on_error,
        )
        failures += report.failed
    return 1 if failures else 0


# --------------------------------------------------------------------------
# compile farm


def _cmd_farm_run(args: argparse.Namespace) -> int:
    """``repro farm run``: one experiment across coordinator + workers."""
    from .farm import CommandWorkerLauncher, LocalWorkerLauncher, run_farm

    name = args.experiment
    usage_error = _check_names([name], args.benchmarks)
    if usage_error is not None:
        return usage_error
    if args.cache_max_mb is not None and not (args.cache_max_mb > 0):
        print("error: --cache-max-mb must be positive", file=sys.stderr)
        return 2
    if args.local_workers < 1:
        print("error: --local-workers must be at least 1", file=sys.stderr)
        return 2
    if args.worker_threads < 1:
        print("error: --worker-threads must be at least 1", file=sys.stderr)
        return 2
    if not (args.lease_seconds > 0):
        print("error: --lease-seconds must be positive", file=sys.stderr)
        return 2
    benchmarks = [bench.upper() for bench in args.benchmarks]
    compilers = _parse_compilers(args.compilers)
    if compilers is None:
        return 2
    # the artifact/checkpoint metadata must match `repro run --scale small`
    # byte for byte, so the smoke alias resolves before anything records it
    scale = "small" if args.scale == "smoke" else args.scale

    policy = _build_policy(args)
    if policy is None:
        return 2
    cache = _build_cache(args)
    jobs = build_experiment_jobs(
        name, scale=scale, benchmarks=benchmarks, seed=args.seed, compilers=compilers
    )
    meta = experiment_meta(
        name, scale=scale, benchmarks=benchmarks, seed=args.seed, cache=cache,
        compilers=compilers,
    )
    checkpoint = Path(args.out_dir) / f"{name}.checkpoint.json"
    launcher: object
    if args.worker_command is not None:
        launcher = CommandWorkerLauncher(args.worker_command, threads=args.worker_threads)
    else:
        launcher = LocalWorkerLauncher(threads=args.worker_threads, log_dir=args.worker_log_dir)
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=sys.stderr))
    if not args.quiet:
        spec = EXPERIMENTS[name]
        print(
            f"== farm {name}: {spec.title} (scale={scale},"
            f" {args.local_workers} worker(s)) ==",
            file=sys.stderr,
        )
    records, report = run_farm(
        jobs,
        launcher=launcher,  # type: ignore[arg-type]
        workers=args.local_workers,
        host=args.host,
        port=args.port,
        cache=cache,
        policy=policy,
        lease_seconds=args.lease_seconds,
        checkpoint=checkpoint,
        checkpoint_meta=meta,
        progress=progress,
    )
    _emit_experiment(
        name,
        records,
        report,
        out_dir=args.out_dir,
        metadata={
            "scale": scale,
            "benchmarks": benchmarks,
            "seed": args.seed,
            "compilers": compilers,
        },
        on_error=args.on_error,
    )
    return 1 if report.failed else 0


def _cmd_farm_worker(args: argparse.Namespace) -> int:
    """``repro farm-worker``: join a coordinator and work until it drains."""
    from .farm.worker import main_loop_with_retry

    host, sep, port_text = args.connect.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        print(
            f"error: --connect must be HOST:PORT, got {args.connect!r}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.batch is not None and args.batch < 1:
        print("error: --batch must be at least 1", file=sys.stderr)
        return 2
    if not (args.connect_timeout > 0):
        print("error: --connect-timeout must be positive", file=sys.stderr)
        return 2
    if not (args.max_connect_seconds > 0):
        print("error: --max-connect-seconds must be positive", file=sys.stderr)
        return 2
    progress = (
        None if args.quiet else (lambda msg: print(f"[farm-worker] {msg}", file=sys.stderr))
    )
    return main_loop_with_retry(
        host,
        int(port_text),
        workers=args.workers,
        worker_id=args.worker_id,
        batch=args.batch,
        connect_timeout=args.connect_timeout,
        max_connect_seconds=args.max_connect_seconds,
        progress=progress,
    )


def _resume_experiment_name(checkpoint: Checkpoint) -> str:
    name = checkpoint.meta.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise CheckpointError(
            f"checkpoint {checkpoint.path} does not name a known experiment"
            f" (meta.experiment={name!r}); it cannot be resumed through the CLI"
        )
    return name


def _cmd_resume(args: argparse.Namespace) -> int:
    usage_error = _validate_common_flags(args)
    if usage_error is not None:
        return usage_error
    policy = _build_policy(args)
    if policy is None:
        return 2
    try:
        # a crash can tear the journal's final line; quarantine the torn
        # tail (preserved as *.quarantine) and resume from the good prefix
        repaired = repair_journal(journal_path_for(args.checkpoint))
        if repaired is not None:
            print(
                f"note: quarantined a torn journal tail"
                f" ({repaired['quarantined_bytes']} byte(s) →"
                f" {repaired['quarantine']}); resuming from"
                f" {repaired['kept_events']} intact event(s)",
                file=sys.stderr,
            )
        checkpoint = load_checkpoint(args.checkpoint, quarantine=True)
        name = _resume_experiment_name(checkpoint)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.cache_dir is None:
        recorded = checkpoint.meta.get("cache_dir")
        args.cache_dir = recorded if isinstance(recorded, str) else DEFAULT_CACHE_DIR
        if recorded is None and "cache_dir" in checkpoint.meta and not args.no_cache:
            # the original run opted out of caching, so nothing it completed
            # was persisted — this resume starts from scratch (but caches)
            print(
                "note: the checkpointed run used --no-cache, so completed jobs"
                f" were not persisted; every job will execute"
                f" (caching into {args.cache_dir})",
                file=sys.stderr,
            )
    cache = _build_cache(args)
    out_dir = args.out_dir if args.out_dir is not None else str(checkpoint.path.parent)

    jobs = checkpoint.jobs
    skipped_pending = 0
    if args.only_failed:
        # plan-level filter on the *checkpoint's* classification (not the
        # current cache state, which may have been swept or relocated): keep
        # the jobs the original run finished — they stay in the artifacts,
        # as cache hits or cheap re-executions — plus the failed jobs; drop
        # only jobs the checkpoint says never started
        if not checkpoint.failed:
            print(
                "error: --only-failed: the checkpoint records no failed jobs"
                " (use a plain `repro resume` to finish pending work)",
                file=sys.stderr,
            )
            return 2
        keep = checkpoint.completed_keys | checkpoint.cached_keys | checkpoint.failed_keys
        jobs = [job for job in checkpoint.jobs if config_key(job) in keep]
        skipped_pending = len(checkpoint.jobs) - len(jobs)

    if args.dry_run:
        plan = plan_jobs(jobs, cache=cache, refresh=False)
        summary = {
            "experiment": name,
            **plan_summary(plan, failed_keys=sorted(checkpoint.failed_keys)),
        }
        header = {
            "checkpoint": str(checkpoint.path),
            "cache_dir": None if args.no_cache else args.cache_dir,
            "only_failed": bool(args.only_failed),
        }
        return _emit_plans([summary], header, args.json)

    # record the cache dir actually used, so a later bare `repro resume`
    # against this checkpoint finds the results where this resume put them
    meta = dict(checkpoint.meta)
    if not args.no_cache:
        meta["cache_dir"] = args.cache_dir

    remaining = len(checkpoint.remaining_jobs())
    if not args.quiet:
        spec = EXPERIMENTS[name]
        note = (
            f" (--only-failed: skipping {skipped_pending} never-started"
            f" job{'s' if skipped_pending != 1 else ''})"
            if args.only_failed and skipped_pending
            else ""
        )
        print(
            f"== resume {name}: {spec.title}"
            f" ({remaining} of {len(checkpoint.jobs)} jobs unfinished){note} ==",
            file=sys.stderr,
        )
    progress = None if args.quiet else (lambda msg: print(f"  {msg}", file=sys.stderr))
    records, report = run_jobs_report(
        jobs,
        workers=_workers(args),
        cache=cache,
        policy=policy,
        checkpoint=checkpoint.path,
        checkpoint_meta=meta,
        progress=progress,
    )
    _emit_experiment(
        name,
        records,
        report,
        out_dir=out_dir,
        # the artifact metadata header must match an uninterrupted run's,
        # which records only scale/benchmarks/seed
        metadata={
            key: value
            for key, value in meta.items()
            if key not in ("experiment", "cache_dir")
        },
        on_error=args.on_error,
    )
    return 1 if report.failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        # parse the scenario once, up front: a malformed spec is a usage
        # error, not a traceback (or a job error in every worker)
        chaos_controller()
    except ChaosSpecError as exc:
        print(f"error: {CHAOS_ENV}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "compilers":
            return _cmd_compilers(args.json)
        if args.command == "cache-stats":
            return _cmd_cache_stats(args)
        if args.command == "clean-cache":
            return _cmd_clean_cache(args)
        if args.command == "farm":
            return _cmd_farm_run(args)
        if args.command == "farm-worker":
            return _cmd_farm_worker(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "resume":
            return _cmd_resume(args)
        return _cmd_run(args)
    except FarmAbortedError as exc:
        # `farm run`, `run --jobs N` and `resume --jobs N` all end here
        print(f"error: farm run aborted: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            print(f"resume with: repro resume {exc.checkpoint}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away mid-print (`repro ... | head`); exit quietly with
        # the conventional SIGPIPE code instead of a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
