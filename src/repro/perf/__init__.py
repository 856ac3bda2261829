"""Performance-tracking subsystem.

Import the submodules directly; the package re-exports nothing, so the
compilers' import of :mod:`repro.perf.timers` loads neither the bench
machinery nor numpy.

* :mod:`repro.perf.timers` — lightweight phase timers threaded through
  ``CompilationResult.stats`` (``phase_<name>_seconds`` keys for the
  layout/route/schedule/simulate phases), so every compiled circuit carries
  its own wall-clock breakdown;
* :mod:`repro.perf.bench` — the ``repro bench`` machinery: pinned compile
  workload suites per registered backend, ``BENCH_<timestamp>.json``
  emission, and the ``--against`` comparison mode that reports speedups and
  regressions (machine-speed differences are normalised by a calibration
  scalar recorded in every document; the calibration is the one place
  outside the simulator that imports numpy);
* :mod:`repro.perf.history` — longitudinal analytics over an accumulated
  directory of bench documents: calibration-rescaled per-backend trend
  series, geomean deltas vs. the oldest and the previous document, a
  ``TREND_<timestamp>.json`` report, and the ``--max-drift`` gate the CI
  bench-history job fails on;
* :mod:`repro.perf.latency` — the ``repro bench --latency`` serve-path
  suite: cold one-shot-process requests vs warm requests against a running
  :class:`~repro.serve.server.CompileServer`, p50/p99 under concurrent
  load, a byte-identity check between the served and batch paths, and the
  ``LATENCY_<timestamp>.json`` document the CI serve gate reads.
"""
