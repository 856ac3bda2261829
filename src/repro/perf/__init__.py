"""Performance-tracking subsystem.

Import the submodules directly; the package re-exports nothing, so the
compilers' import of :mod:`repro.perf.timers` loads no bench machinery.

* :mod:`repro.perf.timers` — lightweight phase timers threaded through
  ``CompilationResult.stats`` (``phase_<name>_seconds`` keys for the
  layout/route/schedule/simulate phases), so every compiled circuit carries
  its own wall-clock breakdown;
* :mod:`repro.perf.bench` — the ``repro bench`` machinery: pinned compile
  workload suites per registered backend, ``BENCH_<timestamp>.json``
  emission, and the ``--against`` comparison mode that reports speedups,
  regressions and routing-output drift (machine-speed differences are
  normalised by a calibration scalar recorded in every document).
"""
