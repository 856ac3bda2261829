"""Deterministic, seedable fault injection for the serve, farm and job layers.

The subsystem has three pieces:

* :mod:`repro.chaos.plan` — the scenario-spec grammar.  A spec string such
  as ``conn-drop:after=3;garble:rate=0.1;enospc:op=put;torn-tail:journal``
  parses into a validated :class:`ChaosPlan` of fault clauses.
* :mod:`repro.chaos.inject` — the runtime.  A :class:`ChaosController`
  built from a plan exposes the hook points the transport, storage and job
  layers call (``on_frame`` around socket send/recv, ``on_fs_op`` around
  cache/checkpoint writes, ``journal_line`` around journal appends,
  ``on_job`` at the start of every job attempt) and counts every injected
  fault per site.
* the process-level singleton — ``controller()`` lazily parses the
  ``REPRO_CHAOS`` environment variable once per process, so worker
  processes inherit the scenario for free.  When the variable is unset
  every hook is a no-op costing one ``is None`` check.

Faults are deterministic: probabilistic clauses draw from a
``random.Random`` seeded by the plan's ``seed`` clause (default 0), and
counter-based clauses (``after=N``, ``times=K``) tick per site.  The same
spec against the same workload injects the same faults.
"""

from repro.chaos.plan import (
    CHAOS_ENV,
    CHAOS_PLAN_VERSION,
    CHAOS_REPORT_ENV,
    ChaosPlan,
    ChaosSpecError,
    FaultClause,
    parse_chaos_spec,
)
from repro.chaos.inject import (
    ChaosController,
    ChaosDrop,
    chaos_controller,
    reset_chaos,
    set_chaos,
)

__all__ = [
    "CHAOS_ENV",
    "CHAOS_PLAN_VERSION",
    "CHAOS_REPORT_ENV",
    "ChaosController",
    "ChaosDrop",
    "ChaosPlan",
    "ChaosSpecError",
    "FaultClause",
    "chaos_controller",
    "parse_chaos_spec",
    "reset_chaos",
    "set_chaos",
]
