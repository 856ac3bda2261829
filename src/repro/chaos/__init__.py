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
* the process-level singleton — ``chaos_controller()`` lazily parses the
  ``REPRO_CHAOS`` environment variable once per process, so worker
  processes inherit the scenario for free.  The hook sites reach it through
  :func:`active_controller`, which returns ``None`` without importing the
  runtime when the variable is unset: a process that injects nothing loads
  only this file, and every hook is a no-op costing one ``is None`` check.

Faults are deterministic: probabilistic clauses draw from a
``random.Random`` seeded by the plan's ``seed`` clause (default 0), and
counter-based clauses (``after=N``, ``times=K``) tick per site.  The same
spec against the same workload injects the same faults.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING

from .._lazy import lazy_exports

#: The environment variable holding the process's scenario spec.
CHAOS_ENV = "REPRO_CHAOS"

_EXPORTS = {
    "CHAOS_PLAN_VERSION": ".plan",
    "CHAOS_REPORT_ENV": ".plan",
    "ChaosPlan": ".plan",
    "ChaosSpecError": ".plan",
    "FaultClause": ".plan",
    "parse_chaos_spec": ".plan",
    "ChaosController": ".inject",
    "ChaosDrop": ".inject",
    "chaos_controller": ".inject",
    "reset_chaos": ".inject",
    "set_chaos": ".inject",
}
__all__ = ["CHAOS_ENV", "active_controller", *_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

if TYPE_CHECKING:
    from .inject import (
        ChaosController,
        ChaosDrop,
        chaos_controller,
        reset_chaos,
        set_chaos,
    )
    from .plan import (
        CHAOS_PLAN_VERSION,
        CHAOS_REPORT_ENV,
        ChaosPlan,
        ChaosSpecError,
        FaultClause,
        parse_chaos_spec,
    )


_RUNTIME = f"{__name__}.inject"

#: Whether ``REPRO_CHAOS`` was unset when first read.  Like the controller it
#: is read once per process; :func:`set_chaos` and :func:`reset_chaos` load
#: the runtime, which answers from then on.
_unset: bool | None = None


def active_controller() -> ChaosController | None:
    """The process's controller, or None when chaos is off.

    The hook sites call this instead of :func:`chaos_controller`: with
    ``REPRO_CHAOS`` unset and no :func:`set_chaos` call (which loads the
    runtime), it answers from the environment alone, so a process that
    injects nothing never imports :mod:`repro.chaos.inject` or
    :mod:`repro.chaos.plan`.
    """
    global _unset
    inject = sys.modules.get(_RUNTIME)
    if inject is None:
        if _unset is None:
            _unset = not os.environ.get(CHAOS_ENV, "").strip()
        if _unset:
            return None
        from . import inject
    return inject.chaos_controller()
