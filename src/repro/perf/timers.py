"""Phase timers for the compilation pipeline.

A :class:`PhaseTimer` accumulates wall-clock seconds per named phase
(``layout``, ``route``, ``schedule``, ``simulate``, ...) and writes them into
a ``CompilationResult.stats`` dict as ``phase_<name>_seconds`` float entries —
the schema every stats consumer already accepts (plain ``int``/``float``
values).  Multi-trial compilers re-enter the same phase; durations add up.

The timings are diagnostics: they never influence routing decisions, and the
golden equivalence suite ignores ``phase_*`` keys entirely.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from collections.abc import Iterator, Mapping

__all__ = ["PHASE_PREFIX", "PhaseTimer", "phase_breakdown"]

#: Stats-key prefix marking per-phase wall-clock entries.
PHASE_PREFIX = "phase_"

_SUFFIX = "_seconds"


class PhaseTimer:
    """Accumulates wall-clock seconds per named compilation phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (re-entries accumulate)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def add(self, name: str, seconds: float) -> None:
        """Accumulate an externally measured duration under ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + float(seconds)

    def write_stats(self, stats: dict[str, float]) -> dict[str, float]:
        """Record every phase as a ``phase_<name>_seconds`` stats entry."""
        for name, seconds in self.seconds.items():
            stats[f"{PHASE_PREFIX}{name}{_SUFFIX}"] = float(seconds)
        return stats


def phase_breakdown(stats: Mapping[str, object]) -> dict[str, float]:
    """Extract ``{phase: seconds}`` from a stats dict written by a timer."""
    out: dict[str, float] = {}
    for key, value in stats.items():
        if key.startswith(PHASE_PREFIX) and key.endswith(_SUFFIX):
            name = key[len(PHASE_PREFIX) : -len(_SUFFIX)]
            if name and isinstance(value, (int, float)):
                out[name] = float(value)
    return out
