"""How a sweep treats failing jobs: the :class:`JobPolicy` and :class:`JobError`.

A :class:`JobPolicy` travels with every job attempt (its per-attempt
timeout), with the lease queue (its retry budget and reseeding) and with the
run (its ``on_error`` disposition); a :class:`JobError` is the structured
account of a job that failed every attempt, kept in the checkpoint, the
:class:`~repro.experiments.ledger.RunReport` and the artifacts.  Parsing the
CLI's flags needs the policy, so this module imports nothing else of the
engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

__all__ = ["JobError", "JobPolicy"]


@dataclass(frozen=True)
class JobPolicy:
    """Fault-tolerance policy applied to every job of a sweep.

    ``timeout`` is a per-*attempt* wall-clock budget in seconds (None
    disables it); ``retries`` re-runs a failed job up to that many extra
    times, bumping the seed on each attempt when ``reseed_on_retry`` is set
    (the result is still stored under the original job's config key).
    ``on_error`` decides what happens once the attempts are exhausted:

    * ``"raise"`` — re-raise the failure in the caller (the engine's historic
      behaviour; everything that already finished stays cached);
    * ``"skip"`` — drop the job from the returned records, count it in
      :attr:`~repro.experiments.ledger.RunReport.failed` and keep sweeping;
    * ``"record"`` — like ``"skip"``, but the :class:`JobError` additionally
      flows into the artifacts as an error row.

    Failed jobs are never cached, so a rerun against the same cache executes
    only the jobs that failed.
    """

    timeout: float | None = None
    retries: int = 0
    reseed_on_retry: bool = False
    on_error: str = "raise"

    ON_ERROR_CHOICES = ("raise", "skip", "record")

    def __post_init__(self):
        if self.on_error not in self.ON_ERROR_CHOICES:
            raise ValueError(
                f"on_error must be one of {self.ON_ERROR_CHOICES}, got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and not 0 < self.timeout < math.inf:  # rejects NaN too
            raise ValueError(f"timeout must be positive and finite or None, got {self.timeout}")

    def to_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(JobPolicy)}


@dataclass
class JobError:
    """Structured account of one job that failed every attempt."""

    key: str
    benchmark: str
    kind: str
    error_type: str
    message: str
    traceback_tail: str
    attempts: int
    seconds: float
