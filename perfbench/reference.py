"""The pinned reference: each job's swap, depth and eff-CNOT counts.

``reference.json`` holds the counts of every job any ``--seed`` can produce
(see :mod:`perfbench.workloads`) and the verifier rejections known when it
was pinned.  A run whose output differs from it in any count is incorrect.
Regenerate it on purpose, when routing output is meant to change, with
``python3 perfbench/pin.py``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

__all__ = ["COUNT_FIELDS", "REFERENCE_PATH", "Reference", "counts"]

REFERENCE_PATH = Path(__file__).with_name("reference.json")

COUNT_FIELDS = (
    "baseline_swaps",
    "mech_swaps",
    "baseline_depth",
    "mech_depth",
    "baseline_eff_cnots",
    "mech_eff_cnots",
)


def counts(payload: Mapping[str, object]) -> dict[str, float]:
    """The pinned counts of one default-pair record payload."""
    extra = payload.get("extra") or {}
    return {
        field: float(extra[field] if field.endswith("_swaps") else payload[field])
        for field in COUNT_FIELDS
    }


class Reference:
    def __init__(self, document: Mapping[str, object]) -> None:
        self.jobs: dict[str, dict[str, float]] = dict(document["jobs"])
        #: ``{label: {backend: [rule/code, ...]}}`` known verifier rejections.
        self.rejected: dict[str, dict[str, list[str]]] = dict(document["verifier_rejected"])

    @classmethod
    def load(cls, path: Path = REFERENCE_PATH) -> "Reference":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def check(self, label: str, payload: Mapping[str, object]) -> str | None:
        """A description of how ``payload`` drifts from the pin, or ``None``."""
        expected = self.jobs.get(label)
        if expected is None:
            return f"{label}: no pinned reference"
        got = counts(payload)
        drift = [f"{k} {expected[k]:g} -> {got[k]:g}" for k in COUNT_FIELDS if got[k] != expected[k]]
        return f"{label}: " + ", ".join(drift) if drift else None

    def unexpected_rejections(
        self, rejected: Mapping[str, Mapping[str, list[str]]]
    ) -> list[str]:
        """Rejections that are not pinned as known, with their codes."""
        return [
            f"{label} {backend}: {codes}"
            for label, by_backend in sorted(rejected.items())
            for backend, codes in sorted(by_backend.items())
            if self.rejected.get(label, {}).get(backend) != codes
        ]
