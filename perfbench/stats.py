"""Medians and percentiles for the benchmark's figures.

Medians are Harrell-Davis estimates (see :func:`median`).  Tail percentiles
are nearest-rank, so every reported tail latency is one that occurred, and
follow one rule: report the highest percentile of :data:`TAIL_LADDER` that
still has at least :data:`MIN_BEYOND` samples above it, together with that
percentile and the sample count; report none when no percentile above the
median qualifies.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["MIN_BEYOND", "TAIL_LADDER", "Tail", "median", "percentile", "tail"]

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a percentile for it to count as measured.
MIN_BEYOND = 10

#: Midpoint-rule steps per rank when integrating the Harrell-Davis weights.
_STEPS = 16


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    return max(1, math.ceil(q / 100.0 * count))


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, the weights falling off from
    the middle rank as a Beta((n+1)/2, (n+1)/2) density.  The benchmarks'
    jobs come in clusters of different sizes, and the middle order statistic
    of such a sample jumps from one cluster to the next when the median
    falls between two; this estimate moves smoothly instead.
    """
    if not values:
        raise ValueError("median of no samples")
    ordered = np.sort(np.asarray(values, dtype=float))
    count = len(ordered)
    # the density in units of its peak, so that no term underflows
    x = (np.arange(count * _STEPS) + 0.5) / (count * _STEPS)
    density = (4.0 * x * (1.0 - x)) ** ((count - 1) / 2.0)
    weights = density.reshape(count, _STEPS).sum(axis=1)
    return float(weights @ ordered / weights.sum())


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int
    beyond: int


def tail(values: Sequence[float]) -> Tail | None:
    """The tail latency under the rule in the module docstring, or ``None``."""
    count = len(values)
    for q in TAIL_LADDER:
        beyond = count - _rank(count, q)
        if beyond >= MIN_BEYOND:
            return Tail(percentile(values, q), q, count, beyond)
    return None
