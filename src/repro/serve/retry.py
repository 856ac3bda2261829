"""Capped exponential backoff with jitter and a total-deadline budget.

Shared by every reconnect loop in the serve & farm layers: the
``ServeClient`` connect path (``repro submit`` included) and the farm
worker's coordinator reconnects.  One policy object answers both
"how long do I sleep before attempt N?" and "have I blown my budget?",
so callers can't drift apart on semantics.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class BackoffPolicy:
    """Delay schedule: ``initial * multiplier**n`` capped at ``cap``, each
    delay jittered uniformly in ``[delay * (1 - jitter), delay]``, bounded
    by ``max_attempts`` tries and ``max_total_seconds`` of wall clock."""

    initial: float = 0.1
    cap: float = 5.0
    multiplier: float = 2.0
    jitter: float = 0.5
    max_attempts: int = 20
    max_total_seconds: float = 60.0

    def delays(self, rng: Optional[random.Random] = None) -> Iterator[float]:
        """Yield the jittered sleep before each retry (attempt 2, 3, ...)."""

        draw = (rng or random).random
        delay = self.initial
        while True:
            capped = min(delay, self.cap)
            yield capped * (1.0 - self.jitter * draw())
            delay = min(delay * self.multiplier, self.cap)


def retry_call(
    operation: Callable[[], T],
    *,
    policy: BackoffPolicy,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
    on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
) -> T:
    """Call ``operation`` under the policy's attempt and deadline budget.

    Retries on ``retry_on`` exceptions with capped-exponential-jittered
    sleeps; raises the last exception once either budget is exhausted.
    ``on_retry(attempt, exc, delay)`` is invoked before each sleep.
    """

    deadline = clock() + policy.max_total_seconds
    delays = policy.delays(rng)
    attempt = 0
    while True:
        attempt += 1
        try:
            return operation()
        except retry_on as exc:
            if attempt >= policy.max_attempts:
                raise
            delay = next(delays)
            if clock() + delay > deadline:
                raise
            if on_retry is not None:
                on_retry(attempt, exc, delay)
            sleep(delay)
