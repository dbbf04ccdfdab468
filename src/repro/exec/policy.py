"""Composable resilience policies for the execution substrate.

:class:`RetryPolicy` and :class:`BreakerPolicy` are the retry/backoff and
circuit-breaker knobs that used to live inside ``campaign/runner.py``,
lifted out so both executor backends (inline and process pool) share
one implementation.

Backoff jitter is **deterministic per (task, attempt)**: the RNG is seeded
from the task's content-addressed fingerprint, so a resumed or re-driven
run sleeps the same schedule without any shared mutable state.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.errors import ExecError
from repro.exec.task import Task


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded retries and deterministic jitter.

    ``max_retries`` is the number of *re*-tries after the first attempt;
    ``max_retries=0`` means exactly one attempt.  Delay before retry
    ``n`` (0-based) is ``min(cap, base * 2**n)`` stretched by up to
    ``jitter`` (a fraction) of itself.
    """

    max_retries: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    backoff_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ExecError(f"max_retries {self.max_retries} must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ExecError("backoff base/cap must be >= 0")
        if self.backoff_jitter < 0:
            raise ExecError("backoff jitter must be >= 0")

    def delay(self, task: Task, attempt: int) -> float:
        """Seconds to sleep before re-running ``task`` after failed
        attempt number ``attempt`` (0-based)."""
        delay = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        seed_text = f"{task.fingerprint()}:backoff:{attempt}"
        seed = int.from_bytes(
            hashlib.sha256(seed_text.encode()).digest()[:8], "big"
        )
        rng = random.Random(seed)
        return delay * (1.0 + self.backoff_jitter * rng.random())


@dataclass(frozen=True)
class BreakerPolicy:
    """Abort dispatch after too many *consecutive* failed attempts.

    A long failure streak across tasks is the signature of a broken
    environment (full disk, missing interpreter, dead pool) rather than a
    run of individually-bad tasks; the breaker stops the spin instead of
    burning every task's retry budget.
    """

    max_consecutive_failures: int = 16

    def __post_init__(self) -> None:
        if self.max_consecutive_failures <= 0:
            raise ExecError("max_consecutive_failures must be positive")

    def trip_reason(self, consecutive: int, last_message: str) -> str | None:
        """The abort reason once the streak crosses the limit, else None."""
        if consecutive >= self.max_consecutive_failures:
            return (
                f"circuit breaker: {consecutive} consecutive "
                f"failed attempts (last: {last_message})"
            )
        return None


__all__ = ["RetryPolicy", "BreakerPolicy"]
