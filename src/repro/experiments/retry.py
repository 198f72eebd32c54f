"""Retry policy and failure records for the campaign runtime.

The fault-tolerant campaign executor (:mod:`repro.experiments.runner`)
treats every task failure — a worker exception, a deadline overrun, or a
dead worker process — as a :class:`TaskError` and decides, via a
:class:`RetryPolicy`, whether to retry the task or quarantine the spec.

Backoff delays are *deterministic*: the jitter is derived from a SHA-256
over the task's content key and attempt number, never from wall-clock
entropy, so two runs of the same campaign schedule retries identically
(results never depend on it either way — every scenario rebuilds from
its spec's own seed).
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass
from typing import Optional


def _unit_interval(*parts: object) -> float:
    """Deterministic uniform draw in [0, 1) keyed by ``parts``."""
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class RetryPolicy:
    """How the campaign executor reacts to task failures.

    Attributes
    ----------
    max_retries:
        Retries allowed *after* the first attempt; a task that fails
        ``max_retries + 1`` attempts is quarantined (recorded with its
        traceback, excluded from the campaign verdict, never fatal).
    task_timeout:
        Per-attempt deadline in seconds; ``None`` disables deadlines.
        A task past its deadline is declared hung, its worker pool is
        torn down (killing the hung worker), and the attempt counts as
        a failure.  Deadlines are only enforced on the pool path —
        the serial in-process path has no second thread to interrupt.
    backoff_base:
        First retry delay in seconds (0 disables sleeping, useful in
        tests); doubles every further attempt up to ``backoff_cap``.
    backoff_cap:
        Upper bound on the un-jittered delay.
    backoff_jitter:
        Fractional jitter added on top of the exponential delay
        (0.5 means up to +50%), drawn deterministically per
        (task key, attempt).
    """

    max_retries: int = 2
    task_timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_cap < self.backoff_base:
            raise ValueError("backoff_cap must be >= backoff_base")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (2 = first retry) of ``key``.

        Exponential in the attempt number, capped, with deterministic
        jitter so simultaneous retries of different specs spread out
        the same way in every run.
        """
        if self.backoff_base <= 0:
            return 0.0
        raw = min(
            self.backoff_cap,
            self.backoff_base * 2.0 ** max(0, attempt - 2),
        )
        jitter = self.backoff_jitter * _unit_interval("backoff", key, attempt)
        return raw * (1.0 + jitter)


@dataclass(frozen=True)
class TaskError:
    """Picklable record of one failed task attempt.

    ``kind`` is one of ``"exception"`` (the task raised), ``"timeout"``
    (it overran its deadline), ``"worker-crash"`` (its worker process
    died — SIGKILL, OOM, segfault — taking the pool with it), or
    ``"invalid-spec"`` (the spec cannot run at all, so it was
    quarantined before any attempt).
    """

    kind: str
    message: str
    traceback_text: str = ""

    @classmethod
    def from_exception(
        cls, exc: BaseException, kind: str = "exception"
    ) -> "TaskError":
        """Record a caught exception: its type, message and traceback."""
        return cls(
            kind=kind,
            message=f"{type(exc).__name__}: {exc}",
            traceback_text="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )

    def describe(self) -> str:
        """One-block description for journals and quarantine reports."""
        text = f"{self.kind}: {self.message}"
        if self.traceback_text:
            text += "\n" + self.traceback_text.rstrip()
        return text
