"""Unified retry policy: classified errors, capped deterministic backoff.

Both the fault-campaign dispatcher (:func:`~repro.harness.parallel.
run_tasks_hardened`) and the service supervisor face the same question
after a failed attempt: *was that the infrastructure or the task?*  A
worker SIGKILLed by the OOM killer deserves a retry; a ``ValueError``
raised deterministically by the task function will raise again forever
and deserves immediate quarantine.  This module is the one place that
answer lives, so campaign and service behavior match.

Backoff is exponential with a per-(task, attempt) *deterministic* jitter:
the fraction comes from a SHA-256 digest, not ``random``, so two
same-seed campaigns schedule their retries identically (process-salted
``hash()`` and wall-clock randomness would both break the bit-identical
reproducibility contract the rest of the repo keeps).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: exception type names whose escape from a task function indicates the
#: *infrastructure* failed (transient: disk, memory, pipes), not the task
RETRYABLE_EXCEPTION_NAMES = frozenset(
    {
        "OSError",
        "IOError",
        "EOFError",
        "MemoryError",
        "TimeoutError",
        "BrokenPipeError",
        "ConnectionError",
        "ConnectionResetError",
        "ConnectionRefusedError",
        "InterruptedError",
        "BlockingIOError",
        "BrokenProcessPool",
    }
)

#: failure-message prefixes produced by the hardened runner and the
#: supervisor themselves for events that are infrastructure by construction
_INFRA_MARKERS = (
    "worker died",
    "wall-clock timeout",
    "result delivery failed",
    "result store write failed",
)

RETRYABLE = "retryable"
PERMANENT = "permanent"


def classify_failure(message: str) -> str:
    """``"retryable"`` (infra) or ``"permanent"`` for a runner's own report.

    ``message`` is a failure the hardened runner or the supervisor wrote
    itself: worker death, watchdog timeout, a delivery or result-store
    failure (each begins with one of :data:`_INFRA_MARKERS`) is retryable;
    any other report — a payload that does not pickle — is permanent.
    Exceptions escaping a task function are never classified from their
    text: both execution paths classify the live exception with
    :func:`classify_exception`.
    """
    text = (message or "").strip().lower()
    return RETRYABLE if text.startswith(_INFRA_MARKERS) else PERMANENT


def classify_exception(error: BaseException) -> str:
    """Classification for a live exception escaping a task function.

    Both execution paths use it: the serial in-process loop, and each
    forked worker before it reports the failure to the parent.
    """
    for klass in type(error).__mro__:
        if klass.__name__ in RETRYABLE_EXCEPTION_NAMES:
            return RETRYABLE
    return PERMANENT


@dataclass(frozen=True)
class RetryPolicy:
    """How failed attempts are classified, delayed, and bounded.

    * ``max_attempts`` — total tries per task (1 = no retries);
    * ``backoff`` — base delay in seconds; attempt *n*'s delay is
      ``backoff * 2**(n-1)``, jittered to ``[0.5x, 1.5x)`` and capped at
      ``backoff_cap``;
    * ``deadline`` — per-attempt wall-clock budget in seconds; the
      hardened runner's watchdog kills the worker past it (classified
      retryable);
    * ``seed`` — identity of the jitter stream (same seed + task id +
      attempt → same delay, always).
    """

    max_attempts: int = 3
    backoff: float = 0.5
    backoff_cap: float = 30.0
    deadline: float = 120.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff < 0 or self.backoff_cap < 0:
            raise ValueError("backoff and backoff_cap must be >= 0")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")

    # -------------------------------------------------------- classification
    def classify(self, message: str) -> str:
        return classify_failure(message)

    def classify_error(self, error: BaseException) -> str:
        return classify_exception(error)

    # --------------------------------------------------------------- backoff
    def jitter_fraction(self, task_id: str, attempt: int) -> float:
        """Deterministic uniform-ish fraction in ``[0, 1)`` for one retry."""
        digest = hashlib.sha256(
            f"{self.seed}:{task_id}:{attempt}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def delay(self, task_id: str, attempt: int) -> float:
        """Seconds to wait before re-dispatching after failed ``attempt``."""
        base = self.backoff * (2 ** max(0, attempt - 1))
        jittered = base * (0.5 + self.jitter_fraction(task_id, attempt))
        return min(self.backoff_cap, jittered)
