"""Deterministic infrastructure-fault injection for the service.

:mod:`repro.faults` proves the *microarchitecture* recovers from bit
flips; this module proves the *service* recovers from infrastructure
death.  A :class:`ChaosSpec` names exact fault points — "SIGKILL the
worker running job X on its first N executions", "fail the durable
``done`` append for job Y once", "SIGKILL the supervisor after its K-th
settled job" — and the service consults :func:`chaos_point` at those
points.

Determinism comes from two pieces:

* the spec itself is explicit (the chaos *harness* derives it from a
  seed, the service just obeys it), and
* each budgeted occurrence is consumed through an ``O_EXCL`` mark file
  under the store, so the budget holds across worker forks, supervisor
  restarts, and concurrent processes — job X dies exactly N times no
  matter how the scheduler interleaves.

The hooks are armed only by the ``REPRO_CHAOS`` environment variable
(plus ``REPRO_CHAOS_DIR`` for the mark files); when it is unset every
chaos point is a single dictionary lookup away from a no-op, so
production runs pay nothing.

Spec grammar (``;``-separated clauses)::

    kill-worker:<job_id>@<times>     SIGKILL the worker at job start
    fail-write:<job_id>@<times>      OSError(ENOSPC) journaling ``done``
    kill-supervisor:<k>              SIGKILL self after k settled jobs

Example::

    REPRO_CHAOS="kill-worker:j000002-5f3a@1;kill-supervisor:3"
"""

from __future__ import annotations

import errno
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

ENV_CHAOS = "REPRO_CHAOS"
ENV_CHAOS_DIR = "REPRO_CHAOS_DIR"

KILL_WORKER = "kill-worker"
FAIL_WRITE = "fail-write"
KILL_SUPERVISOR = "kill-supervisor"


class ChaosSpecError(ValueError):
    """An unparseable ``REPRO_CHAOS`` spec."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed fault plan: which points fire, and how many times."""

    #: job_id -> number of executions that die at the kill-worker point
    kill_worker: Dict[str, int] = field(default_factory=dict)
    #: job_id -> number of ``done`` appends that raise ENOSPC
    fail_write: Dict[str, int] = field(default_factory=dict)
    #: SIGKILL the supervisor once, after this many settled jobs
    kill_supervisor_after: Optional[int] = None

    @classmethod
    def parse(cls, spec: str) -> "ChaosSpec":
        kill_worker: Dict[str, int] = {}
        fail_write: Dict[str, int] = {}
        kill_supervisor_after: Optional[int] = None
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if ":" not in clause:
                raise ChaosSpecError(
                    f"chaos clause {clause!r} has no ':'; "
                    f"expected point:target"
                )
            point, target = clause.split(":", 1)
            point = point.strip()
            target = target.strip()
            if point in (KILL_WORKER, FAIL_WRITE):
                times = 1
                job_id = target
                if "@" in target:
                    job_id, _, count = target.rpartition("@")
                    try:
                        times = int(count)
                    except ValueError:
                        raise ChaosSpecError(
                            f"chaos clause {clause!r}: occurrence count "
                            f"{count!r} is not an integer"
                        ) from None
                if not job_id or times < 1:
                    raise ChaosSpecError(
                        f"chaos clause {clause!r} needs a job id and a "
                        f"positive count"
                    )
                table = kill_worker if point == KILL_WORKER else fail_write
                table[job_id] = times
            elif point == KILL_SUPERVISOR:
                try:
                    kill_supervisor_after = int(target)
                except ValueError:
                    raise ChaosSpecError(
                        f"chaos clause {clause!r}: settle count "
                        f"{target!r} is not an integer"
                    ) from None
                if kill_supervisor_after < 0:
                    raise ChaosSpecError(
                        f"chaos clause {clause!r}: settle count must be >= 0"
                    )
            else:
                raise ChaosSpecError(
                    f"unknown chaos point {point!r}; expected one of "
                    f"{KILL_WORKER}, {FAIL_WRITE}, {KILL_SUPERVISOR}"
                )
        return cls(
            kill_worker=kill_worker,
            fail_write=fail_write,
            kill_supervisor_after=kill_supervisor_after,
        )

    def render(self) -> str:
        """The ``REPRO_CHAOS`` string that parses back to this spec."""
        clauses = []
        for job_id, times in sorted(self.kill_worker.items()):
            clauses.append(f"{KILL_WORKER}:{job_id}@{times}")
        for job_id, times in sorted(self.fail_write.items()):
            clauses.append(f"{FAIL_WRITE}:{job_id}@{times}")
        if self.kill_supervisor_after is not None:
            clauses.append(f"{KILL_SUPERVISOR}:{self.kill_supervisor_after}")
        return ";".join(clauses)

    def environ(self, marks_dir: Path) -> Dict[str, str]:
        """Environment entries that arm this spec for a child process."""
        return {
            ENV_CHAOS: self.render(),
            ENV_CHAOS_DIR: str(marks_dir),
        }


def spec_from_env() -> Optional[ChaosSpec]:
    """The armed spec, or None when chaos is off (the common case)."""
    value = os.environ.get(ENV_CHAOS, "").strip()
    if not value:
        return None
    return ChaosSpec.parse(value)


def _marks_dir() -> Optional[Path]:
    value = os.environ.get(ENV_CHAOS_DIR, "").strip()
    if not value:
        return None
    return Path(value)


def _consume_mark(marks: Path, point: str, key: str, budget: int) -> bool:
    """Atomically claim one of ``budget`` occurrences; False if spent.

    ``O_CREAT | O_EXCL`` makes each mark file a cross-process
    compare-and-swap: exactly one process wins each occurrence slot, so
    a budget of N fires exactly N times across any interleaving of
    workers and supervisor restarts.
    """
    marks.mkdir(parents=True, exist_ok=True)
    safe_key = key.replace(os.sep, "_")
    for occurrence in range(budget):
        path = marks / f"{point}-{safe_key}-{occurrence}.mark"
        try:
            fd = os.open(str(path), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            return False
        os.close(fd)
        return True
    return False


def chaos_point(point: str, key: str) -> None:
    """Fire the configured fault at a named service point (usually no-op).

    * ``kill-worker`` — SIGKILL the calling process (no cleanup, no
      atexit: exactly the failure mode the hardened runner must survive);
    * ``fail-write`` — raise ``OSError(ENOSPC)``, simulating disk-quota
      exhaustion on the durable ``done`` append that publishes a result;
    * ``kill-supervisor`` — SIGKILL the calling process when ``key``
      (the settled-job count) has reached the configured threshold.
    """
    spec = spec_from_env()
    if spec is None:
        return
    marks = _marks_dir()
    if marks is None:
        return
    if point == KILL_WORKER:
        budget = spec.kill_worker.get(key, 0)
        if budget and _consume_mark(marks, point, key, budget):
            os.kill(os.getpid(), signal.SIGKILL)
    elif point == FAIL_WRITE:
        budget = spec.fail_write.get(key, 0)
        if budget and _consume_mark(marks, point, key, budget):
            raise OSError(
                errno.ENOSPC,
                f"chaos: simulated disk-quota exhaustion publishing {key}",
            )
    elif point == KILL_SUPERVISOR:
        threshold = spec.kill_supervisor_after
        if threshold is None:
            return
        try:
            settled = int(key)
        except ValueError:
            return
        if settled >= threshold and _consume_mark(
            marks, point, "supervisor", 1
        ):
            os.kill(os.getpid(), signal.SIGKILL)
