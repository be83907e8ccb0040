"""Worker fleet: sweeps, fault campaigns and the service share one pool.

The timing cores are pure Python, so threads cannot scale them; this module
runs tasks on dedicated worker processes instead — one fleet,
:func:`run_tasks_hardened`, with per-task wall-clock deadlines and watchdog
kill, classified retry with backoff, quarantine (not abort) of tasks that
keep failing, and heartbeats.  Each worker gets its tasks and returns its
results over one private pipe, so a worker's death costs only its own
task.  Fault campaigns (:mod:`repro.faults`) call it directly with a fixed
task list.
The service supervisor runs one fleet per drain and feeds it through the
``refill`` callback: each worker that frees up gets the next claimed job,
so one long job holds only its own worker.

Sweeps call it through :func:`run_point_groups_parallel`, once per
harness session: the session batches every selected figure's points.
Before the fleet starts, the pre-pass the service runs too,
:func:`~repro.harness.context.fill_workload_cache`, builds the missing
phase one (programs, braid compilations, prepared workloads) into the
artifact cache, and each worker loads what it runs.  With the cache
disabled the worker that runs a group builds its workload.  Results
come back in submission order, so a parallel sweep is deterministically
equal to the serial one (``jobs=1`` never reaches the fleet — tests and
debugging see the plain in-process path).  A sweep task that dies with
its worker (OOM kill, segfault, interpreter abort) re-runs serially in
the parent, so the sweep keeps every result.

Without the fork start method the fleet runs tasks serially in-process.
The worker count comes from the caller (``--jobs`` on
``python -m repro.harness``; an experiment context defaults to
``os.cpu_count()``).
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..service.retry import PERMANENT, RETRYABLE, RetryPolicy
from ..service.telemetry import describe_progress, heartbeat_age
from ..sim.results import SimResult
from .sweep import SweepPoint, run_point

_NOTED: Set[str] = set()


def _note_once(message: str) -> None:
    """Log a scheduling note to stderr, once per distinct message."""
    if message not in _NOTED:
        _NOTED.add(message)
        print(f"[repro.harness] note: {message}", file=sys.stderr)


def effective_jobs(jobs: int, pending: int) -> int:
    """Workers the pool would actually help with.

    Clamps the requested worker count to the pending work (sweep points;
    a pool larger than its work only pays fork cost) and to the host CPU
    count (extra workers would only time-slice), and falls back to the
    serial in-process path when the clamp leaves one worker or the host
    exposes a single CPU (workers would time-slice one core, adding pool
    and pickling overhead for nothing).  Every adjustment logs a note so a
    ``--jobs N`` request never degrades silently.
    """
    cpus = os.cpu_count() or 1
    capped = max(1, min(jobs, pending))
    if capped < jobs and pending > 0:
        _note_once(
            f"clamping --jobs {jobs} to {capped}: "
            f"only {pending} task(s) pending"
        )
    if capped > cpus > 1:
        _note_once(
            f"clamping --jobs {jobs} to {cpus}: host exposes {cpus} CPUs"
        )
        capped = cpus
    if capped > 1 and cpus == 1:
        _note_once(
            "host exposes a single CPU: running tasks serially "
            "in-process (a worker pool would only add fork overhead)"
        )
        return 1
    return capped


def run_point_groups_parallel(
    context, groups: Sequence[Sequence[SweepPoint]], jobs: int
) -> List[List[SimResult]]:
    """Simulate point groups on ``jobs`` fleet workers; results in order.

    Each group is one fleet task (one worker runs its points back to
    back), so callers that group workload-major —
    :meth:`ExperimentContext.run_many` — amortize the shared
    decode/replay facts across every config of a workload.  Results come
    back as one list per group, aligned with the request.  Groups get one
    attempt and no wall-clock deadline; a group the fleet could not
    finish (its worker died, or it raised) re-runs serially here, so a
    dead worker never loses the sweep and a task exception re-raises in
    the caller with its original type.
    """
    from ..obs.profiling import maybe_profiled

    groups = [list(group) for group in groups]

    def run_group(group: Sequence[SweepPoint]) -> List[SimResult]:
        return [run_point(context, point) for point in group]

    parent = os.getpid()

    def task(group: Sequence[SweepPoint]) -> List[SimResult]:
        # A forked worker dumps its own cProfile data under --profile;
        # in-process the caller's profile already covers the group.
        if os.getpid() == parent:
            return run_group(group)
        return maybe_profiled(lambda: run_group(group))

    outcomes = run_tasks_hardened(
        task,
        [(str(index), group) for index, group in enumerate(groups)],
        jobs=jobs,
        policy=RetryPolicy(max_attempts=1, deadline=math.inf),
    )
    lost = [outcome.error for outcome in outcomes if not outcome.ok]
    if lost:
        _note_once(
            f"{len(lost)} sweep task(s) did not finish on a worker "
            f"({lost[0]}); re-running them serially"
        )
    return [
        outcome.result if outcome.ok else run_group(group)
        for outcome, group in zip(outcomes, groups)
    ]


# --------------------------------------------------------------------------
# The worker fleet
# --------------------------------------------------------------------------

@dataclass
class TaskOutcome:
    """Final fate of one hardened task.

    ``status``:

    * ``"ok"`` — the worker function returned; ``result`` holds the value.
    * ``"quarantined"`` — the task could not produce a result: either
      every attempt ended in a retryable infrastructure failure (worker
      death, wall-clock timeout, delivery failure), or one attempt
      failed *permanently* (an ordinary exception escaping the worker
      function — deterministic, so retrying is waste; ``permanent`` is
      True).  ``error`` describes the last failure.  Quarantine is
      per-task: the campaign continues.
    """

    task_id: str
    status: str
    result: Any = None
    error: Optional[str] = None
    attempts: int = 0
    failures: List[str] = field(default_factory=list)
    #: the final failure was classified permanent (task bug, not infra)
    permanent: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _hardened_worker(fn, classify, conn) -> None:
    """Worker loop: run tasks from ``conn`` until the ``None`` sentinel.

    Each task arrives as ``(payload,)`` and its answer goes back on the
    same private pipe as ``("ok", result)`` or ``(kind, text)``.  An
    exception escaping ``fn`` is classified here, live, by ``classify`` —
    the policy's ``classify_error``, the rule the serial path uses — so
    ``kind`` is ``"retryable"`` or ``"permanent"`` and the parent never
    guesses from the text; a result that cannot be sent is retryable.
    Domain outcomes (an injected run crashing its simulator) are
    classified *inside* ``fn`` and come back as ordinary results.  The
    idle wait is bounded so a worker orphaned by a SIGKILLed parent
    (daemon flags only act on normal interpreter exit) notices the
    re-parenting and exits instead of blocking on the pipe forever.
    """
    while True:
        if not conn.poll(5.0):
            if os.getppid() == 1:  # parent died; we were re-parented
                return
            continue
        task = conn.recv()
        if task is None:
            return
        try:
            message = ("ok", fn(task[0]))
        except BaseException as error:  # noqa: BLE001 - report, don't die
            message = (classify(error), f"{type(error).__name__}: {error}")
        try:
            conn.send(message)
        except BaseException as error:  # e.g. the result does not pickle
            conn.send((
                RETRYABLE,
                f"result delivery failed: {type(error).__name__}: {error}",
            ))


@dataclass
class _Assignment:
    """One in-flight task on one hardened worker."""

    index: int
    task_id: str
    attempt: int
    #: monotonic kill deadline (extended while heartbeats show progress)
    deadline: float
    #: monotonic dispatch time (bounds total extension)
    dispatched: float
    #: last heartbeat snapshot seen at a deadline check
    last_beat: Optional[Dict[str, Any]] = None


class _HardenedWorker:
    """One dedicated worker process plus its private duplex pipe.

    Tasks go down and results come back on the one pipe.  Unlike a
    shared ``multiprocessing.Queue`` it has no cross-process lock a
    dying worker could leak: each direction has one writer.  A worker
    killed mid-send leaves a torn message, which the parent's ``recv``
    reports as end of file — the same as the worker's death — and the
    pipe is discarded with the worker.
    """

    def __init__(self, mp_context, fn, classify) -> None:
        self.conn, child = mp_context.Pipe()
        self.process = mp_context.Process(
            target=_hardened_worker, args=(fn, classify, child), daemon=True
        )
        self.process.start()
        child.close()
        self.assignment: Optional[_Assignment] = None

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=1.0)
        self.kill()


def _run_tasks_serial(
    fn, tasks, policy: RetryPolicy, on_result=None, refill=None
) -> List[TaskOutcome]:
    """In-process fallback (jobs=1 / no fork): retries but no watchdog.

    Each task settles before the next is taken, so ``refill`` is called
    only once the task list and every earlier refill have settled.
    """
    if refill is not None:
        tasks = itertools.chain(tasks, iter(refill, None))
    outcomes = []
    for task_id, payload in tasks:
        outcome = TaskOutcome(task_id=task_id, status="quarantined")
        for attempt in range(1, policy.max_attempts + 1):
            outcome.attempts = attempt
            try:
                outcome.result = fn(payload)
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                outcome.failures.append(f"attempt {attempt}: {message}")
                outcome.error = outcome.failures[-1]
                if policy.classify_error(error) == PERMANENT:
                    # Deterministic task error: retrying cannot help.
                    outcome.permanent = True
                    break
                if attempt < policy.max_attempts:
                    time.sleep(policy.delay(task_id, attempt))
            else:
                outcome.status = "ok"
                outcome.error = None
                break
        outcomes.append(outcome)
        if on_result is not None:
            on_result(outcome)
    return outcomes


def _deadline_extension_ok(
    assignment: _Assignment,
    snapshot: Optional[Dict],
    now: float,
    deadline: float,
    hang_grace: float,
    extension_cap: float,
) -> bool:
    """Is this deadline miss a *slow but progressing* task, not a hang?

    Requires a heartbeat no older than ``hang_grace`` seconds whose
    progress key (cells, instructions, cycles) advanced since the last
    deadline check, and total wall clock still inside ``extension_cap``
    deadlines — a publisher that keeps heartbeating identical state (or
    stops) is treated as hung.
    """
    if snapshot is None:
        return False
    if now - assignment.dispatched + deadline > deadline * extension_cap:
        return False
    age = heartbeat_age(snapshot)
    if age is None or age > hang_grace:
        return False

    def key(beat: Optional[Dict]) -> Tuple[int, int, int]:
        if beat is None:
            return (-1, -1, -1)
        return (
            int(beat.get("cells_done", 0) or 0),
            int(beat.get("instructions", 0) or 0),
            int(beat.get("cycles", 0) or 0),
        )

    return key(snapshot) > key(assignment.last_beat)


def run_tasks_hardened(
    fn: Callable[[Any], Any],
    tasks: Sequence[Tuple[str, Any]],
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    on_result: Optional[Callable[[TaskOutcome], None]] = None,
    progress_probe: Optional[Callable[[str], Optional[Dict]]] = None,
    hang_grace: float = 2.0,
    extension_cap: float = 4.0,
    refill: Optional[Callable[[], Optional[Tuple[str, Any]]]] = None,
) -> List[TaskOutcome]:
    """Run ``fn`` over ``tasks`` on workers that are allowed to die.

    ``tasks`` is a sequence of ``(task_id, payload)``.  ``refill``
    (optional) offers more work one task at a time: it returns the next
    ``(task_id, payload)``, or ``None`` when there is no more, after
    which it is never called again.  It is called only when a worker is
    idle and nothing — no listed task, no retry waiting out its backoff —
    is pending, so offered-but-unsettled tasks never exceed the worker
    count; the service supervisor claims each job there, just in time.
    Outcomes come back in offer order: ``tasks`` first, then each
    refill.  Guarantees the sweeps, the campaign runner and the service
    supervisor need:

    * **watchdog kill** — a task that exceeds the policy deadline of wall
      clock gets its worker killed and respawned;
    * **classified, bounded retry with backoff** — *retryable*
      infrastructure failures (worker death, including a worker killed
      while sending its result; watchdog timeout; a result that does
      not pickle; OSError-family exceptions) are retried up to the
      policy's attempt budget, each retry delayed by capped exponential
      backoff with deterministic per-(task, attempt) jitter; *permanent*
      task errors (any other exception escaping ``fn``, or a payload
      that does not pickle) quarantine immediately — they would fail
      identically every time;
    * **quarantine, not abort** — a task that exhausts its attempts (or
      fails permanently) is marked ``"quarantined"`` and the remaining
      tasks keep running;
    * **incremental delivery** — ``on_result`` fires as each task settles
      (the campaign journal appends there), so a SIGKILL of the *parent*
      loses at most the in-flight tasks.

    ``policy`` is the shared :class:`~repro.service.retry.RetryPolicy`
    (default: ``RetryPolicy()`` — three attempts, 120-second deadline).

    ``progress_probe`` (optional, ``task_id -> heartbeat snapshot dict
    or None`` — the service passes
    :meth:`~repro.service.jobstore.JobStore.progress`) lets the watchdog
    distinguish *hung* from *slow but progressing* at the deadline: a
    task whose last heartbeat is at most ``hang_grace`` seconds old
    **and** shows forward progress since the previous check gets its
    deadline extended by one ``policy.deadline``, up to
    ``extension_cap`` deadlines of total wall clock — after which (or
    with a stale/absent heartbeat) the worker is killed, and the error
    text records the last heartbeat age and reported progress so the
    retired job is diagnosable post-mortem.

    ``jobs=1`` (or a platform without the fork start method) runs tasks
    serially in-process with the same classification/retry/quarantine
    semantics but no wall-clock watchdog — an in-simulator watchdog
    (:class:`~repro.sim.core.SimulationHang`) still bounds hangs there.
    ``jobs > 1`` always forks, even for a single known task; the worker
    count is then clamped to the host CPUs and, without ``refill``, to
    the task count.
    """
    if policy is None:
        policy = RetryPolicy()
    tasks = list(tasks)
    if not tasks and refill is None:
        return []
    if jobs > 1:
        try:
            mp_context = multiprocessing.get_context("fork")
        except ValueError:
            _note_once(
                "fork start method unavailable on this platform: running "
                "hardened tasks serially in-process (no wall-clock watchdog)"
            )
            jobs = 1
    if jobs <= 1:
        return _run_tasks_serial(fn, tasks, policy, on_result, refill)

    if refill is None:
        jobs = min(jobs, len(tasks))
    jobs = max(1, min(jobs, os.cpu_count() or 1))

    def spawn() -> _HardenedWorker:
        return _HardenedWorker(mp_context, fn, policy.classify_error)

    workers = [spawn() for _ in range(jobs)]
    outcomes: Dict[int, TaskOutcome] = {}
    partial: Dict[int, TaskOutcome] = {
        index: TaskOutcome(task_id=task_id, status="quarantined")
        for index, (task_id, _) in enumerate(tasks)
    }
    #: (not_before, index, attempt)
    pending: List[Tuple[float, int, int]] = [
        (0.0, index, 1) for index in range(len(tasks))
    ]

    def settle(
        index: int, status: str, result=None, error=None,
        permanent: bool = False,
    ) -> None:
        outcome = partial[index]
        outcome.status = status
        outcome.result = result
        outcome.error = error
        outcome.permanent = permanent
        outcomes[index] = outcome
        if on_result is not None:
            on_result(outcome)

    def fail_attempt(
        index: int, attempt: int, reason: str, kind: Optional[str] = None
    ) -> None:
        """Record a failed attempt; ``kind`` is the worker's classification
        of a task exception, else ``reason`` is the runner's own report."""
        outcome = partial[index]
        outcome.failures.append(f"attempt {attempt}: {reason}")
        task_id = tasks[index][0]
        if (kind or policy.classify(reason)) == PERMANENT:
            # A deterministic task error reproduces on every retry;
            # quarantine now instead of burning the attempt budget.
            settle(
                index, "quarantined", error=outcome.failures[-1],
                permanent=True,
            )
        elif attempt >= policy.max_attempts:
            settle(index, "quarantined", error=outcome.failures[-1])
        else:
            not_before = time.monotonic() + policy.delay(task_id, attempt)
            pending.append((not_before, index, attempt + 1))

    try:
        while True:
            now = time.monotonic()
            # Dispatch ready tasks to idle workers, refilling an idle
            # worker only when nothing at all is pending.
            for worker in workers:
                while worker.assignment is None:
                    if not pending and refill is not None:
                        offered = refill()
                        if offered is None:
                            refill = None
                        else:
                            partial[len(tasks)] = TaskOutcome(
                                task_id=offered[0], status="quarantined"
                            )
                            pending.append((0.0, len(tasks), 1))
                            tasks.append(offered)
                    slot = None
                    for position, item in enumerate(pending):
                        if item[0] <= now:
                            slot = position
                            break
                    if slot is None:
                        break
                    _, index, attempt = pending.pop(slot)
                    task_id, payload = tasks[index]
                    partial[index].attempts = attempt
                    worker.assignment = _Assignment(
                        index=index, task_id=task_id, attempt=attempt,
                        deadline=now + policy.deadline, dispatched=now,
                    )
                    try:
                        worker.conn.send((payload,))
                    except OSError:
                        pass  # the worker is gone; its sentinel reports it
                    except Exception as error:  # the payload does not pickle
                        # send pickles before it writes: the pipe is clean
                        # and the worker stays idle for the next task.
                        worker.assignment = None
                        fail_attempt(
                            index, attempt,
                            f"task delivery failed: "
                            f"{type(error).__name__}: {error}",
                        )
            if refill is None and len(outcomes) == len(tasks):
                break
            # Sleep until a worker answers or dies, or until the nearest
            # deadline or retry backoff comes due.
            wake = [w.assignment.deadline for w in workers if w.assignment]
            if pending and any(w.assignment is None for w in workers):
                wake.append(min(item[0] for item in pending))
            timeout = min(wake, default=math.inf) - now
            ready = wait(
                [w.conn for w in workers if w.assignment]
                + [w.process.sentinel for w in workers],
                None if timeout == math.inf else max(0.0, timeout),
            )
            # Collect results, replace dead workers, enforce deadlines.
            now = time.monotonic()
            for position, worker in enumerate(workers):
                assignment = worker.assignment
                if assignment is not None and worker.conn in ready:
                    try:
                        status, value = worker.conn.recv()
                    except (EOFError, OSError):
                        # No result, or a torn one: the worker died, maybe
                        # mid-send.  Reap it so its exit code is known.
                        worker.kill()
                    else:
                        worker.assignment = None
                        if status == "ok":
                            settle(assignment.index, "ok", result=value)
                        else:
                            fail_attempt(
                                assignment.index, assignment.attempt, value,
                                kind=status,
                            )
                        assignment = None
                if assignment is None:
                    if not worker.process.is_alive():
                        worker.kill()
                        workers[position] = spawn()
                    continue
                task_id = assignment.task_id
                attempt = assignment.attempt
                reason = None
                snapshot = None
                if not worker.process.is_alive():
                    code = worker.process.exitcode
                    reason = f"worker died mid-task (exit code {code})"
                    if progress_probe is not None:
                        snapshot = progress_probe(task_id)
                        reason += f"; {describe_progress(snapshot)}"
                elif now > assignment.deadline:
                    if progress_probe is not None:
                        snapshot = progress_probe(task_id)
                    if _deadline_extension_ok(
                        assignment, snapshot, now, policy.deadline,
                        hang_grace, extension_cap,
                    ):
                        assignment.deadline = now + policy.deadline
                        assignment.last_beat = snapshot
                        _note_once(
                            f"hardened task {task_id!r}: slow but "
                            f"progressing ({describe_progress(snapshot)}); "
                            f"deadline extended"
                        )
                        continue
                    elapsed = now - assignment.dispatched
                    reason = (
                        f"wall-clock timeout after {elapsed:.1f}s "
                        f"(worker killed; {describe_progress(snapshot)})"
                        if progress_probe is not None else
                        f"wall-clock timeout after {elapsed:.1f}s "
                        f"(worker killed)"
                    )
                if reason is not None:
                    _note_once(
                        f"hardened task {task_id!r}: {reason}; "
                        f"attempt {attempt}/{policy.max_attempts}"
                    )
                    worker.kill()
                    workers[position] = spawn()
                    fail_attempt(assignment.index, attempt, reason)
    finally:
        for worker in workers:
            worker.stop()
    return [outcomes[index] for index in range(len(tasks))]
