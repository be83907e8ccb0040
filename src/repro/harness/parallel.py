"""Worker fleet: sweeps, fault campaigns and the service share one pool.

The timing cores are pure Python, so threads cannot scale them; this module
runs tasks on dedicated worker processes instead — one fleet,
:func:`run_tasks_hardened`, with per-task wall-clock deadlines and watchdog
kill, classified retry with backoff, quarantine (not abort) of tasks that
keep failing, heartbeats, and crash-safe file-inbox result delivery.  Fault
campaigns (:mod:`repro.faults`) call it directly with a fixed task list.
The service supervisor runs one fleet per drain and feeds it through the
``refill`` callback: each worker that frees up gets the next claimed job,
so one long job holds only its own worker.

Sweeps call it through :func:`run_point_groups_parallel`.  The parent
warms phase one (programs, braid compilations, prepared workloads) before
the fleet forks, so the workers inherit the warm context copy-on-write and
pay nothing for it.  Results come back in submission order, so a parallel
sweep is deterministically equal to the serial one (``jobs=1`` never
reaches the fleet — tests and debugging see the plain in-process path).  A
sweep task that dies with its worker (OOM kill, segfault, interpreter
abort) re-runs serially in the parent, so the sweep keeps every result.

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
import pickle
import queue as queue_module
import select
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..service.retry import PERMANENT, RetryPolicy
from ..sim.results import SimResult
from .sweep import SweepPoint

_NOTED: Set[str] = set()


def _note_once(message: str) -> None:
    """Log a scheduling note to stderr, once per distinct message."""
    if message not in _NOTED:
        _NOTED.add(message)
        print(f"[repro.harness] note: {message}", file=sys.stderr)


def effective_jobs(jobs: int, pending: int) -> int:
    """Workers the pool would actually help with.

    Clamps the requested worker count to the number of pending points (a
    pool larger than its work only pays fork cost) and to the host CPU
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
            f"only {pending} sweep point(s) pending"
        )
    if capped > cpus > 1:
        _note_once(
            f"clamping --jobs {jobs} to {cpus}: host exposes {cpus} CPUs"
        )
        capped = cpus
    if capped > 1 and cpus == 1:
        _note_once(
            "host exposes a single CPU: running sweep points serially "
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
    # Warm phase one in the parent so forked workers share it copy-on-write.
    for benchmark, braided, perfect, internal_limit in {
        (p.benchmark, p.braided, p.perfect, p.internal_limit)
        for group in groups
        for p in group
    }:
        context.workload(
            benchmark,
            braided=braided,
            perfect=perfect,
            internal_limit=internal_limit,
        )

    def run_group(group: Sequence[SweepPoint]) -> List[SimResult]:
        return [
            context.run(
                point.benchmark,
                point.config,
                braided=point.braided,
                perfect=point.perfect,
                internal_limit=point.internal_limit,
            )
            for point in group
        ]

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


def _deliver_message(inbox: str, message: Tuple) -> None:
    """Atomically deliver one result message into the parent's inbox.

    Results travel through the filesystem, not a shared
    ``multiprocessing.Queue``, deliberately: a queue's writer side is a
    pipe guarded by a cross-process lock, and a worker that dies (or is
    watchdog-killed) while its feeder thread holds that lock leaks the
    lock forever, wedging every *other* worker's deliveries.  A pickle
    written to a private temp file and published with ``os.replace`` is
    immune — any kill point leaves either no message or a complete one,
    the same crash-safety idiom the artifact cache and the campaign
    journal use.
    """
    fd, tmp_name = tempfile.mkstemp(dir=inbox, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(message, handle, protocol=pickle.HIGHEST_PROTOCOL)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    global _MESSAGE_COUNTER
    _MESSAGE_COUNTER += 1
    final = os.path.join(
        inbox, f"{os.getpid()}-{_MESSAGE_COUNTER}.msg"
    )
    os.replace(tmp_name, final)


#: per-process message sequence number (workers inherit 0 after fork)
_MESSAGE_COUNTER = 0


def _drain_inbox(inbox: str) -> List[Tuple]:
    """Collect and remove every complete message currently in the inbox."""
    messages: List[Tuple] = []
    try:
        names = sorted(os.listdir(inbox))
    except OSError:
        return messages
    for name in names:
        if not name.endswith(".msg"):
            continue
        path = os.path.join(inbox, name)
        try:
            with open(path, "rb") as handle:
                messages.append(pickle.load(handle))
        except (OSError, pickle.UnpicklingError, EOFError):
            continue  # should be impossible (rename is atomic); skip
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
    return messages


def _ring(wake: int) -> None:
    """Wake the parent after a delivery (a hint; the inbox is the message).

    A raw pipe write takes no lock, so a worker killed mid-write cannot
    wedge the others (see :func:`_deliver_message`).  The write end is
    non-blocking: a full pipe already holds a pending wake-up.
    """
    try:
        os.write(wake, b"\0")
    except OSError:
        pass


def _hardened_worker(fn, task_queue, inbox, wake) -> None:
    """Worker loop: run tasks until the ``None`` sentinel arrives.

    Exceptions from ``fn`` are reported as infrastructure errors — domain
    outcomes (an injected run crashing its simulator) are classified
    *inside* ``fn`` and come back as ordinary results.  The idle wait is
    bounded so a worker orphaned by a SIGKILLed parent (daemon flags only
    act on normal interpreter exit) notices the re-parenting and exits
    instead of blocking on the queue forever.
    """
    while True:
        try:
            item = task_queue.get(timeout=5.0)
        except queue_module.Empty:
            if os.getppid() == 1:  # parent died; we were re-parented
                return
            continue
        if item is None:
            return
        task_id, attempt, payload = item
        try:
            result = fn(payload)
            message = (task_id, attempt, "ok", result, None)
        except BaseException as error:  # noqa: BLE001 - report, don't die
            message = (task_id, attempt, "error", None,
                       f"{type(error).__name__}: {error}")
        try:
            _deliver_message(inbox, message)
        except BaseException as error:  # e.g. the result does not pickle
            _deliver_message(
                inbox,
                (task_id, attempt, "error", None,
                 f"result delivery failed: "
                 f"{type(error).__name__}: {error}"),
            )
        _ring(wake)


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
    """One dedicated worker process plus its private task queue.

    The task queue is safe against worker death: the parent is its only
    writer (so no worker can leak its write lock) and the worker its
    only reader (a leaked read lock dies with the queue, which is
    discarded on respawn).  Results come back through the inbox
    directory — see :func:`_deliver_message`.
    """

    def __init__(self, mp_context, fn, inbox, wake) -> None:
        self.task_queue = mp_context.Queue()
        self.process = mp_context.Process(
            target=_hardened_worker,
            args=(fn, self.task_queue, inbox, wake),
            daemon=True,
        )
        self.process.start()
        self.assignment: Optional[_Assignment] = None

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            self.task_queue.close()
        except (OSError, ValueError):
            pass

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill."""
        try:
            self.task_queue.put(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=1.0)
        if self.process.is_alive():
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


def _describe_beat(snapshot: Optional[Dict]) -> str:
    """Heartbeat description for watchdog notes and error messages."""
    from ..service.telemetry import describe_progress

    return describe_progress(snapshot)


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
    from ..service.telemetry import heartbeat_age

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
      infrastructure failures (worker death, watchdog timeout, delivery
      failure, OSError-family exceptions) are retried up to the policy's
      attempt budget, each retry delayed by capped exponential backoff
      with deterministic per-(task, attempt) jitter; *permanent* task
      errors (any other exception escaping ``fn``) quarantine
      immediately — they would fail identically every time;
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
    :func:`~repro.service.telemetry.progress_probe`) lets the watchdog
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
    inbox_dir = tempfile.TemporaryDirectory(prefix="repro-hardened-")
    inbox = inbox_dir.name
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_w, False)
    workers = [
        _HardenedWorker(mp_context, fn, inbox, wake_w) for _ in range(jobs)
    ]
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

    def fail_attempt(index: int, attempt: int, reason: str) -> None:
        outcome = partial[index]
        outcome.failures.append(f"attempt {attempt}: {reason}")
        task_id = tasks[index][0]
        if policy.classify(reason) == PERMANENT:
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
        while refill is not None or len(outcomes) < len(tasks):
            now = time.monotonic()
            # Dispatch ready tasks to idle workers, refilling an idle
            # worker only when nothing at all is pending.
            for worker in workers:
                if worker.assignment is not None:
                    continue
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
                if not pending:
                    continue
                slot = None
                for position, item in enumerate(pending):
                    if item[0] <= now:
                        slot = position
                        break
                if slot is None:
                    continue
                _, index, attempt = pending.pop(slot)
                task_id, payload = tasks[index]
                partial[index].attempts = attempt
                worker.task_queue.put((task_id, attempt, payload))
                worker.assignment = _Assignment(
                    index=index, task_id=task_id, attempt=attempt,
                    deadline=now + policy.deadline, dispatched=now,
                )
            # Drain delivered results.  When the inbox is empty, wait for
            # a worker's wake-up byte; the short timeout keeps deadlines
            # responsive and covers a lost wake-up.
            messages = _drain_inbox(inbox)
            if not messages and select.select([wake_r], [], [], 0.02)[0]:
                os.read(wake_r, 4096)
            for task_id, attempt, status, result, error in messages:
                for worker in workers:
                    if (
                        worker.assignment is not None
                        and worker.assignment.task_id == task_id
                        and worker.assignment.attempt == attempt
                    ):
                        index = worker.assignment.index
                        worker.assignment = None
                        if status == "ok":
                            settle(index, "ok", result=result)
                        else:
                            fail_attempt(index, attempt, error)
                        break
                # Unmatched messages are stale (their worker was already
                # killed for a deadline miss) and are dropped.
            # Enforce deadlines and detect dead workers.
            now = time.monotonic()
            for position, worker in enumerate(workers):
                if worker.assignment is None:
                    if not worker.process.is_alive():
                        worker.kill()
                        workers[position] = _HardenedWorker(
                            mp_context, fn, inbox, wake_w
                        )
                    continue
                assignment = worker.assignment
                task_id = assignment.task_id
                attempt = assignment.attempt
                reason = None
                snapshot = None
                if now > assignment.deadline:
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
                            f"progressing ({_describe_beat(snapshot)}); "
                            f"deadline extended"
                        )
                        continue
                    elapsed = now - assignment.dispatched
                    reason = (
                        f"wall-clock timeout after {elapsed:.1f}s "
                        f"(worker killed; {_describe_beat(snapshot)})"
                        if progress_probe is not None else
                        f"wall-clock timeout after {elapsed:.1f}s "
                        f"(worker killed)"
                    )
                elif not worker.process.is_alive():
                    code = worker.process.exitcode
                    reason = f"worker died mid-task (exit code {code})"
                    if progress_probe is not None:
                        snapshot = progress_probe(task_id)
                        reason += f"; {_describe_beat(snapshot)}"
                if reason is not None:
                    _note_once(
                        f"hardened task {task_id!r}: {reason}; "
                        f"attempt {attempt}/{policy.max_attempts}"
                    )
                    worker.kill()
                    workers[position] = _HardenedWorker(
                        mp_context, fn, inbox, wake_w
                    )
                    fail_attempt(assignment.index, attempt, reason)
    finally:
        for worker in workers:
            worker.stop()
        os.close(wake_r)
        os.close(wake_w)
        inbox_dir.cleanup()
    return [outcomes[index] for index in range(len(tasks))]
