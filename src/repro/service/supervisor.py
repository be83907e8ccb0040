"""Supervisor: schedules durable jobs onto the hardened worker fleet.

One loop: recover, then for each non-empty queue prewarm phase one for
every queued job and run one fleet of
:func:`~repro.harness.parallel.run_tasks_hardened` — the same
crash-hardened runner the fault campaigns use, driven by the shared
:class:`~repro.service.retry.RetryPolicy` so worker deaths and watchdog
timeouts retry with capped deterministic backoff while permanent task
errors fail fast.  The fleet forks after the prewarm, so its workers
inherit the warm state copy-on-write, and it asks the supervisor for
work through its ``refill`` callback: each worker that frees up gets the
next job in fair-share order, claimed at that moment.  A long job holds
only its own worker, and ``start`` stamps the real dispatch time.  The
idle poll and every refill first refresh the store from its journal, so
a job submitted by another process while the supervisor runs is served
in the same drain.  With heartbeats on, the function each fleet runs is
:func:`~repro.service.jobs.execute_job` bound to the store's progress
directory and the heartbeat interval, so workers — forked or in-process —
get both as arguments.

Durability protocol per job (each step is one fsynced journal event):

1. ``start`` is journaled *before* the job reaches a worker — a
   supervisor killed mid-dispatch leaves the job ``running``, and
   :meth:`~repro.service.jobstore.JobStore.recover` requeues it on the
   next start;
2. on success the result payload is renamed into place *before*
   ``done`` is journaled — a journaled result survives a process kill,
   and one lost to an OS crash is requeued by ``recover``;
3. failures journal ``failed`` with the classified permanence, or
   ``requeue`` when the result-store write itself failed transiently
   (simulated disk-quota exhaustion in the chaos harness).

SIGTERM/SIGINT request a graceful drain: nothing more is claimed, the
in-flight jobs settle, the rest of the queue is left untouched, a
``drain`` event is journaled, and the exit is clean.  SIGKILL needs no
protocol at all — that is the point of the journal.
"""

from __future__ import annotations

import functools
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..harness.parallel import run_tasks_hardened
from ..obs.runlog import write_atomic, write_snapshot
from .chaos import FAIL_WRITE, KILL_SUPERVISOR, chaos_point
from .jobstore import JobStore
from .jobs import execute_job, prepare
from .retry import RETRYABLE, RetryPolicy
from .telemetry import service_registry


@dataclass
class ServiceConfig:
    """Operator knobs for one supervisor."""

    #: hardened worker processes (1 = serial in-process, no watchdog)
    jobs: int = 1
    #: inert: jobs are claimed one per free worker, not in rounds; the
    #: field stays only because the benchmark reads it
    batch: int = 8
    #: idle poll interval in seconds when watching for new submissions,
    #: and the longest a drain goes between metrics/health refreshes
    poll: float = 0.5
    #: exit when the queue is empty instead of watching (batch mode)
    drain_when_idle: bool = False
    #: shared retry policy (classification, backoff, per-job deadline)
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: seconds between worker progress heartbeats (0 disables heartbeats,
    #: metrics/health publishing stays on); a deadline miss whose last
    #: heartbeat is older than 8 of them (at least 2 s) counts as hung
    heartbeat: float = 0.25


class Supervisor:
    """Drives one :class:`JobStore` until drained or told to stop."""

    def __init__(self, store: JobStore, config: ServiceConfig) -> None:
        self.store = store
        self.config = config
        self._drain_requested = False
        #: settled-job count, continued across restarts so the chaos
        #: kill-supervisor threshold is a property of the *store*, not
        #: of one process's lifetime
        counters = store.counters()
        self._settled = counters["completed"] + counters["failed"]
        self._base_attempts: Dict[str, int] = {}
        self._started = time.monotonic()
        self._published = self._started
        self._rounds = 0

    # --------------------------------------------------------------- signals
    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT → graceful drain (main thread only)."""
        signal.signal(signal.SIGTERM, self._handle_signal)
        signal.signal(signal.SIGINT, self._handle_signal)

    def _handle_signal(self, signum, frame) -> None:
        self.request_drain()

    def request_drain(self) -> None:
        self._drain_requested = True

    # ------------------------------------------------------------- main loop
    def run(self) -> Dict[str, Any]:
        """Serve until drained (or, in batch mode, until the queue dries)."""
        recovery = self.store.recover()
        probe = progress_dir = None
        if self.config.heartbeat > 0:
            progress_dir = self.store.progress_dir
            progress_dir.mkdir(parents=True, exist_ok=True)
            probe = self.store.progress
        self.publish_observability()
        while not self._drain_requested:
            self.store.refresh()  # see submits made while serving
            queued = self.store.runnable()
            if not queued:
                if self.config.drain_when_idle:
                    break
                time.sleep(self.config.poll)
                # Idle polls still refresh metrics + the health
                # heartbeat, so liveness is observable while waiting.
                self.publish_observability()
                continue
            self._rounds += 1
            prepare(queued)
            run_tasks_hardened(
                functools.partial(
                    execute_job, progress_dir=progress_dir,
                    heartbeat=self.config.heartbeat,
                ),
                [],
                jobs=self.config.jobs,
                policy=self.config.policy,
                on_result=self._settle,
                progress_probe=probe,
                hang_grace=max(2.0, 8.0 * self.config.heartbeat),
                refill=self._claim_next,
            )
            self.publish_observability()
        drained = self._drain_requested
        self.store.drain(graceful=True)
        self.publish_observability(draining=True)
        return {
            "rounds": self._rounds,
            "drained": drained,
            "recovery": recovery,
            "counters": self.store.counters(),
        }

    # ----------------------------------------------------------- telemetry
    def publish_observability(self, draining: bool = False) -> None:
        """Atomically refresh ``metrics.prom`` and ``health.json``.

        Telemetry publication must never take the supervisor down: a
        full disk here degrades observability, not durability.
        """
        self._published = time.monotonic()
        registry = service_registry(self.store, rounds=self._rounds)
        try:
            write_atomic(
                self.store.metrics_path,
                registry.render_prometheus().encode("utf-8"),
            )
            write_snapshot(self.store.health_path, {
                "round": self._rounds,
                "uptime_seconds": round(self._published - self._started, 3),
                "draining": draining,
                "counters": self.store.counters(),
            })
        except OSError:
            pass

    # -------------------------------------------------------------- dispatch
    def _claim_next(self) -> Optional[Tuple[str, Any]]:
        """Claim the next runnable job for a free worker (fleet refill).

        Returns the fleet task, or ``None`` — the fleet then lets its
        in-flight jobs settle and ends — once the queue is empty or a
        drain was requested.  A queued job whose accumulated attempts
        already exhaust the retry budget (it kept getting requeued by
        transient settle failures) is failed here, non-permanently,
        instead of looping forever.
        """
        policy = self.config.policy
        while not self._drain_requested:
            self.store.refresh()
            queued = self.store.runnable()
            if not queued:
                return None
            job = queued[0]
            if job.attempts >= policy.max_attempts:
                self.store.fail(
                    job.job_id,
                    error=(
                        f"retry budget exhausted after {job.attempts} "
                        f"attempt(s): {job.error or 'transient failures'}"
                    ),
                    permanent=False,
                    attempts=job.attempts,
                )
                self._count_settled()
                continue
            self._base_attempts[job.job_id] = job.attempts
            self.store.claim(job.job_id)
            return job.job_id, (job.job_id, job.kind, dict(job.params))
        return None

    def _settle(self, outcome) -> None:
        """Journal one settled task (the hardened runner's on_result)."""
        job_id = outcome.task_id
        attempts = self._base_attempts.pop(job_id, 0) + outcome.attempts
        policy = self.config.policy
        if outcome.ok:
            try:
                chaos_point(FAIL_WRITE, job_id)
                self.store.complete(job_id, outcome.result, attempts)
                self._count_settled()
            except OSError as error:
                message = f"result store write failed: {error}"
                if (
                    policy.classify(message) == RETRYABLE
                    and attempts < policy.max_attempts
                ):
                    # Not settled: the job goes back in the queue.
                    self.store.requeue(job_id, message, attempts)
                else:
                    self.store.fail(
                        job_id, message, permanent=False, attempts=attempts
                    )
                    self._count_settled()
        else:
            self.store.fail(
                job_id,
                outcome.error or "unknown failure",
                permanent=outcome.permanent,
                attempts=attempts,
            )
            self._count_settled()
        # One fleet serves the whole drain: keep metrics.prom and
        # health.json live, at most once per poll interval.
        if time.monotonic() - self._published >= self.config.poll:
            self.publish_observability()

    def _count_settled(self) -> None:
        self._settled += 1
        # Chaos kill-supervisor point: fires (once) when the settled
        # count reaches the configured threshold — between journal
        # appends, never inside one, which is exactly the crash window
        # the journal protocol must (and does) survive.
        chaos_point(KILL_SUPERVISOR, str(self._settled))


def serve(
    store: JobStore,
    config: Optional[ServiceConfig] = None,
    handle_signals: bool = False,
) -> Dict[str, Any]:
    """Convenience wrapper: build a supervisor, run it, return the summary."""
    supervisor = Supervisor(store, config or ServiceConfig())
    if handle_signals:
        supervisor.install_signal_handlers()
    return supervisor.run()
