"""Crash-safe on-disk job store: journal, dedup, quotas, recovery.

A store is one directory::

    store/
      journal.jsonl      append-only fsynced event log (the only job store)
      chaos-marks/       chaos-occurrence marks (chaos runs only)

Every state change is one durably-appended event — ``submit``,
``coalesce``, ``start``, ``done``, ``failed``, ``requeue``, ``recover``,
``drain`` — and the in-memory view is a pure fold over those events, so
a SIGKILL at any point leaves a journal whose replay reconstructs
exactly what had settled.  One fold (:meth:`JobStore._apply`) serves
open, live appends and :meth:`JobStore.refresh`, which is what makes
the recovery path impossible to drift from the live path.

Any number of handles, in any processes, may share one store.  Every
mutation folds what other handles appended and decides (dedup, quota,
``seq``, claimability) under the journal's writer lock, so two handles
never hand out one ``seq`` or queue one request twice.

Request identity is content-addressed: :func:`request_key` hashes the
canonicalized ``(kind, params)``, so two clients submitting the same
configuration coalesce onto one job and one result (counted — the dedup
counters are part of the chaos harness's pinned invariants).  A job's
result payload rides in its ``done`` event, so a result is durable
exactly when that fsynced append returns: there is no second store to
publish first, to lose in an OS crash, or to verify at open.  A ``done``
line whose bytes are damaged is skipped and counted like any other, so
its job folds as ``running`` and :meth:`JobStore.recover` requeues it.

The store root defaults to ``$REPRO_SERVICE_DIR`` (a deployment path),
else ``~/.cache/repro/service``; the per-client quota is the ``quota``
argument only (``submit --quota``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..obs.runlog import event_stamp, read_snapshot
from .journal import JournalError, JsonlJournal
from .telemetry import job_timeline, progress_path

#: bump when event semantics or the result payload layout change
SERVICE_FORMAT_VERSION = 2

_ENV_STORE = "REPRO_SERVICE_DIR"

#: job kinds the executors understand (see :mod:`repro.service.jobs`)
JOB_KINDS = ("simulate", "sweep", "faults")

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


class ServiceError(RuntimeError):
    """Service-level misconfiguration or an unusable store."""


class QuotaExceeded(ServiceError):
    """A client's submission would exceed its fair-share quota."""


def default_store_dir() -> Path:
    """Resolve the store root from ``REPRO_SERVICE_DIR``."""
    env = os.environ.get(_ENV_STORE, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "service"


def _canonical(value: Any) -> Any:
    """JSON-shaped canonical form: sorted keys, tuples as lists."""
    if isinstance(value, Mapping):
        return {str(key): _canonical(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ServiceError(
        f"job params must be JSON-shaped (str/int/float/bool/list/dict), "
        f"got {type(value).__name__}"
    )


def request_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content hash identifying one request; identical configs collide.

    The client is deliberately *not* part of the key — dedup is the
    point: two clients asking for the same simulation share one run and
    one stored result.
    """
    doc = json.dumps(
        {"kind": kind, "params": _canonical(params),
         "version": SERVICE_FORMAT_VERSION},
        sort_keys=True,
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _mutation(method):
    """Run a :class:`JobStore` mutation under the journal's writer lock,
    after folding what other handles appended: it decides on the
    journal's current state."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        if self.readonly:
            raise ServiceError("job store opened read-only")
        with self.journal.locked() as records:
            for record in records:
                self._apply(record)
            return method(self, *args, **kwargs)

    return locked


@dataclass(frozen=True)
class JobRequest:
    """One submission: what to run, for whom."""

    kind: str
    params: Mapping[str, Any]
    client: str = "default"

    @property
    def key(self) -> str:
        return request_key(self.kind, self.params)


@dataclass
class JobRecord:
    """Replayed state of one job (the fold over its journal events)."""

    job_id: str
    kind: str
    params: Dict[str, Any]
    client: str
    key: str
    seq: int
    status: str = QUEUED
    attempts: int = 0
    error: Optional[str] = None
    #: a permanent (task) failure; False on infra quarantine
    permanent: bool = False
    #: times this job was reclaimed from a dead supervisor
    recovered: int = 0
    #: later submissions coalesced onto this job
    coalesced: int = 0
    #: the result payload of a ``done`` job (from its ``done`` event)
    result: Any = None

    @property
    def active(self) -> bool:
        return self.status in (QUEUED, RUNNING)

    def summary(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "kind": self.kind,
            "client": self.client,
            "status": self.status,
            "attempts": self.attempts,
            "recovered": self.recovered,
            "coalesced": self.coalesced,
            "error": self.error,
            "permanent": self.permanent,
            "key": self.key,
        }


class JobStore:
    """One durable job queue rooted at a directory.

    ``quota`` bounds each client's *active* (queued + running) jobs at
    submit time; ``readonly=True`` opens the store for inspection
    without locking or writing the journal (the ``status`` CLI path).
    """

    def __init__(
        self,
        root: Path,
        quota: Optional[int] = None,
        readonly: bool = False,
    ) -> None:
        self.root = Path(root)
        self.quota = quota
        self.readonly = readonly
        if not readonly:
            self.root.mkdir(parents=True, exist_ok=True)
        try:
            self.journal = JsonlJournal(
                self.root / "journal.jsonl",
                kind="service-journal",
                version=SERVICE_FORMAT_VERSION,
                readonly=readonly,
            )
        except JournalError as error:
            raise ServiceError(str(error)) from None
        self._reset()

    # ------------------------------------------------------------------ fold
    def _reset(self) -> None:
        """Fold :attr:`journal` ``.records`` from scratch: at open, and
        when a read-only handle finds the journal replaced."""
        self.jobs: Dict[str, JobRecord] = {}
        #: request key -> job id (dedup index)
        self._by_key: Dict[str, str] = {}
        #: clients in first-submission order (fair-share round-robin)
        self._clients: List[str] = []
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "coalesced": 0,
            "completed": 0,
            "failed": 0,
            "requeued": 0,
            "recovered": 0,
            "orphaned_events": 0,
        }
        self._seq = 0
        self._rotations = self.journal.rotations
        for record in self.journal.records:
            self._apply(record)

    def refresh(self) -> List[Dict[str, Any]]:
        """Fold the events appended since this handle last read them."""
        records = self.journal.read()
        if self._rotations != self.journal.rotations:
            self._reset()
        else:
            for record in records:
                self._apply(record)
        return records

    def _apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal event into the in-memory view.

        Live mutations append the event *first*, then call this — replay
        after a crash runs the identical code path.
        """
        event = record.get("event")
        if event == "submit":
            job = JobRecord(
                job_id=record["job"],
                kind=record["kind"],
                params=dict(record["params"]),
                client=record.get("client", "default"),
                key=record["key"],
                seq=int(record["seq"]),
            )
            self.jobs[job.job_id] = job
            self._by_key[job.key] = job.job_id
            if job.client not in self._clients:
                self._clients.append(job.client)
            self._seq = max(self._seq, job.seq)
            self._counters["submitted"] += 1
            return
        if event == "coalesce":
            self._counters["coalesced"] += 1
            job = self.jobs.get(record.get("job", ""))
            if job is not None:
                job.coalesced += 1
            return
        if event == "drain":
            return
        job = self.jobs.get(record.get("job", ""))
        if job is None:
            # An event for a job whose submit record was lost (torn or
            # damaged journal middle).  Tolerated, never silent.
            self._counters["orphaned_events"] += 1
            return
        if event == "start":
            job.status = RUNNING
            job.error = None
        elif event == "done":
            job.status = DONE
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = None
            job.permanent = False
            job.result = record.get("result")
            self._counters["completed"] += 1
        elif event == "failed":
            job.status = FAILED
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = record.get("error")
            job.permanent = bool(record.get("permanent", False))
            self._counters["failed"] += 1
        elif event == "requeue":
            job.status = QUEUED
            job.attempts = int(record.get("attempts", job.attempts))
            job.error = record.get("error")
            self._counters["requeued"] += 1
        elif event == "recover":
            job.status = QUEUED
            job.recovered += 1
            self._counters["recovered"] += 1
        else:
            self._counters["orphaned_events"] += 1

    def _append(self, record: Dict[str, Any]) -> None:
        """Append and fold one event; only inside a :func:`_mutation`."""
        # Every journaled event is stamped with wall + monotonic time and
        # the writing pid.  The fold above reads none of those fields —
        # pinned by a property test — so timestamps feed the latency
        # telemetry without touching dedup keys, recovery semantics, or
        # chaos bit-identity.
        stamped = dict(record)
        stamped.update(event_stamp())
        self.journal.append(stamped)
        self._apply(stamped)

    # ------------------------------------------------------------ submission
    @_mutation
    def submit(self, request: JobRequest) -> Tuple[str, bool]:
        """Durably enqueue one request; returns ``(job_id, coalesced)``.

        An identical request (same content key) whose job has not failed
        permanently coalesces onto the existing job — the submission is
        journaled as a ``coalesce`` event so the dedup counter survives
        restarts.  A permanently-failed job does *not* absorb new
        submissions: resubmission is the operator's retry lever.
        """
        if request.kind not in JOB_KINDS:
            raise ServiceError(
                f"unknown job kind {request.kind!r}; "
                f"choose from {', '.join(JOB_KINDS)}"
            )
        params = _canonical(request.params)
        key = request_key(request.kind, params)
        existing_id = self._by_key.get(key)
        if existing_id is not None:
            existing = self.jobs[existing_id]
            if not (existing.status == FAILED and existing.permanent):
                self._append({
                    "event": "coalesce",
                    "job": existing_id,
                    "client": request.client,
                    "key": key,
                })
                return existing_id, True
        if self.quota is not None:
            active = sum(
                1 for job in self.jobs.values()
                if job.client == request.client and job.active
            )
            if active >= self.quota:
                raise QuotaExceeded(
                    f"client {request.client!r} already has {active} active "
                    f"job(s); quota is {self.quota}"
                )
        seq = self._seq + 1
        job_id = f"j{seq:06d}-{key[:8]}"
        self._append({
            "event": "submit",
            "job": job_id,
            "kind": request.kind,
            "params": params,
            "client": request.client,
            "key": key,
            "seq": seq,
        })
        return job_id, False

    # ------------------------------------------------------------ scheduling
    def runnable(self) -> List[JobRecord]:
        """Queued jobs in fair-share order: round-robin across clients.

        Within one client, submission order; across clients, one job per
        round in first-submission client order — a client that floods
        the queue cannot starve the others.
        """
        per_client: Dict[str, List[JobRecord]] = {}
        for job in sorted(self.jobs.values(), key=lambda j: j.seq):
            if job.status == QUEUED:
                per_client.setdefault(job.client, []).append(job)
        ordered: List[JobRecord] = []
        queues = [
            per_client[client] for client in self._clients
            if client in per_client
        ]
        while queues:
            next_round = []
            for queue in queues:
                ordered.append(queue.pop(0))
                if queue:
                    next_round.append(queue)
            queues = next_round
        return ordered

    @_mutation
    def claim(self, job_id: str) -> JobRecord:
        """Mark one queued job running (journaled before dispatch)."""
        job = self.job(job_id)
        if job.status != QUEUED:
            raise ServiceError(
                f"cannot claim job {job_id}: status is {job.status!r}"
            )
        self._append({
            "event": "start",
            "job": job_id,
            "attempt": job.attempts + 1,
        })
        return job

    # --------------------------------------------------------------- results
    @_mutation
    def complete(self, job_id: str, result: Any, attempts: int) -> None:
        """Journal ``done`` with the result payload in the event: the
        result is durable when this append returns."""
        self._append({
            "event": "done",
            "job": job_id,
            "attempts": attempts,
            "result": _canonical(result),
        })

    def result(self, job_id: str) -> Optional[Any]:
        """A ``done`` job's result payload, else None."""
        job = self.job(job_id)
        return job.result if job.status == DONE else None

    @_mutation
    def fail(
        self, job_id: str, error: str, permanent: bool, attempts: int
    ) -> None:
        self._append({
            "event": "failed",
            "job": job_id,
            "error": error,
            "permanent": permanent,
            "attempts": attempts,
        })

    @_mutation
    def requeue(self, job_id: str, error: str, attempts: int) -> None:
        """Put a job back in the queue after a transient settle failure."""
        self._append({
            "event": "requeue",
            "job": job_id,
            "error": error,
            "attempts": attempts,
        })

    # -------------------------------------------------------------- recovery
    def interrupted(self) -> List[str]:
        """Jobs a dead supervisor left ``running`` (journal says started,
        never settled)."""
        return sorted(
            job.job_id for job in self.jobs.values()
            if job.status == RUNNING
        )

    @_mutation
    def recover(self) -> Dict[str, List[str]]:
        """Requeue the jobs a dead supervisor left ``running``; journaled.

        Called by the supervisor at startup: a job ``running`` in the
        journal (its supervisor died between ``start`` and a terminal
        event, or its ``done`` line was damaged) goes back to ``queued``.
        Simulations are deterministic, so the re-run reproduces the
        identical payload.
        """
        interrupted = self.interrupted()
        for job_id in interrupted:
            self._append({"event": "recover", "job": job_id,
                          "reason": "supervisor died mid-job"})
        return {"interrupted": interrupted}

    # --------------------------------------------------------- introspection
    def job(self, job_id: str) -> JobRecord:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise ServiceError(f"unknown job {job_id!r}") from None

    # ------------------------------------------------------------- telemetry
    @property
    def progress_dir(self) -> Path:
        """Per-job heartbeat files (atomic JSON, written by workers)."""
        return self.root / "progress"

    @property
    def health_path(self) -> Path:
        """The supervisor's liveness file (atomic JSON, rewritten live)."""
        return self.root / "health.json"

    @property
    def metrics_path(self) -> Path:
        """Prometheus text-exposition export (atomic, rewritten live)."""
        return self.root / "metrics.prom"

    def progress(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's last worker heartbeat, or None (never raises); the
        watchdog's progress probe."""
        return read_snapshot(progress_path(self.progress_dir, job_id))

    def timeline(self, job_id: str) -> Dict[str, Any]:
        """Timestamped journal events + derived durations for one job."""
        self.job(job_id)  # loud on unknown ids
        return job_timeline(self.journal.records, job_id)

    @_mutation
    def drain(self, graceful: bool = True) -> None:
        """Journal a (timestamped) drain marker at supervisor shutdown."""
        self._append({"event": "drain", "graceful": graceful})

    def counters(self) -> Dict[str, int]:
        out = dict(self._counters)
        out["torn_lines"] = self.journal.skipped
        out["active"] = sum(1 for j in self.jobs.values() if j.active)
        return out

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Every job's summary by id; a running job's carries its last
        heartbeat, so a snapshot answers "stuck or slow?" on its own."""
        out = {}
        for job_id, job in self.jobs.items():
            out[job_id] = job.summary()
            if job.status == RUNNING:
                out[job_id]["progress"] = self.progress(job_id)
        return out

    def close(self) -> None:
        self.journal.close()
