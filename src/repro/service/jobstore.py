"""Crash-safe on-disk job store: journal, dedup, quotas, recovery.

A store is one directory::

    store/
      journal.jsonl      append-only fsynced event log (source of truth)
      state.json         atomic-rename snapshot (operator convenience)
      results/           ArtifactCache holding finished result payloads
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
counters are part of the chaos harness's pinned invariants).  Results
live in a :class:`~repro.harness.artifacts.ArtifactCache` keyed by the
same request key: identical work is stored once, corrupt entries are
quarantined by the cache and healed by :meth:`JobStore.recover`, and a
``done`` journal record is only ever written *after* its result file is
durable, so a journaled result always exists (the reverse — a result
with no journal record — costs one idempotent re-run).

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

from ..harness.artifacts import ArtifactCache
from .journal import JournalError, JsonlJournal, read_json, write_json_atomic
from .telemetry import event_stamp, job_timeline, read_progress

#: bump when event semantics or the result payload layout change
SERVICE_FORMAT_VERSION = 1

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
        result_cache_limit_mb: Optional[float] = None,
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
        limit = (
            int(result_cache_limit_mb * 1024 * 1024)
            if result_cache_limit_mb else None
        )
        self.results = ArtifactCache(
            root=self.root / "results", enabled=True, limit_bytes=limit,
        )
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
    def _result_key(self, key: str) -> Tuple:
        return ("jobresult", SERVICE_FORMAT_VERSION, key)

    @_mutation
    def complete(self, job_id: str, result: Any, attempts: int) -> None:
        """Publish a result durably, then journal ``done``.

        Order matters: result file first (atomic rename), journal record
        second.  A kill between the two leaves a result file with no
        record — the job replays as interrupted and reruns, overwriting
        the file with bit-identical content.  The reverse order could
        journal a result that does not exist.
        """
        job = self.job(job_id)
        payload = _canonical(result)
        self.results.put(self._result_key(job.key), payload)
        if self.results.get(self._result_key(job.key)) is None:
            # ArtifactCache.put is advisory (silent on OSError); the
            # service store is not — surface the loss as the infra
            # failure it is so the retry policy can classify it.
            raise OSError(
                f"result store write failed for job {job_id} "
                f"under {self.results.root}"
            )
        self._append({
            "event": "done",
            "job": job_id,
            "attempts": attempts,
            "key": job.key,
        })

    def result(self, job_id: str) -> Optional[Any]:
        """The stored result payload, or None (missing/corrupt/evicted)."""
        job = self.job(job_id)
        return self.results.get(self._result_key(job.key))

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

    def verify_results(self) -> List[str]:
        """``done`` jobs whose stored result is missing or corrupt."""
        broken = []
        for job_id in sorted(self.jobs):
            job = self.jobs[job_id]
            if job.status == DONE and self.result(job_id) is None:
                broken.append(job_id)
        return broken

    @_mutation
    def recover(self) -> Dict[str, List[str]]:
        """Reclaim interrupted jobs and heal lost results; journaled.

        Called by the supervisor at startup.  Two invariant repairs:

        * jobs ``running`` in the journal (their supervisor died between
          ``start`` and a terminal event) go back to ``queued``;
        * jobs ``done`` whose result payload no longer loads (corrupt
          entry quarantined by the cache, evicted, or deleted) also go
          back to ``queued`` — simulations are deterministic, so the
          re-run reproduces the identical payload.
        """
        interrupted = self.interrupted()
        for job_id in interrupted:
            self._append({"event": "recover", "job": job_id,
                          "reason": "supervisor died mid-job"})
        lost = self.verify_results()
        for job_id in lost:
            self._append({"event": "recover", "job": job_id,
                          "reason": "stored result unreadable"})
        return {"interrupted": interrupted, "lost_results": lost}

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
        """The job's last worker heartbeat, or None (never raises)."""
        return read_progress(self.progress_dir, job_id)

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

    def publish_metrics(self, registry) -> None:
        """Surface store and result-cache counters in a MetricsRegistry."""
        for name, value in self.counters().items():
            registry.counter(f"service.{name}", value)
        self.results.publish_metrics(registry, prefix="service.results")

    def summaries(self) -> Dict[str, Dict[str, Any]]:
        """Every job's summary by id; a running job's carries its last
        heartbeat, so a snapshot answers "stuck or slow?" on its own."""
        out = {}
        for job_id, job in self.jobs.items():
            out[job_id] = job.summary()
            if job.status == RUNNING:
                out[job_id]["progress"] = self.progress(job_id)
        return out

    def write_state(self) -> None:
        """Atomic-rename snapshot for operators (journal stays the truth)."""
        if self.readonly:
            return
        write_json_atomic(self.root / "state.json", {
            "version": SERVICE_FORMAT_VERSION,
            "counters": self.counters(),
            "jobs": self.summaries(),
        })

    def state_snapshot(self) -> Optional[Dict[str, Any]]:
        return read_json(self.root / "state.json")

    def close(self) -> None:
        self.journal.close()
