"""Service observability: job timelines, progress heartbeats, metrics.

Built on the shared records of :mod:`repro.obs.runlog`:

* **event timestamps** — :meth:`JobStore._append` stamps every journaled
  event; the state fold never reads the stamp (pinned by a property
  test), so dedup, recovery and chaos bit-identity are untouched;
* **progress heartbeats** — a :class:`ProgressPublisher` in the worker
  publishes one stamped snapshot per job under ``store/progress/``,
  throttled to the interval the supervisor passes
  :func:`~repro.service.jobs.execute_job`; the watchdog reads them back
  (:meth:`JobStore.progress`, :func:`heartbeat_age`) to tell *hung*
  from *slow but progressing*.  With heartbeats off a job gets no
  publisher and the core's progress hook stays unset;
* **latency and the registry** — :func:`job_timeline` and
  :func:`latency_histograms` fold the stamped journal into per-job
  timelines and queue-wait / run-time / retry-latency digests, and
  :func:`service_registry` joins them to the store counters for
  ``metrics.prom``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from ..obs.metrics import BoundedHistogram, MetricsRegistry
from ..obs.runlog import write_snapshot

#: default seconds between heartbeat publications
DEFAULT_INTERVAL = 0.25

#: histogram resolution: one bucket per millisecond up to 10 s, then the
#: overflow bucket (mean/max still track the true extremes)
LATENCY_BOUND_MS = 10_000

#: terminal events that end one run attempt
_SETTLING = ("done", "failed", "requeue")


def _delta(earlier: Mapping[str, Any], later: Mapping[str, Any]) -> Optional[float]:
    """Seconds between two stamped events, or None when unstamped.

    Uses the monotonic clock when both stamps came from the same
    process (immune to wall-clock steps); falls back to wall time
    across processes, clamped at zero so a stepped clock cannot
    produce a negative latency.
    """
    if "ts" not in earlier or "ts" not in later:
        return None
    if (
        "mono" in earlier and "mono" in later
        and earlier.get("pid") == later.get("pid")
    ):
        return max(0.0, later["mono"] - earlier["mono"])
    return max(0.0, later["ts"] - earlier["ts"])


# ---------------------------------------------------------------- timelines
def job_timeline(
    records: List[Mapping[str, Any]], job_id: str
) -> Dict[str, Any]:
    """One job's journal events plus the durations they imply.

    Returns ``{"events": [...], "queue_wait": s|None, "run_time": s|None,
    "retry_latencies": [s, ...]}``: queue wait is submit→first start,
    run time is last start→terminal settle, and each retry latency is a
    requeue/failed→next start gap.
    """
    events = [
        record for record in records
        if record.get("job") == job_id and "event" in record
    ]
    submit = first_start = last_start = settle = None
    retry_latencies: List[float] = []
    pending_retry: Optional[Mapping[str, Any]] = None
    for record in events:
        name = record["event"]
        if name == "submit":
            submit = record
        elif name == "start":
            if first_start is None:
                first_start = record
            last_start = record
            if pending_retry is not None:
                gap = _delta(pending_retry, record)
                if gap is not None:
                    retry_latencies.append(gap)
                pending_retry = None
        elif name in _SETTLING:
            settle = record
            if name == "requeue":
                pending_retry = record
        elif name == "recover":
            pending_retry = record
    queue_wait = (
        _delta(submit, first_start)
        if submit is not None and first_start is not None else None
    )
    run_time = (
        _delta(last_start, settle)
        if last_start is not None and settle is not None
        and settle["event"] in ("done", "failed") else None
    )
    return {
        "events": events,
        "queue_wait": queue_wait,
        "run_time": run_time,
        "retry_latencies": retry_latencies,
    }


def latency_histograms(
    records: List[Mapping[str, Any]]
) -> Dict[str, BoundedHistogram]:
    """Store-wide latency digests from the timestamped journal.

    ``queue_wait_ms`` (submit→first start), ``run_ms`` (start→done or
    failed), ``retry_ms`` (requeue/recover→restart), each one
    millisecond-bucketed up to :data:`LATENCY_BOUND_MS`.
    """
    histograms = {name: BoundedHistogram(LATENCY_BOUND_MS)
                  for name in ("queue_wait_ms", "run_ms", "retry_ms")}
    job_ids = dict.fromkeys(
        record["job"] for record in records
        if record.get("event") == "submit" and record.get("job")
    )
    for job_id in job_ids:
        timeline = job_timeline(records, job_id)
        if timeline["queue_wait"] is not None:
            histograms["queue_wait_ms"].add(
                int(timeline["queue_wait"] * 1000)
            )
        if timeline["run_time"] is not None:
            histograms["run_ms"].add(int(timeline["run_time"] * 1000))
        for gap in timeline["retry_latencies"]:
            histograms["retry_ms"].add(int(gap * 1000))
    return histograms


def service_registry(store, rounds: Optional[int] = None) -> MetricsRegistry:
    """The service's one registry: the store's fold counters (``active``,
    a level, as a gauge), the supervisor's fleet ``rounds`` when one
    publishes, and the latency histograms."""
    registry = MetricsRegistry()
    for name, value in store.counters().items():
        if name == "active":
            registry.gauge("service.active", value)
        else:
            registry.counter(f"service.{name}", value)
    if rounds is not None:
        registry.counter("service.supervisor_rounds", rounds)
    registry.histograms.update(latency_histograms(store.journal.records))
    return registry


# --------------------------------------------------------------- heartbeats
def progress_path(directory: Path, job_id: str) -> Path:
    return Path(directory) / f"{job_id}.json"


class ProgressPublisher:
    """Worker-side heartbeat writer for one job.

    Callable with the :meth:`TimingCore.run <repro.sim.core.TimingCore.run>`
    progress protocol — ``publisher(retired, total, cycle)`` — and
    carries multi-cell context (sweep jobs) via :meth:`start_cell`.
    Every publication is one stamped snapshot
    (:func:`~repro.obs.runlog.write_snapshot`), so a reader (or a
    SIGKILL) can never observe a torn heartbeat; publications are
    throttled to ``interval`` except when ``force=True``.
    """

    #: instructions simulated between progress callbacks (the chunk the
    #: resumable ``_run_until`` seam is re-entered at; re-entry is cheap,
    #: the throttle below keeps actual file writes at the interval)
    chunk = 2048

    def __init__(self, directory: Path, job_id: str,
                 interval: float = DEFAULT_INTERVAL) -> None:
        self.directory = Path(directory)
        self.job_id = job_id
        self.interval = max(0.0, float(interval))
        self.published = 0
        self.cell: Optional[str] = None
        self.cells_done = 0
        self.cells_total = 1
        self._last_publish: Optional[float] = None
        self._started = time.monotonic()

    def start_cell(self, cell: str, done: int, total: int) -> None:
        """Name the sweep cell subsequent heartbeats belong to."""
        self.cell = cell
        self.cells_done = done
        self.cells_total = max(1, total)

    def __call__(self, retired: int, total: int, cycle: int) -> None:
        self.publish(retired, total, cycle)

    def publish(
        self, retired: int, total: int, cycle: int, force: bool = False
    ) -> None:
        now = time.monotonic()
        if (
            not force
            and self._last_publish is not None
            and now - self._last_publish < self.interval
        ):
            return
        elapsed = now - self._started
        rate = retired / elapsed if elapsed > 0 else 0.0
        remaining_here = max(0, total - retired)
        eta = None
        if rate > 0:
            # Remaining whole cells are estimated at the current cell's
            # instruction count — coarse, but monotone and cheap.
            remaining_cells = max(
                0, self.cells_total - self.cells_done - 1
            )
            eta = round(
                (remaining_here + remaining_cells * total) / rate, 3
            )
        state = {
            "job": self.job_id,
            "instructions": int(retired),
            "instructions_total": int(total),
            "cycles": int(cycle),
            "eta_seconds": eta,
            "cell": self.cell,
            "cells_done": self.cells_done,
            "cells_total": self.cells_total,
        }
        try:
            write_snapshot(progress_path(self.directory, self.job_id), state)
        except OSError:
            return  # heartbeats are telemetry: never fail the job
        self._last_publish = now
        self.published += 1


def heartbeat_age(snapshot: Optional[Mapping[str, Any]]) -> Optional[float]:
    """Seconds since a snapshot was published (wall clock), or None."""
    if snapshot is None or "ts" not in snapshot:
        return None
    return max(0.0, time.time() - float(snapshot["ts"]))


def describe_progress(snapshot: Optional[Mapping[str, Any]]) -> str:
    """One human line for error messages and ``status`` output."""
    if snapshot is None:
        return "no heartbeat ever published"
    age = heartbeat_age(snapshot)
    parts = [
        f"last heartbeat {age:.1f}s ago" if age is not None
        else "last heartbeat unstamped",
        f"retired {snapshot.get('instructions', 0)}"
        f"/{snapshot.get('instructions_total', '?')} instructions",
        f"{snapshot.get('cycles', 0)} cycles",
    ]
    cell = snapshot.get("cell")
    if cell:
        parts.append(
            f"cell {cell} ({snapshot.get('cells_done', 0) + 1}"
            f"/{snapshot.get('cells_total', 1)})"
        )
    return ", ".join(parts)
