"""Service observability: event timestamps, progress heartbeats, latency.

Three layers, all riding the durability primitives the store already
has (:func:`~repro.service.journal.write_json_atomic`, the fsynced
journal) so that telemetry inherits the same crash-safety the state it
describes does:

* **event timestamps** — :func:`event_stamp` is merged into every
  journaled job event by :meth:`JobStore._append`.  The stamp carries a
  wall clock (``ts``, comparable across processes), a monotonic clock
  (``mono``, immune to NTP steps but only meaningful within one
  process), and the writing ``pid`` (which says when ``mono`` deltas
  are trustworthy).  The state fold never reads any of these fields —
  pinned by a property test — so dedup keys, recovery semantics, and
  chaos bit-identity are untouched;
* **progress heartbeats** — a :class:`ProgressPublisher` in the worker
  writes one atomic JSON file per job under ``store/progress/``,
  throttled to the configured interval; the supervisor hands the
  directory and interval to :func:`~repro.service.jobs.execute_job` as
  arguments, and the watchdog reads the files back
  (:func:`read_progress`, :func:`heartbeat_age`) to tell *hung* from
  *slow but progressing*;
* **derived latency** — :func:`job_timeline` and
  :func:`latency_histograms` fold the timestamped journal into per-job
  timelines and queue-wait / run-time / retry-latency
  :class:`~repro.obs.metrics.BoundedHistogram` digests, which the
  supervisor exports in Prometheus text format as jobs settle.

With heartbeats off a job gets no publisher at all, and the core's
progress hook stays unset — the same zero-cost-when-off discipline
``obs_overhead`` pins for the core's per-cycle hooks.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..obs.metrics import BoundedHistogram
from .journal import read_json, write_json_atomic

#: default seconds between heartbeat publications
DEFAULT_INTERVAL = 0.25

#: histogram resolution: one bucket per millisecond up to 10 s, then the
#: overflow bucket (mean/max still track the true extremes)
LATENCY_BOUND_MS = 10_000

#: terminal events that end one run attempt
_SETTLING = ("done", "failed", "requeue")


def event_stamp() -> Dict[str, Any]:
    """Timestamp fields merged into one journal event at append time."""
    return {
        "ts": round(time.time(), 6),
        "mono": round(time.monotonic(), 6),
        "pid": os.getpid(),
    }


def strip_stamp(record: Mapping[str, Any]) -> Dict[str, Any]:
    """The record without its timestamp fields (fold-equivalence tests)."""
    return {
        key: value for key, value in record.items()
        if key not in ("ts", "mono", "pid")
    }


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
    submit = None
    first_start = None
    last_start = None
    settle = None
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
    histograms = {
        "queue_wait_ms": BoundedHistogram(LATENCY_BOUND_MS),
        "run_ms": BoundedHistogram(LATENCY_BOUND_MS),
        "retry_ms": BoundedHistogram(LATENCY_BOUND_MS),
    }
    job_ids = []
    seen = set()
    for record in records:
        job_id = record.get("job")
        if job_id and record.get("event") == "submit" and job_id not in seen:
            seen.add(job_id)
            job_ids.append(job_id)
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


# --------------------------------------------------------------- heartbeats
def progress_path(directory: Path, job_id: str) -> Path:
    return Path(directory) / f"{job_id}.json"


class ProgressPublisher:
    """Worker-side heartbeat writer for one job.

    Callable with the :meth:`TimingCore.run <repro.sim.core.TimingCore.run>`
    progress protocol — ``publisher(retired, total, cycle)`` — and
    carries multi-cell context (sweep jobs) via :meth:`start_cell`.
    Every publication is one atomic-rename JSON file, so a reader (or a
    SIGKILL) can never observe a torn heartbeat; publications are
    throttled to ``interval`` except when ``force=True``.
    """

    #: instructions simulated between progress callbacks (the chunk the
    #: resumable ``_run_until`` seam is re-entered at; re-entry is cheap,
    #: the throttle below keeps actual file writes at the interval)
    chunk = 2048

    def __init__(
        self,
        directory: Path,
        job_id: str,
        interval: float = DEFAULT_INTERVAL,
    ) -> None:
        self.directory = Path(directory)
        self.job_id = job_id
        self.interval = max(0.0, float(interval))
        self.published = 0
        self.cell: Optional[str] = None
        self.cells_done = 0
        self.cells_total = 1
        self._last_publish: Optional[float] = None
        self._started = time.monotonic()
        self._last_state: Optional[Dict[str, Any]] = None

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
            "pid": os.getpid(),
            "ts": round(time.time(), 6),
            "mono": round(now, 6),
            "instructions": int(retired),
            "instructions_total": int(total),
            "cycles": int(cycle),
            "eta_seconds": eta,
            "cell": self.cell,
            "cells_done": self.cells_done,
            "cells_total": self.cells_total,
        }
        try:
            write_json_atomic(
                progress_path(self.directory, self.job_id), state
            )
        except OSError:
            return  # heartbeats are telemetry: never fail the job
        self._last_publish = now
        self._last_state = state
        self.published += 1


def read_progress(
    directory: Optional[Path], job_id: str
) -> Optional[Dict[str, Any]]:
    """The last published heartbeat for a job, or None."""
    if directory is None:
        return None
    state = read_json(progress_path(directory, job_id))
    return state if isinstance(state, dict) else None


def heartbeat_age(
    snapshot: Optional[Mapping[str, Any]], now: Optional[float] = None
) -> Optional[float]:
    """Seconds since a heartbeat was published (wall clock), or None."""
    if snapshot is None or "ts" not in snapshot:
        return None
    reference = time.time() if now is None else now
    return max(0.0, reference - float(snapshot["ts"]))


def progress_probe(directory: Path) -> Callable[[str], Optional[Dict]]:
    """A ``task_id -> heartbeat snapshot`` probe for the watchdog."""
    root = Path(directory)

    def probe(task_id: str) -> Optional[Dict[str, Any]]:
        return read_progress(root, task_id)

    return probe


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


# ------------------------------------------------------------------- health
def write_health(
    path: Path,
    round_number: int,
    started: float,
    counters: Mapping[str, int],
    draining: bool = False,
) -> None:
    """Atomic supervisor heartbeat: pid, fleet count, uptime, counters."""
    write_json_atomic(Path(path), {
        "pid": os.getpid(),
        "ts": round(time.time(), 6),
        "round": int(round_number),
        "uptime_seconds": round(max(0.0, time.monotonic() - started), 3),
        "draining": bool(draining),
        "counters": dict(counters),
    })


def read_health(path: Path) -> Optional[Dict[str, Any]]:
    state = read_json(Path(path))
    return state if isinstance(state, dict) else None
