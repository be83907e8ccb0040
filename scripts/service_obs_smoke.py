#!/usr/bin/env python
"""CI smoke test for service observability.

Serves a small mixed batch with heartbeats armed while *concurrently*
following the store through a read-only :class:`JobStore` refreshed
each poll and polling the progress directory — the same consumers
``status --follow`` drives.  After the supervisor's store is open, a
second writable handle submits one more job, as a ``submit`` during
``serve`` would.  Then it audits everything the run left behind:

1. **Live heartbeats** — each running job publishes a fresh progress
   file while it runs (observed live, within a few heartbeat
   intervals), and every job ends with a final ``retired == total``
   heartbeat;
2. **Event ordering** — every job's journal timeline is well-formed
   (``submit`` first, ``start`` before its settle) and its monotonic
   stamps never run backwards;
3. **Metrics + health** — the published ``metrics.prom`` passes the
   bundled exposition validator, parses, and agrees with the store
   counters; ``health.json`` names the serving pid and round;
4. **Telemetry non-interference** — the same job served with
   heartbeats off and with an aggressive heartbeat interval produces
   bit-identical result payloads;
5. **Live submissions** — the job the second handle submitted finishes
   ``done`` in the same drain, with a seq no other job has, and the
   follower skipped no line and saw no rotation.

Exits non-zero with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/service_obs_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.metrics import parse_prometheus, prometheus_errors
from repro.service import JobRequest, JobStore
from repro.service.jobs import normalize_params
from repro.service.supervisor import ServiceConfig, Supervisor
from repro.obs.runlog import read_snapshot
from repro.service.telemetry import heartbeat_age

SIZING = {"scale": 0.1, "max_instructions": 20_000}
HEARTBEAT = 0.05


def fail(message: str) -> None:
    print(f"service_obs_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def submit(store, kind, params):
    job_id, _ = store.submit(JobRequest(
        kind=kind,
        params=normalize_params(kind, {**params, **SIZING}),
        client="smoke",
    ))
    return job_id


def serve_watched(root):
    """Serve a batch while following the store; returns the evidence."""
    store = JobStore(root)
    jobs = [
        submit(store, "simulate", {"benchmark": "gcc", "core": "braid"}),
        submit(store, "simulate", {"benchmark": "mcf", "core": "ooo"}),
        submit(store, "sweep",
               {"benchmarks": "gcc", "cores": "braid,inorder"}),
    ]
    follower = JobStore(root, readonly=True)
    followed = list(follower.journal.records)
    supervisor = Supervisor(store, ServiceConfig(
        jobs=1, drain_when_idle=True, heartbeat=HEARTBEAT,
    ))
    # A submit from another process after the supervisor's store is
    # open, as ``submit`` while ``serve`` runs.
    late = JobStore(root)
    jobs.append(submit(
        late, "simulate", {"benchmark": "gcc", "core": "inorder"}
    ))
    late.close()
    box = {}

    def run():
        try:
            box["summary"] = supervisor.run()
        except BaseException as exc:  # surfaced in the main thread
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    live_beats = set()
    polls = 0
    deadline = time.monotonic() + 120.0
    while thread.is_alive():
        if time.monotonic() > deadline:
            fail("serve did not drain within 120s")
        followed.extend(follower.refresh())
        polls += 1
        for job_id in jobs:
            beat = store.progress(job_id)
            age = heartbeat_age(beat)
            if age is not None and age <= 5 * HEARTBEAT:
                live_beats.add(job_id)
        time.sleep(HEARTBEAT / 5)
    thread.join()
    if "error" in box:
        fail(f"supervisor raised: {box['error']!r}")
    followed.extend(follower.refresh())
    follower.close()
    return store, jobs, followed, follower, live_beats, polls


def check_live_submission(store, jobs):
    if len(jobs) != 4:
        fail(f"expected four jobs, got {jobs}")
    late = store.job(jobs[3])
    if late.status != "done":
        fail(f"{late.job_id} from the second handle ended {late.status!r}")
    seqs = [job.seq for job in store.jobs.values()]
    if seqs.count(late.seq) != 1:
        fail(f"{late.job_id} shares seq {late.seq} with another job")
    print(
        f"service_obs_smoke: live submission ok ({late.job_id} done in "
        f"the same drain, seq {late.seq} unique)"
    )


def check_heartbeats(store, jobs, live_beats):
    if not live_beats:
        fail("never observed a fresh heartbeat while jobs were running")
    for job_id in jobs:
        beat = store.progress(job_id)
        if beat is None:
            fail(f"{job_id}: no final heartbeat file")
        if beat["instructions"] != beat["instructions_total"]:
            fail(
                f"{job_id}: final heartbeat retired "
                f"{beat['instructions']}/{beat['instructions_total']}"
            )
    sweep_beat = store.progress(jobs[2])
    if sweep_beat["cells_total"] != 2:
        fail(f"sweep heartbeat cells_total {sweep_beat['cells_total']} != 2")
    print(
        f"service_obs_smoke: heartbeats ok "
        f"({len(live_beats)}/{len(jobs)} jobs seen live, all final)"
    )


def check_event_ordering(store, jobs, followed):
    journal_ids = [id(record) for record in store.journal.records]
    for job_id in jobs:
        events = [
            record for record in store.journal.records
            if record.get("job") == job_id
        ]
        names = [record["event"] for record in events]
        if names[0] != "submit":
            fail(f"{job_id}: first event {names[0]!r}, expected submit")
        if "start" not in names or "done" not in names:
            fail(f"{job_id}: incomplete lifecycle {names}")
        if names.index("start") > names.index("done"):
            fail(f"{job_id}: start after done: {names}")
        monos = [record["mono"] for record in events]
        if monos != sorted(monos):
            fail(f"{job_id}: monotonic stamps run backwards: {monos}")
    # The follower saw the same stream the supervisor's store holds
    # (same count and the same settle events), delivered incrementally
    # while serving.
    followed_events = [r for r in followed if "event" in r]
    if len(followed_events) != len(journal_ids):
        fail(
            f"follower delivered {len(followed_events)} events, journal "
            f"holds {len(journal_ids)}"
        )
    done = sum(1 for r in followed_events if r["event"] == "done")
    if done != len(jobs):
        fail(f"follower saw {done} done events, expected {len(jobs)}")
    print(
        f"service_obs_smoke: event ordering ok "
        f"({len(followed_events)} events followed live, stamps monotone)"
    )


def check_metrics(store, jobs):
    try:
        text = store.metrics_path.read_text(encoding="utf-8")
    except OSError as exc:
        fail(f"no metrics exposition published: {exc}")
    errors = prometheus_errors(text)
    if errors:
        fail(f"metrics.prom fails validation: {errors[:5]}")
    samples = parse_prometheus(text)
    if samples.get("repro_service_completed") != float(len(jobs)):
        fail(
            f"exposition says {samples.get('repro_service_completed')} "
            f"completed, expected {len(jobs)}"
        )
    if samples.get('repro_run_ms{stat="weight"}', 0) < len(jobs):
        fail("run_ms histogram missing settled jobs")
    # Each fact once: every store counter is exported under its own name
    # and no other series repeats one.
    disagree = {
        name: samples.get(f"repro_service_{name}")
        for name, value in store.counters().items()
        if samples.get(f"repro_service_{name}") != float(value)
    }
    if disagree:
        fail(f"exposition disagrees with the store counters: {disagree}")
    shadows = [name for name in samples
               if name.startswith(("repro_service_jobs_",
                                   "repro_service_recovered_"))]
    if shadows:
        fail(f"exposition repeats fold counters: {shadows}")
    health = read_snapshot(store.health_path)
    if health is None:
        fail("no health.json published")
    if health["pid"] != os.getpid():
        fail(f"health pid {health['pid']} != serving pid {os.getpid()}")
    if health["round"] < 1 or not health["draining"]:
        fail(f"unexpected final health state: {health}")
    print(
        f"service_obs_smoke: metrics ok ({len(samples)} samples, "
        f"validator clean, health round {health['round']})"
    )


def check_non_interference(base):
    """Heartbeats off vs aggressive: result payloads bit-identical."""
    payloads = []
    for name, beat in (("quiet", 0.0), ("chatty", 0.01)):
        store = JobStore(base / name)
        job = submit(store, "simulate",
                     {"benchmark": "gcc", "core": "braid"})
        Supervisor(store, ServiceConfig(
            jobs=1, drain_when_idle=True, heartbeat=beat,
        )).run()
        result = store.result(job)
        if result is None:
            fail(f"{name}: job produced no result")
        payloads.append(json.dumps(result, sort_keys=True))
        store.close()
    if payloads[0] != payloads[1]:
        fail("telemetry changed the result payload")
    print(
        "service_obs_smoke: heartbeats-off and heartbeats-on payloads "
        "bit-identical"
    )


def main() -> int:
    base = Path(tempfile.mkdtemp(prefix="service-obs-smoke-"))
    store, jobs, followed, follower, live_beats, polls = serve_watched(
        base / "store"
    )
    journal = follower.journal
    if journal.skipped or journal.rotations:
        fail(
            f"follower skipped {journal.skipped} line(s), saw "
            f"{journal.rotations} rotation(s) on a healthy journal"
        )
    check_live_submission(store, jobs)
    check_heartbeats(store, jobs, live_beats)
    check_event_ordering(store, jobs, followed)
    check_metrics(store, jobs)
    store.close()
    check_non_interference(base)
    print(f"service_obs_smoke: OK ({polls} live polls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
