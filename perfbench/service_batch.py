"""``service_batch``: a closed submit-then-drain batch through the service.

More than a hundred distinct jobs — every benchmark on every registered
core as a ``simulate`` job at the service's default scale, four 2x2
``sweep`` jobs, three single-core ``faults`` jobs with four runs each —
plus ten
duplicate submissions that must coalesce, sent from three clients in a
seeded order through :func:`~repro.service.jobs.normalize_params` and
:meth:`~repro.service.jobstore.JobStore.submit`, as the ``submit`` CLI
does.  One in-process :class:`~repro.service.supervisor.Supervisor`
with one worker per CPU then drains the store.  Each simulation is
tiny, so journal writes, claim and dispatch, the forked worker fleet,
prewarm and result publishing dominate; the kernel barely matters.

The supervisor claims eight jobs per dispatch round and a round lasts
as long as its slowest job, so where the seven long jobs (sweeps and
fault campaigns) fall decides how long workers idle: one seed's order
drained a third slower than another's.  They are therefore spread
evenly through the batch, in a seeded order, and the seed orders the
short jobs around them.

Set-up is what a fresh ``serve`` pays before its first job: normalize
the batch, open a fresh store, submit, and prewarm phase one for every
job into an empty artifact cache (:func:`~repro.service.jobs.prepare`).
Each timed batch then models a fresh ``serve --drain`` process over the
cache the last set-up filled: a new store, and the service's
per-process executor state cleared.
"""

from __future__ import annotations

import gc
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    Deadline, HostClock, WorkerSamples, fresh_dir, median, nproc, percentile,
    sha256_parts, unfinished_jobs,
)

import repro.service.jobs as service_jobs
import repro.service.supervisor as service_supervisor
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs.runlog import RunLog
from repro.service.jobs import DEFAULT_MAX_INSTRUCTIONS, DEFAULT_SCALE, \
    execute_job, normalize_params, prepare
from repro.service.jobstore import JobRequest, JobStore
from repro.service.supervisor import ServiceConfig, Supervisor
from repro.service.telemetry import job_timeline
from repro.sim.registry import core_keys
from repro.sim.run import simulate
from repro.validate.runner import CORE_FACTORIES
from repro.workloads.profiles import ALL_BENCHMARKS

CLIENTS = 3
SWEEPS = 4
#: one short benchmark per campaign: a campaign holds its dispatch round
#: until it ends, so a long one would idle the other workers
FAULT_BENCHMARKS = ("bzip2", "mcf", "ammp")
FAULT_RUNS = 4
DUPLICATES = 10
SETUP_REPS = 3


def make_batch(seed: int) -> List[Tuple[str, Dict, str]]:
    """``(kind, raw params, client)`` submissions in the seeded order."""
    rng = random.Random(f"service_batch/{seed}")
    cores = list(core_keys())
    distinct = [("simulate", {"benchmark": bench, "core": core})
                for bench in ALL_BENCHMARKS for core in cores]
    short = distinct + rng.sample(distinct, DUPLICATES)
    long = []
    for _ in range(SWEEPS):
        long.append(("sweep", {"benchmarks": rng.sample(ALL_BENCHMARKS, 2),
                               "cores": rng.sample(cores, 2)}))
    for index, bench in enumerate(FAULT_BENCHMARKS):
        long.append(("faults", {"benchmarks": [bench], "cores": ["ooo"],
                                "runs": FAULT_RUNS, "seed": index}))
    rng.shuffle(short)
    rng.shuffle(long)
    submissions = []
    stride = len(short) // len(long)
    for index, job in enumerate(long):
        chunk = short[index * stride:(index + 1) * stride]
        submissions += chunk[:stride // 2] + [job] + chunk[stride // 2:]
    submissions += short[len(long) * stride:]
    return [(kind, params, f"client-{index % CLIENTS}")
            for index, (kind, params) in enumerate(submissions)]


def normalized(batch) -> List[JobRequest]:
    return [JobRequest(kind, normalize_params(kind, params), client)
            for kind, params, client in batch]


def setup_once(seed: int, work: Path):
    """Build and normalize the batch, open a fresh store, submit it, and
    prewarm phase one into an empty artifact cache (which the timed
    batches then read)."""
    requests = normalized(make_batch(seed))
    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir(work, "cache-"))
    service_jobs._EXEC_STATE = None
    store = JobStore(fresh_dir(work / "service", "setup-") / "store")
    for request in requests:
        store.submit(request)
    prepare(store.runnable())
    store.close()
    digest = sha256_parts(
        f"{r.kind}|{r.client}|{sorted(r.params.items())}" for r in requests
    )
    return requests, digest


def run_batch(requests, work: Path, rec, acct) -> Dict:
    unit = fresh_dir(work / "service", "batch-")
    service_jobs._EXEC_STATE = None  # a fresh serve process holds no state
    os.environ["REPRO_RUNLOG"] = str(unit / "runlog.jsonl")
    started = time.perf_counter()
    store = JobStore(unit / "store")
    submit_ms = []
    coalesced = 0
    for request in requests:
        began = time.perf_counter()
        _, merged = store.submit(request)
        submit_ms.append(1e3 * (time.perf_counter() - began))
        coalesced += merged
    drain_started = time.perf_counter()
    summary = Supervisor(
        store, ServiceConfig(jobs=nproc(), drain_when_idle=True)
    ).run()
    drain_s = time.perf_counter() - drain_started
    wall = time.perf_counter() - started
    os.environ["REPRO_RUNLOG"] = "off"

    records = store.journal.records
    jobs = list(store.jobs.values())
    acct.attempt(len(requests))
    unfinished = unfinished_jobs(job.status for job in jobs)
    if unfinished:
        acct.fail(f"{unfinished} job(s) not done after the drain: "
                  + ", ".join(f"{j.job_id}={j.status}" for j in jobs
                              if j.status != "done")[:300],
                  count=unfinished)
    acct.check(coalesced == DUPLICATES,
               f"{coalesced} submissions coalesced, {DUPLICATES} expected")

    submit_at, done_at = {}, {}
    for record in records:
        event, job_id = record.get("event"), record.get("job")
        if event == "submit":
            submit_at[job_id] = record["mono"]
        elif event == "done":
            done_at[job_id] = record["mono"]
    latencies = [1e3 * (done_at[j] - submit_at[j])
                 for j in submit_at if j in done_at]
    first, last = min(submit_at.values()), max(done_at.values(), default=0)
    timelines = {job.job_id: job_timeline(records, job.job_id)
                 for job in jobs}
    run_ms: Dict[str, List[float]] = {}
    for job in jobs:
        run_time = timelines[job.job_id]["run_time"]
        if run_time is not None:
            run_ms.setdefault(job.kind, []).append(1e3 * run_time)
    waits = [1e3 * t["queue_wait"] for t in timelines.values()
             if t["queue_wait"] is not None]
    payloads = {job.key: store.result(job.job_id) for job in jobs
                if job.status == "done"}
    instructions = 0
    for job in jobs:
        payload = payloads.get(job.key)
        if payload is None:
            continue
        if job.kind == "simulate":
            instructions += payload["instructions"]
        elif job.kind == "sweep":
            instructions += sum(c["instructions"] for c in payload["cells"])
    cells = [e for e in RunLog(unit / "runlog.jsonl").read()
             if e.get("event") == "cell"]
    workers = max(1, min(nproc(), ServiceConfig().batch,
                         os.cpu_count() or 1))
    counters = store.counters()
    retries = counters["requeued"] + sum(
        max(0, job.attempts - 1) for job in jobs
    )
    journal_bytes = (unit / "store" / "journal.jsonl").stat().st_size
    store.close()
    return {
        "jobs": jobs, "payloads": payloads, "latencies": latencies,
        "span": last - first, "drain_s": drain_s, "wall": wall,
        "completed": counters["completed"], "instructions": instructions,
        "submit_ms": submit_ms, "waits": waits, "run_ms": run_ms,
        "rounds": summary["rounds"], "coalesced": counters["coalesced"],
        "retries": retries, "events": len(records),
        "journal_bytes": journal_bytes, "cells": cells, "workers": workers,
    }


def run(seed: int, seconds: float, rec, acct, work: Path) -> Dict:
    clock = HostClock(reps=5)
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        (requests, digest), adjusted, raw = clock.measure(
            setup_once, seed, work, fresh=True)
        setup_times.append(adjusted)
        setup_raw.append(raw)

    # Untimed warm-up: a small batch exercises the fleet once.
    rec.phase = "warmup"
    small = JobStore(fresh_dir(work / "service", "warmup-") / "store")
    for request in [r for r in requests if r.kind == "simulate"][:2 * nproc()]:
        small.submit(request)
    Supervisor(small, ServiceConfig(jobs=nproc(),
                                    drain_when_idle=True)).run()
    small.close()

    # Host time is adjusted by the median of the reference samples taken
    # between batches and, in the fleet's workers, during them.
    rec.phase = "timed"
    batches = []
    deadline = Deadline(seconds)
    samples = WorkerSamples(work / "clock")
    window = time.monotonic_ns()
    around = [clock.sample()]
    with samples.install(service_supervisor, "execute_job"):
        while deadline.another():
            started = time.perf_counter()
            batches.append(run_batch(requests, work, rec, acct))
            deadline.record(time.perf_counter() - started)
            around.append(clock.sample())
    during = samples.between(window, time.monotonic_ns())
    factor = clock.factor(*around, *during)
    for batch in batches:
        batch["factor"] = factor

    rec.phase = "check"
    check(batches, acct)
    result = summarize(batches, digest, setup_times)
    result.update(setup_raw=setup_raw, host_speed=clock.speed)
    result["notes"].append(f"{len(during)} reference samples in workers, "
                           f"timed-section host speed {1 / factor:.3f}x")
    return result


def check(batches, acct) -> None:
    """Payloads repeat across batches and equal a direct simulation."""
    reference = batches[0]
    for later in batches[1:]:
        acct.check(later["payloads"] == reference["payloads"],
                   "payloads differ between batches")
    context = ExperimentContext(
        benchmarks=ALL_BENCHMARKS, scale=DEFAULT_SCALE,
        max_instructions=DEFAULT_MAX_INSTRUCTIONS, jobs=1,
        cache=ArtifactCache.from_env(), sampling=None, result_cache=False,
        fidelity="exact",
    )

    def direct(benchmark, core, width):
        factory, braided = CORE_FACTORIES[core]
        config = factory(width=width)
        result = simulate(context.workload(benchmark, braided=braided),
                          config)
        return {"benchmark": benchmark, "core": core,
                "machine": config.name, "width": width,
                "instructions": result.instructions, "cycles": result.cycles,
                "ipc": round(result.ipc, 6), "fidelity": result.fidelity}

    for job in reference["jobs"]:
        payload = reference["payloads"].get(job.key)
        if payload is None:
            continue  # already counted as unfinished
        params = job.params
        if job.kind == "simulate":
            expected = direct(params["benchmark"], params["core"],
                              params["width"])
        elif job.kind == "sweep":
            expected = {"cells": [
                direct(bench, core, params["width"])
                for bench in params["benchmarks"] for core in params["cores"]
            ]}
        else:
            expected = execute_job(("check", job.kind, dict(params)))
        acct.check(payload == expected,
                   f"{job.job_id} ({job.kind}): payload differs from a "
                   f"direct run")


def summarize(batches, digest, setup_times) -> Dict:
    def med(key):
        return median([batch[key] for batch in batches])

    latencies = batches[0]["latencies"]
    p50 = median([b["factor"] * median(b["latencies"]) for b in batches])
    tails = [percentile([b["factor"] * v for v in b["latencies"]], 90)
             for b in batches]
    p90 = None if None in tails else median(tails)
    waits = batches[0]["waits"]
    per_layer = {
        "service.jobstore.submit_ms": median(
            [median(b["submit_ms"]) for b in batches]),
        "service.journal.events": med("events"),
        "service.journal.bytes": med("journal_bytes"),
        "service.queue_wait_ms.p50": median(
            [median(b["waits"]) for b in batches]),
        "service.queue_wait_ms.p90": percentile(waits, 90) or 0.0,
        "service.supervisor.rounds": med("rounds"),
        "service.coalesced": med("coalesced"),
        "service.retries": med("retries"),
        "harness.context.cells": median([len(b["cells"]) for b in batches]),
        "harness.context.cell_s_sum": median(
            [sum(c["seconds"] for c in b["cells"]) for b in batches]),
        "harness.parallel.workers": batches[0]["workers"],
    }
    for kind in ("simulate", "sweep", "faults"):
        per_layer[f"service.run_ms.{kind}"] = median([
            median(b["run_ms"][kind]) for b in batches
            if b["run_ms"].get(kind)
        ] or [0.0])
    return {
        "setup_s": median(setup_times),
        "setup_samples": setup_times,
        "setup_reps": SETUP_REPS,
        "units": len(batches),
        "unit_seconds": [b["wall"] for b in batches],
        "inputs_sha256": digest,
        "end_to_end": {
            "insts_per_s": median([
                b["instructions"] / (b["factor"] * b["span"])
                for b in batches]),
            "pass_insts_per_s": median([
                b["instructions"] / (b["factor"] * b["wall"])
                for b in batches]),
        },
        "named": {
            "jobs_per_s": median([b["completed"] / (b["factor"] * b["span"])
                                  for b in batches]),
            "job_p50_ms": p50,
            "job_p90_ms": p90,
        },
        "per_layer": per_layer,
        "notes": [
            f"{len(latencies)} job latencies per batch, "
            f"{len(batches)} batch(es); raw drain "
            f"{[round(b['drain_s'], 3) for b in batches]} s",
        ],
        "details": {"jobs": len(batches[0]["jobs"]),
                    "workers": batches[0]["workers"],
                    "drain_s": [b["drain_s"] for b in batches]},
    }
