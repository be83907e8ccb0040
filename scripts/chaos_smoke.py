#!/usr/bin/env python
"""CI smoke test for the durable simulation service under injected chaos.

Two runs of the same mixed job batch (simulations across every core
paradigm, a sweep, a small fault campaign — every request submitted
twice from two clients, so dedup is exercised end to end):

* a **reference** run: one uninterrupted in-process supervisor;
* a **chaos** run: the supervisor as a subprocess with a deterministic
  fault plan armed — one job's worker is SIGKILLed mid-batch, one job's
  durable ``done`` append fails with ENOSPC (simulated disk-quota
  exhaustion), and the supervisor itself is SIGKILLed after its K-th
  settled job.  The driver restarts the supervisor until it drains.

The chaos run must then be indistinguishable from the reference run:

* every job ``done``, with a **bit-identical** result payload;
* the ``coalesced`` counter exactly equals the duplicate submissions
  (dedup survived the kill/restart cycles);
* the killed-worker job retried (attempts >= 2), the ENOSPC job was
  requeued, at least one job was recovered from a dead supervisor, and
  the journal has zero torn lines.

Exits non-zero with a diagnostic on any violated invariant.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [seed]
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service import ChaosSpec, JobRequest, JobStore  # noqa: E402
from repro.service.jobs import normalize_params  # noqa: E402

#: mixed batch: one simulate per registered paradigm, a sweep, a campaign
BATCH = [
    ("simulate", {"benchmark": "gcc", "core": "braid"}),
    ("simulate", {"benchmark": "mcf", "core": "ooo"}),
    ("simulate", {"benchmark": "swim", "core": "inorder"}),
    ("simulate", {"benchmark": "equake", "core": "depsteer"}),
    ("simulate", {"benchmark": "gcc", "core": "blockooo"}),
    ("sweep", {"benchmarks": "gcc,mcf", "cores": "braid,inorder"}),
    ("faults", {"benchmarks": "gcc", "cores": "braid", "runs": 2,
                "seed": 7}),
]
#: tiny sims: the smoke proves recovery protocols, not throughput
SIZING = {"scale": 0.05, "max_instructions": 3000}
KILL_SUPERVISOR_AFTER = 2
MAX_RESTARTS = 8


def fail(message: str) -> None:
    print(f"chaos_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def submit_batch(store: JobStore) -> list:
    """Submit every request twice (two clients); returns the job ids."""
    job_ids = []
    for kind, base in BATCH:
        params = dict(base)
        params["scale"] = SIZING["scale"]
        if kind in ("simulate", "sweep"):
            params["max_instructions"] = SIZING["max_instructions"]
        params = normalize_params(kind, params)
        job_id, coalesced = store.submit(
            JobRequest(kind=kind, params=params, client="ci-a")
        )
        if coalesced:
            fail(f"first submission of {kind} {base} coalesced unexpectedly")
        dup_id, dup_coalesced = store.submit(
            JobRequest(kind=kind, params=params, client="ci-b")
        )
        if not dup_coalesced or dup_id != job_id:
            fail(f"duplicate submission did not coalesce onto {job_id}")
        job_ids.append(job_id)
    return job_ids


def payloads(store: JobStore, job_ids: list) -> dict:
    out = {}
    for job_id in job_ids:
        result = store.result(job_id)
        if result is None:
            fail(f"job {job_id} has no readable result")
        out[job_id] = json.dumps(result, sort_keys=True)
    return out


def run_reference(root: Path, job_ids: list) -> dict:
    from repro.service.retry import RetryPolicy
    from repro.service.supervisor import ServiceConfig, serve

    store = JobStore(root)
    serve(store, ServiceConfig(
        jobs=1, drain_when_idle=True,
        policy=RetryPolicy(deadline=120.0),
    ))
    counters = store.counters()
    reference = {
        "payloads": payloads(store, job_ids),
        "statuses": {j: store.job(j).status for j in job_ids},
        "coalesced": counters["coalesced"],
    }
    store.close()
    return reference


def run_chaos(root: Path, job_ids: list, seed: int) -> tuple:
    """Serve under the fault plan, restarting killed supervisors."""
    rng = random.Random(seed)
    kill_victim = rng.choice(job_ids)
    write_victim = rng.choice([j for j in job_ids if j != kill_victim])
    spec = ChaosSpec(
        kill_worker={kill_victim: 1},
        fail_write={write_victim: 1},
        kill_supervisor_after=KILL_SUPERVISOR_AFTER,
    )
    print(f"chaos plan: {spec.render()}")

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    env.update(spec.environ(root / "chaos-marks"))
    command = [
        sys.executable, "-m", "repro.harness", "serve",
        "--store", str(root), "--drain-when-idle",
        "--jobs", "2", "--timeout", "120",
    ]
    kills = 0
    for attempt in range(MAX_RESTARTS):
        started = time.time()
        proc = subprocess.run(command, env=env, cwd=str(REPO))
        elapsed = time.time() - started
        if proc.returncode == 0:
            print(f"supervisor drained on run {attempt + 1} "
                  f"({elapsed:.1f}s, {kills} kill(s) survived)")
            return kill_victim, write_victim, kills
        if proc.returncode < 0:
            kills += 1
            print(f"supervisor killed by signal {-proc.returncode} "
                  f"on run {attempt + 1} ({elapsed:.1f}s); restarting")
            continue
        fail(f"supervisor exited with unexpected status {proc.returncode}")
    fail(f"supervisor did not drain within {MAX_RESTARTS} restarts")


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-chaos-smoke-") as tmp:
        ref_root = Path(tmp) / "reference"
        chaos_root = Path(tmp) / "chaos"

        store = JobStore(ref_root)
        ref_ids = submit_batch(store)
        store.close()
        reference = run_reference(ref_root, ref_ids)

        store = JobStore(chaos_root)
        chaos_ids = submit_batch(store)
        store.close()
        if chaos_ids != ref_ids:
            fail(f"job ids diverged: {ref_ids} vs {chaos_ids}")

        kill_victim, write_victim, kills = run_chaos(
            chaos_root, chaos_ids, seed
        )

        store = JobStore(chaos_root, readonly=True)
        counters = store.counters()
        statuses = {j: store.job(j).status for j in chaos_ids}
        observed = payloads(store, chaos_ids)

        if kills < 1:
            fail("the supervisor was never killed; the chaos plan is inert")
        if statuses != reference["statuses"]:
            fail(f"statuses diverged: {reference['statuses']} vs {statuses}")
        diverged = [
            j for j in chaos_ids if observed[j] != reference["payloads"][j]
        ]
        if diverged:
            fail(f"result payloads diverged for {diverged}")
        expected_coalesced = len(BATCH)
        if counters["coalesced"] != expected_coalesced:
            fail(
                f"dedup counter lost under chaos: expected "
                f"{expected_coalesced} coalesced, got "
                f"{counters['coalesced']}"
            )
        if reference["coalesced"] != expected_coalesced:
            fail(
                f"reference dedup counter wrong: {reference['coalesced']}"
            )
        kill_mark = chaos_root / "chaos-marks" / (
            f"kill-worker-{kill_victim}-0.mark"
        )
        if not kill_mark.exists():
            fail(f"the worker kill for {kill_victim} never fired")
        victim = store.job(kill_victim)
        if victim.attempts < 2 and victim.recovered < 1:
            # The kill fired (mark consumed), so the job must have come
            # back either as a runner-level retry or — when the
            # supervisor died before the retry settled — as a recovery.
            fail(
                f"killed-worker job {kill_victim} shows neither a retry "
                f"nor a recovery (attempts={victim.attempts}, "
                f"recovered={victim.recovered})"
            )
        if counters["requeued"] < 1:
            fail(
                f"ENOSPC on {write_victim} never produced a requeue; "
                f"counters: {counters}"
            )
        if counters["recovered"] < 1:
            fail(
                f"no job was recovered from a dead supervisor; "
                f"counters: {counters}"
            )
        if counters["torn_lines"] != 0:
            fail(f"journal has {counters['torn_lines']} torn line(s)")
        store.close()

        print(
            f"chaos_smoke: PASS: {len(chaos_ids)} job(s) bit-identical to "
            f"the uninterrupted run through {kills} supervisor kill(s), "
            f"1 worker kill, 1 simulated disk-full; "
            f"coalesced={counters['coalesced']} "
            f"recovered={counters['recovered']} "
            f"requeued={counters['requeued']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
