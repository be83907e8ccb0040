"""``sweep_cold``: one figure sweep from an empty cache, then warm.

The Figure 9 BEU sweep (:func:`repro.harness.experiments.fig9_braid_beus`)
over a seeded eight-benchmark subset at the default scale, with one
worker per CPU.  A unit is a pair: a cold pass from an empty artifact
cache directory to the rendered table, then a warm pass on a fresh
:class:`~repro.harness.context.ExperimentContext` over the cache the
cold pass filled.  Phase one, cache writes and reads, and the sweep
pool carry a real share of the time here.

The seed picks the subset (one benchmark from each of eight strata of
similar trace length, so every seed sweeps a similar amount of work) and
the order the sweep visits it.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from common import (
    Deadline, HostClock, WorkerSamples, fresh_dir, median, nproc,
    sha256_parts,
)

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.harness.experiments import fig9_braid_beus
from repro.harness.parallel import effective_jobs
from repro.harness.sweep import SweepPoint
from repro.obs.runlog import RunLog
from repro.sim.config import braid_config, ooo_config
from repro.sim.interval import IntervalConfig
from repro.sim.run import simulate
from repro.workloads.generator import generate
from repro.workloads.profiles import profile, scaled

#: benchmarks ordered by trace length at scale 1, cut into eight strata;
#: mgrid (twice the next-longest trace) is left out
STRATA = (
    ("bzip2", "mcf", "ammp"),
    ("parser", "crafty", "gcc"),
    ("perlbmk", "vpr", "gap"),
    ("twolf", "equake", "gzip"),
    ("fma3d", "sixtrack", "facerec"),
    ("art", "wupwise", "eon"),
    ("galgel", "vortex", "mesa"),
    ("applu", "swim", "lucas", "apsi"),
)
SCALE = 1.0
MAX_INSTRUCTIONS = 60_000
BEUS = (1, 2, 4, 8, 16)
SETUP_REPS = 15


def subset(seed: int) -> tuple:
    rng = random.Random(f"sweep_cold/{seed}")
    picks = [rng.choice(stratum) for stratum in STRATA]
    rng.shuffle(picks)
    return tuple(picks)


def make_inputs(seed: int):
    """The subset and the content hash of its generated programs."""
    names = subset(seed)
    parts = [f"scale={SCALE}", f"cap={MAX_INSTRUCTIONS}"]
    for name in names:
        parts += [name, generate(scaled(profile(name), SCALE)).render()]
    return names, sha256_parts(parts)


def f9_points(names) -> List[SweepPoint]:
    """Every distinct point the F9 sweep simulates."""
    points = []
    for name in names:
        points.append(SweepPoint(name, ooo_config(8)))
        for count in BEUS:
            config = replace(braid_config(8), name=f"braid-{count}beu",
                             clusters=count)
            points.append(SweepPoint(name, config, braided=True))
    return points


def new_context(names, cache: ArtifactCache, jobs: int) -> ExperimentContext:
    return ExperimentContext(
        benchmarks=names, scale=SCALE, max_instructions=MAX_INSTRUCTIONS,
        jobs=jobs, cache=cache, sampling=None, result_cache=False,
        fidelity="exact", interval=IntervalConfig(),
    )


def sweep_pass(names, cache_dir: Path, runlog: Path, jobs: int, rec, acct):
    """One F9 sweep, timed from context creation to the rendered table."""
    os.environ["REPRO_RUNLOG"] = str(runlog)
    log = RunLog(runlog)
    before = len(log.read())
    gc.collect()
    started = time.perf_counter()
    context = new_context(names, ArtifactCache(root=cache_dir), jobs)
    table = rec.call("bench", "fig9", fig9_braid_beus, context).render()
    raw = time.perf_counter() - started
    cells = [e for e in log.read()[before:] if e.get("event") == "cell"]
    acct.attempt(len(cells))
    # Only what the checks and the report need outlives the pass, so the
    # peak RSS does not grow with the number of pairs that fit a run.
    return {"table": table, "raw_seconds": raw,
            "counters": dict(context.telemetry.counters),
            "cache_stats": context.cache.stats(), "cells": cells,
            "instructions": sum(c["instructions"] for c in cells),
            "cell_seconds": sum(c["seconds"] for c in cells)}


def run(seed: int, seconds: float, rec, acct, work: Path) -> Dict:
    jobs = nproc()
    clock = HostClock(reps=5)
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        (names, digest), adjusted, raw = clock.measure(make_inputs, seed,
                                                       fresh=True)
        setup_times.append(adjusted)
        setup_raw.append(raw)
    points = f9_points(names)
    workers = effective_jobs(jobs, len(points))

    # Untimed warm-up: one benchmark through the pool with the cache off,
    # so the cold pass below still starts from nothing on disk.
    rec.phase = "warmup"
    fig9_braid_beus(new_context(names[:1], ArtifactCache(enabled=False),
                                jobs))

    # Host time is adjusted by the median of the reference samples taken
    # between pairs and, in the pool's workers, during them.
    rec.phase = "timed"
    pairs = []
    deadline = Deadline(seconds)
    samples = WorkerSamples(work / "clock")
    window = time.monotonic_ns()
    around = [clock.sample()]
    with samples.install(ExperimentContext, "run"):
        while deadline.another():
            started = time.perf_counter()
            unit = fresh_dir(work / "sweep", "pair-")
            cold = sweep_pass(names, unit / "cache", unit / "runlog.jsonl",
                              jobs, rec, acct)
            warm = sweep_pass(names, unit / "cache", unit / "runlog.jsonl",
                              jobs, rec, acct)
            pairs.append((cold, warm))
            deadline.record(time.perf_counter() - started)
            around.append(clock.sample())
    during = samples.between(window, time.monotonic_ns())
    factor = clock.factor(*around, *during)
    for sweep in (sweep for pair in pairs for sweep in pair):
        sweep["seconds"] = factor * sweep["raw_seconds"]

    rec.phase = "check"
    context = new_context(names, ArtifactCache(root=unit / "cache"), 1)
    check(context, points, pairs, acct)
    result = summarize(context, names, digest, pairs, workers, setup_times)
    result.update(setup_raw=setup_raw, host_speed=clock.speed)
    result["notes"].append(f"{len(during)} reference samples in workers, "
                           f"timed-section host speed {1 / factor:.3f}x")
    return result


def check(context, points, pairs, acct) -> None:
    """Every pass renders one table and simulates every point once, and
    every cell equals a direct simulate of the same point (on workloads
    read back from the last pair's cache)."""
    direct = {}
    for point in points:
        workload = context.workload(point.benchmark, braided=point.braided)
        result = simulate(workload, point.config)
        direct[(point.benchmark, point.config.name, point.braided)] = (
            result.cycles, result.instructions)
    reference = pairs[0][0]["table"]
    for index, pair in enumerate(pairs):
        for name, sweep in zip(("cold", "warm"), pair):
            acct.check(sweep["table"] == reference,
                       "a sweep rendered a different table")
            seen = {(c["benchmark"], c["machine"], c["braided"]): (
                c["cycles"], c["instructions"]) for c in sweep["cells"]}
            acct.check(len(sweep["cells"]) == len(points) == len(seen),
                       f"{len(sweep['cells'])} cells simulated, "
                       f"{len(points)} expected")
            for key, expected in direct.items():
                acct.check(
                    seen.get(key) == expected,
                    f"pair {index} {name}: {key[0]}/{key[1]} sweep cell "
                    f"{seen.get(key)} != direct simulate {expected}",
                )
        acct.check(pair[0]["counters"].get("run_many.memoized", 0) == 0,
                   "the cold pass found memoized points")


def summarize(context, names, digest, pairs, workers, setup_times) -> Dict:
    cold_s = [cold["seconds"] for cold, _ in pairs]
    warm_s = [warm["seconds"] for _, warm in pairs]
    cold, warm = pairs[0]
    trace_insts = sum(
        len(context.workload(name, braided=braided).trace)
        for name in names for braided in (False, True)
    )
    per_layer = {
        "harness.context.cells": median([len(c["cells"]) for c, _ in pairs]),
        "harness.context.run_many.deduped": cold["counters"].get(
            "run_many.deduped", 0),
        "harness.context.cell_s_sum": median(
            [c["cell_seconds"] for c, _ in pairs]),
        "harness.parallel.workers": workers,
        "harness.parallel.utilization": median([
            (c["cell_seconds"] + w["cell_seconds"])
            / (workers * (c["raw_seconds"] + w["raw_seconds"]))
            for c, w in pairs
        ]),
        "sim.workload.trace_insts": trace_insts,
    }
    return {
        "setup_s": median(setup_times),
        "setup_samples": setup_times,
        "setup_reps": SETUP_REPS,
        "units": len(pairs),
        "unit_seconds": [c["raw_seconds"] + w["raw_seconds"]
                         for c, w in pairs],
        "inputs_sha256": digest,
        "end_to_end": {
            "insts_per_s": median([c["instructions"] / c["seconds"]
                                   for c, _ in pairs]),
            "pass_insts_per_s": median([
                (c["instructions"] + w["instructions"])
                / (c["seconds"] + w["seconds"]) for c, w in pairs
            ]),
        },
        "named": {
            "sweep_cold_s": median(cold_s),
            "sweep_warm_s": median(warm_s),
        },
        "per_layer": per_layer,
        "notes": [
            f"subset: {', '.join(names)}",
            f"cold {[round(s, 3) for s in cold_s]} s, "
            f"warm {[round(s, 3) for s in warm_s]} s, "
            f"cache {cold['cache_stats']['entries']} entries "
            f"{cold['cache_stats']['bytes']} bytes",
            f"raw cold {[round(c['raw_seconds'], 3) for c, _ in pairs]} s",
        ],
        "details": {"benchmarks": list(names), "workers": workers},
    }
