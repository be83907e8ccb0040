"""``long_trace``: the timing kernel, the observer and the fidelity tiers.

The four quick benchmarks, two seeded programs of each at three times
the default dynamic scale, every trace cut to the same length (long
enough for the interval tier to calibrate rather than fall back to
exact), on every registered core.  Each point runs four ways in one
process: exact, exact with a full :class:`~repro.obs.Observer`
attached, sampled (stride 16) and interval (default calibration).
Phase one for every point is the set-up; the artifact cache, the worker
pools and the service do no work here.

The seed perturbs each benchmark profile's generator seed, so another
seed gives other programs with the same statistical shape.  Programs
of one shape still differ in how fast they simulate (up to a third
apart, by seed); eight programs of equal trace length per run, rather
than four of unequal length, keep one seed's run close to another's.
One pass of all points and tiers takes about 23 reference-host seconds
(30 s on a 2-vCPU VM running at 0.75x the reference host).
"""

from __future__ import annotations

import gc
import json
import math
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from common import Deadline, HostClock, median, sha256_parts

from repro.core.pipeline import braidify
from repro.obs import Observer
from repro.sim.interval import IntervalConfig
from repro.sim.registry import core_registry
from repro.sim.run import simulate
from repro.sim.sampling import SamplingConfig
from repro.sim.workload import prepare_workload
from repro.workloads.generator import generate
from repro.workloads.profiles import profile, scaled

BENCHMARKS = ("gcc", "mcf", "swim", "equake")
SCALE = 3.0
#: seeded programs per benchmark
VARIANTS = 2
#: trace length of every program: below the shortest trace (mcf's) of
#: any of 84 programs tried at this scale (seeds 0-39 and two large
#: ones: 8038), so seeds differ in programs only; long enough for the
#: default interval tier to calibrate (at 6500 it falls back to exact)
MAX_INSTRUCTIONS = 7000
PREDICTOR = "perceptron"
SETUP_REPS = 3
#: profile-seed offset per benchmark seed (seed 0 = the stock programs)
SEED_STRIDE = 7919
SAMPLING = SamplingConfig(stride=16)
INTERVAL = IntervalConfig()
TIERS = ("exact", "observed", "sampled", "interval")
TIER_LAYER = {"exact": "sim.kernel", "observed": "obs",
              "sampled": "sim.sampling", "interval": "sim.interval"}
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: The interval tier states a ~95% bound (1.96 standard errors, floored
#: at the configured bound), so a point may miss it now and then.  A run
#: fails when more points miss than a 95% bound allows with 98%
#: probability, or when any point misses by more than 2x.
MISS_RATE = 0.05
MISS_CONFIDENCE = 0.98
GROSS_MISS = 2.0


def max_bound_misses(points: int) -> int:
    """Smallest k with P(more than k of ``points`` misses) <= 2%, each
    point missing with probability :data:`MISS_RATE`."""
    below = 0.0
    for k in range(points + 1):
        below += (math.comb(points, k) * MISS_RATE ** k
                  * (1 - MISS_RATE) ** (points - k))
        if below >= MISS_CONFIDENCE:
            return k
    return points


def programs() -> List[Tuple[str, int]]:
    """``(benchmark, variant)`` of every program a run simulates."""
    return [(name, variant) for name in BENCHMARKS
            for variant in range(VARIANTS)]


def seeded_program(name: str, seed: int, variant: int = 0):
    """Seed 0, variant 0 is the stock program."""
    base = profile(name)
    offset = (seed * VARIANTS + variant) * SEED_STRIDE
    return generate(scaled(replace(base, seed=base.seed + offset), SCALE))


def inputs_sha256(seed: int) -> str:
    parts = [f"scale={SCALE}", f"cap={MAX_INSTRUCTIONS}"]
    for name, variant in programs():
        parts += [f"{name}.{variant}",
                  seeded_program(name, seed, variant).render()]
    return sha256_parts(parts)


def phase_one(seed: int, rec) -> Dict[Tuple[str, bool], object]:
    """Generate, braid-compile and prepare every workload the points use;
    keyed by ``(program label, braided)``."""
    workloads = {}
    for name, variant in programs():
        program = rec.call("workloads", "generate", seeded_program, name,
                           seed, variant)
        compilation = rec.call("core", "braidify", braidify, program)
        for braided, source in ((False, program),
                                (True, compilation.translated)):
            workload = rec.call(
                "sim.workload", "prepare_workload", prepare_workload, source,
                predictor=PREDICTOR, max_instructions=MAX_INSTRUCTIONS,
            )
            workload.decode()
            workload.replay()
            workloads[(f"{name}.{variant}", braided)] = workload
    return workloads


def run_tier(tier: str, workload, config):
    if tier == "exact":
        return simulate(workload, config, fidelity="exact")
    if tier == "observed":
        return simulate(
            workload, config, fidelity="exact",
            observe=Observer(trace=True, cpi=True, metrics=True),
        )
    if tier == "sampled":
        return simulate(workload, config, fidelity="sampled",
                        sampling=SAMPLING)
    return simulate(workload, config, fidelity="interval", interval=INTERVAL)


def load_digest():
    """The recorded seed-0 exact pins, or None when they are missing or
    were recorded at another scale or cap."""
    if not DIGESTS.exists():
        return None
    recorded = json.loads(DIGESTS.read_text()).get("long_trace")
    if recorded is None or recorded.get("scale") != SCALE \
            or recorded.get("max_instructions") != MAX_INSTRUCTIONS:
        return None
    return recorded["points"]


def record_digest(points: Dict[str, List[int]]) -> None:
    existing = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    existing["long_trace"] = {
        "seed": 0, "scale": SCALE, "max_instructions": MAX_INSTRUCTIONS,
        "points": points,
    }
    DIGESTS.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")


def run(seed: int, seconds: float, rec, acct, work: Path,
        update_digest: bool = False) -> Dict:
    kinds = {
        key: (descriptor.config_factory(8), descriptor.braided)
        for key, descriptor in core_registry().items()
    }
    points = [(f"{name}.{variant}", key)
              for name, variant in programs() for key in kinds]

    clock = HostClock(reps=3)
    rec.phase = "setup"
    setup_times, setup_raw = [], []
    for _ in range(SETUP_REPS):
        # Free the previous repetition first, so every one starts from
        # the same heap and the collector scans the same object count.
        workloads = {}
        gc.collect()
        workloads, adjusted, raw = clock.measure(phase_one, seed, rec,
                                                 fresh=True)
        setup_times.append(adjusted)
        setup_raw.append(raw)

    # Untimed warm-up: ramps the host clock before the first timed call.
    rec.phase = "warmup"
    for key, (config, braided) in kinds.items():
        simulate(workloads[("mcf.0", braided)], config, fidelity="exact")

    rec.phase = "timed"
    clock.reps = 1  # one sample on each side of every simulate call
    rounds: List[Dict] = []
    deadline = Deadline(seconds)
    while deadline.another():
        gc.collect()
        started = time.perf_counter()
        rounds.append(measure_round(points, kinds, workloads, rec, acct,
                                    clock))
        deadline.record(time.perf_counter() - started)

    rec.phase = "check"
    digest = check_round_consistency(rounds, acct)
    expected = load_digest()
    if seed != 0:
        pass  # the recorded pins are for the stock programs only
    elif update_digest:
        record_digest(digest)
    elif expected is None:
        acct.fail("no exact-cycle digest recorded for this scale and cap")
    else:
        for point, pin in digest.items():
            acct.check(expected.get(point) == pin,
                       f"{point}: exact (cycles, insts) {pin} != recorded "
                       f"{expected.get(point)}")
        acct.check(set(expected) == set(digest),
                   "recorded digest covers other points")
    result = summarize(rounds, kinds, workloads, setup_times, seed)
    result["setup_raw"] = setup_raw
    result["host_speed"] = clock.speed
    misses = result["per_layer"]["sim.interval.bound_misses"]
    acct.check(misses <= max_bound_misses(len(points)),
               f"{misses} interval estimates missed their stated bound")
    return result


def traced_tier(rec, tier, point, workload, config):
    with rec.span(TIER_LAYER[tier], "simulate", rid=point):
        return run_tier(tier, workload, config)


def measure_round(points, kinds, workloads, rec, acct, clock) -> Dict:
    """One pass: every point on every tier, each call timed.

    Each tier maps to ``(result, adjusted seconds, raw seconds)``."""
    runs = {}
    for name, key in points:
        config, braided = kinds[key]
        workload = workloads[(name, braided)]
        point = f"{name}/{key}"
        results = {}
        for tier in TIERS:
            acct.attempt()
            try:
                results[tier] = clock.measure(traced_tier, rec, tier, point,
                                              workload, config)
            except Exception as error:  # noqa: BLE001 - count, keep going
                acct.fail(f"{point}/{tier}: {type(error).__name__}: {error}")
                clock.sample()
                continue
        runs[point] = results
        check_point(point, workload, results, acct)
    return runs


def check_point(point: str, workload, results, acct) -> None:
    exact = results.get("exact")
    if exact is None:
        return
    exact = exact[0]
    if exact.instructions != len(workload.trace):
        acct.fail(f"{point}: exact retired {exact.instructions} of "
                  f"{len(workload.trace)} instructions")
    observed = results.get("observed")
    if observed is not None and (
        observed[0].cycles, observed[0].instructions
    ) != (exact.cycles, exact.instructions):
        acct.fail(f"{point}: observer changed the exact counters")
    interval = results.get("interval")
    if interval is not None and exact.ipc:
        bound = interval[0].extra.get("interval_error_bound_pct")
        error = 100 * abs(interval[0].ipc - exact.ipc) / exact.ipc
        if bound is not None and error > GROSS_MISS * bound:
            acct.fail(f"{point}: interval error {error:.2f}% is more than "
                      f"{GROSS_MISS:g}x its stated bound {bound:.2f}%")


def check_round_consistency(rounds, acct) -> Dict[str, List[int]]:
    """Simulated results must repeat exactly; returns the exact pins."""
    first = rounds[0]
    digest = {
        point: [tiers["exact"][0].cycles, tiers["exact"][0].instructions]
        for point, tiers in first.items() if "exact" in tiers
    }
    for later in rounds[1:]:
        for point, tiers in later.items():
            for tier, (result, *_) in tiers.items():
                reference = first.get(point, {}).get(tier)
                acct.check(
                    reference is not None
                    and reference[0].cycles == result.cycles,
                    f"{point}/{tier}: cycles differ between rounds",
                )
    return digest


def summarize(rounds, kinds, workloads, setup_times, seed) -> Dict:
    def rate(runs, tier, keys=None) -> float:
        insts = seconds = 0.0
        for point, tiers in runs.items():
            if keys is not None and point.split("/")[1] not in keys:
                continue
            if tier in tiers:
                insts += tiers[tier][0].instructions
                seconds += tiers[tier][1]
        return insts / seconds if seconds else 0.0

    def pass_rate(runs) -> float:
        insts = sum(r.instructions for t in runs.values()
                    for r, *_ in t.values())
        seconds = sum(s for t in runs.values() for _, s, _ in t.values())
        return insts / seconds if seconds else 0.0

    tier_rate = {
        tier: median([rate(runs, tier) for runs in rounds]) for tier in TIERS
    }
    first = rounds[0]

    def errors(tier) -> List[float]:
        out = []
        for tiers in first.values():
            if tier in tiers and "exact" in tiers and tiers["exact"][0].ipc:
                exact = tiers["exact"][0].ipc
                out.append(100 * abs(tiers[tier][0].ipc - exact) / exact)
        return out

    def extras(tier, field, default=0.0) -> List[float]:
        return [
            float(tiers[tier][0].extra.get(field, default))
            for tiers in first.values() if tier in tiers
        ]

    per_layer = {}
    for key in kinds:
        exact_rates = [rate(runs, "exact", {key}) for runs in rounds]
        observed_rates = [rate(runs, "observed", {key}) for runs in rounds]
        cycles = sum(
            tiers["exact"][0].cycles for point, tiers in first.items()
            if point.endswith(f"/{key}") and "exact" in tiers
        )
        seconds = median([
            sum(tiers["exact"][1] for point, tiers in runs.items()
                if point.endswith(f"/{key}") and "exact" in tiers)
            for runs in rounds
        ])
        per_layer[f"sim.{key}.insts_per_s"] = median(exact_rates)
        per_layer[f"sim.{key}.ns_per_cycle"] = (
            1e9 * seconds / cycles if cycles else 0.0
        )
        per_layer[f"sim.{key}.cycles"] = cycles
        per_layer[f"obs.{key}.observer_cost_pct"] = 100 * (
            1 - median(observed_rates) / median(exact_rates)
        ) if median(exact_rates) else 0.0
    per_layer["obs.observer_cost_pct"] = 100 * (
        1 - tier_rate["observed"] / tier_rate["exact"]
    ) if tier_rate["exact"] else 0.0
    detail = extras("sampled", "sample_detail_fraction", 1.0)
    per_layer["sim.sampling.detail_fraction"] = sum(detail) / len(detail)
    per_layer["sim.sampling.windows"] = sum(
        tiers["sampled"][0].sample_intervals for tiers in first.values()
        if "sampled" in tiers
    )
    detail = extras("interval", "sample_detail_fraction", 1.0)
    per_layer["sim.interval.detail_fraction"] = sum(detail) / len(detail)
    per_layer["sim.interval.windows"] = sum(extras("interval",
                                                   "interval_windows"))
    bounds = extras("interval", "interval_error_bound_pct")
    per_layer["sim.interval.stated_bound_pct"] = sum(bounds) / len(bounds)
    per_layer["sim.interval.bound_misses"] = sum(
        1 for tiers in first.values()
        if "interval" in tiers and "exact" in tiers and tiers["exact"][0].ipc
        and 100 * abs(tiers["interval"][0].ipc - tiers["exact"][0].ipc)
        / tiers["exact"][0].ipc
        > tiers["interval"][0].extra.get("interval_error_bound_pct", 1e9)
    )
    per_layer["sim.workload.trace_insts"] = sum(
        len(workload.trace) for workload in workloads.values()
    )
    sampled_err, interval_err = errors("sampled"), errors("interval")
    return {
        "setup_s": median(setup_times),
        "setup_samples": setup_times,
        "setup_reps": SETUP_REPS,
        "units": len(rounds),
        "unit_seconds": [
            sum(raw for t in runs.values() for *_, raw in t.values())
            for runs in rounds
        ],
        "inputs_sha256": inputs_sha256(seed),
        "end_to_end": {
            "insts_per_s": tier_rate["exact"],
            "pass_insts_per_s": median([pass_rate(runs) for runs in rounds]),
        },
        "named": {
            "exact_insts_per_s": tier_rate["exact"],
            "observed_insts_per_s": tier_rate["observed"],
            "sampled_insts_per_s": tier_rate["sampled"],
            "interval_insts_per_s": tier_rate["interval"],
            "sampled_ipc_err_pct": sum(sampled_err) / len(sampled_err),
            "interval_ipc_err_pct": sum(interval_err) / len(interval_err),
        },
        "per_layer": per_layer,
        "details": {
            "points": len(first),
            "scale": SCALE,
            "benchmarks": list(BENCHMARKS),
            "cores": list(kinds),
        },
    }
