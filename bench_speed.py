#!/usr/bin/env python
"""Simulator speed report and CI speed gate, read from perfbench.

perfbench (``perfbench/run.py``) is the one program that times the
simulator.  This script runs it and writes ``BENCH_SPEED.json`` from its
reports, as ``perfbench/ledger.json`` maps them: ``throughput`` and
``obs_overhead`` from a traced ``long_trace`` run (per-core numbers come
only from traced runs, which add one span per ``simulate`` call),
``f9_quick_sweep`` from ``sweep_cold``, each with its report's stamp.
Only ``fidelity_tiers`` is timed here: perfbench's traces are too short
for the cheap tiers to sample.  ``--check`` gates CI on the guards below
(``--update`` re-records the floors instead)::

    PYTHONPATH=src python bench_speed.py [--output BENCH_SPEED.json]
    PYTHONPATH=src python bench_speed.py --check [--update]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.interval import IntervalConfig
from repro.sim.registry import core_registry
from repro.sim.run import simulate
from repro.sim.sampling import SamplingConfig

ROOT = Path(__file__).resolve().parent
QUICK = ("gcc", "mcf", "swim", "equake")
#: perfbench ``--seconds``.  A traced long_trace round takes 12-22 s of
#: wall clock on a shared 2-vCPU host, and perfbench starts another round
#: only while the time used plus the mean round still fits, so a run
#: reads the median of at least three rounds while they average under
#: about 25 s.
CHECK_SECONDS = 75.0

#: Seed-commit throughput in reference-host insts/s: the old best-of-3
#: numbers times each core's ratio of perfbench median to the old loop,
#: both measured at 3348cf3 on one host.  Later core kinds have none.
SEED_BASELINE = {"ooo": 46421, "inorder": 43822, "depsteer": 67861,
                 "braid": 39367}

#: ``--check`` fails when a core's throughput drops below this fraction
#: of the recorded ``throughput`` section (a >20% regression).
CHECK_FLOOR = 0.80
#: Hooks-off throughput may not fall below this fraction of the seed
#: baseline: the observability layer's zero-overhead-when-off contract.
OBS_OVERHEAD_FLOOR = 0.97
#: A full Observer may cost at most this share of hooks-off throughput:
#: the guard catches a quadratic or allocation-happy hook.
OBS_COST_BUDGET_PCT = 70.0

#: every registered paradigm, so a new core is benchmarked for free
CORE_CONFIGS = {
    key: (descriptor.config_factory(8), descriptor.braided)
    for key, descriptor in core_registry().items()
}


def run_perfbench(workload: str, seconds: float, trace: int):
    """``(exit code, last stdout line, report, stderr)`` of one run."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1][:1] == "{" else None
    report = None
    for line in lines:
        if line.startswith("report: "):
            report = json.loads((ROOT / line.split(" ", 1)[1]).read_text())
    return done.returncode, last, report, done.stderr


def stamp(report: dict) -> dict:
    """What a section was measured on: run, commit, sources, host."""
    keys = ("run_id", "commit", "source_sha256")
    return {**{key: report["stamp"][key] for key in keys},
            "host_speed": round(report["host_speed"], 3),
            "rounds": report["units"]}


def metric(last: dict, name: str) -> float:
    """One metric of a perfbench result; 0.0 when it is absent."""
    return last["metrics"].get(name, {}).get("value") or 0.0


def kernel_sections(last: dict, report: dict, kinds) -> dict:
    """``throughput`` and ``obs_overhead`` from a traced long_trace run."""
    throughput, obs = {}, {}
    for kind in kinds:
        rate = metric(last, f"sim.{kind}.insts_per_s")
        cycle_ns = metric(last, f"sim.{kind}.ns_per_cycle")
        cost = metric(last, f"obs.{kind}.observer_cost_pct")
        seed = SEED_BASELINE.get(kind)
        throughput[kind] = {"insts_per_s": round(rate),
                            "ns_per_cycle": round(cycle_ns, 1)}
        obs[kind] = {"observer_cost_pct": round(cost, 1),
                     "hooks_off_vs_seed": seed and round(rate / seed, 3)}
    overall = round(metric(last, "obs.observer_cost_pct"), 1)
    return {"throughput": {"stamp": stamp(report), "cores": throughput},
            "obs_overhead": {"stamp": stamp(report),
                             "observer_cost_pct": overall, "cores": obs}}


def gate(code: int, last, recorded, kinds) -> list:
    """Everything wrong with one perfbench result; empty when it passes.

    ``recorded`` maps core kind to its recorded ``throughput`` entry; None
    skips that guard (the full report and ``--update`` set new floors)."""
    result = last or {}
    if code != 0 or not result.get("correct"):
        return [f"perfbench exited {code} (correct: {result.get('correct')}, "
                f"failed checks: {result.get('failed')})"]
    problems = []
    for kind in kinds:
        rate = metric(last, f"sim.{kind}.insts_per_s")
        if not rate:
            problems.append(f"{kind}: missing from the perfbench result")
            continue
        if recorded is not None:
            floor = recorded.get(kind, {}).get("insts_per_s")
            if not floor:
                problems.append(f"{kind}: no recorded throughput")
            elif rate / floor < CHECK_FLOOR:
                problems.append(f"{kind}: {rate:.0f} insts/s is "
                                f"{rate / floor:.3f}x the recorded {floor} "
                                f"(floor {CHECK_FLOOR})")
        seed = SEED_BASELINE.get(kind)
        if seed and rate / seed < OBS_OVERHEAD_FLOOR:
            problems.append(f"{kind}: {rate:.0f} insts/s is {rate / seed:.3f}x"
                            f" the seed {seed} (floor {OBS_OVERHEAD_FLOOR})")
        cost = metric(last, f"obs.{kind}.observer_cost_pct")
        if cost > OBS_COST_BUDGET_PCT:
            problems.append(f"{kind}: a full observer costs {cost:.1f}% "
                            f"(budget {OBS_COST_BUDGET_PCT}%)")
    return problems


#: Frozen long-trace configuration for the fidelity-tier benchmark: the
#: scale is large enough that anchored interval sampling has hundreds of
#: outer-loop iterations to stratify, which is where both its speedup and
#: its accuracy come from (error shrinks as (N - n)/N * cv/sqrt(n)), and
#: that the interval tier's dozen calibration windows cover a small
#: fraction of the trace.
FIDELITY_BENCH = {
    "scale": 64.0,
    "max_instructions": 2_500_000,
    "sampling": SamplingConfig(stride=16),
    "interval": IntervalConfig(),
}


def measure_fidelity_tiers() -> dict:
    """Exact vs sampled vs interval timing at the long-trace bench scale."""
    sampling = FIDELITY_BENCH["sampling"]
    interval = FIDELITY_BENCH["interval"]
    ctx = ExperimentContext(
        benchmarks=QUICK,
        scale=FIDELITY_BENCH["scale"],
        max_instructions=FIDELITY_BENCH["max_instructions"],
        jobs=1,
        cache=ArtifactCache.from_env(),
    )
    workloads = {
        braided: {name: ctx.workload(name, braided=braided) for name in QUICK}
        for braided in (False, True)
    }
    points = {}
    seconds = {"exact": 0.0, "sampled": 0.0, "interval": 0.0}
    for kind, (config, braided) in CORE_CONFIGS.items():
        for name in QUICK:
            workload = workloads[braided][name]
            started = time.perf_counter()
            exact = simulate(workload, config)
            seconds["exact"] += time.perf_counter() - started
            started = time.perf_counter()
            sampled = simulate(workload, config, sampling=sampling)
            seconds["sampled"] += time.perf_counter() - started
            started = time.perf_counter()
            analytic = simulate(
                workload, config, fidelity="interval", interval=interval
            )
            seconds["interval"] += time.perf_counter() - started

            def error_pct(estimate):
                if not exact.ipc:
                    return 0.0
                return round(
                    100 * abs(estimate.ipc - exact.ipc) / exact.ipc, 2
                )

            points[f"{name}/{kind}"] = {
                "exact_ipc": round(exact.ipc, 4),
                "sampled_ipc": round(sampled.ipc, 4),
                "sampled_error_pct": error_pct(sampled),
                "sampled_detail_fraction": round(
                    sampled.extra.get("sample_detail_fraction", 1.0), 3
                ),
                "interval_ipc": round(analytic.ipc, 4),
                "interval_error_pct": error_pct(analytic),
                "interval_stated_bound_pct": round(
                    analytic.extra.get("interval_error_bound_pct", 0.0), 1
                ),
                "interval_detail_fraction": round(
                    analytic.extra.get("sample_detail_fraction", 1.0), 3
                ),
            }

    def stats(tier):
        errors = [entry[f"{tier}_error_pct"] for entry in points.values()]
        return {
            f"{tier}_seconds": round(seconds[tier], 3),
            f"{tier}_speedup": round(seconds["exact"] / seconds[tier], 2)
            if seconds[tier] else 0.0,
            f"{tier}_max_ipc_error_pct": max(errors),
            f"{tier}_mean_ipc_error_pct": round(
                sum(errors) / len(errors), 2
            ),
        }

    section = {
        "scale": FIDELITY_BENCH["scale"],
        "max_instructions": FIDELITY_BENCH["max_instructions"],
        "sampling": sampling.spec(),
        "interval": interval.spec(),
        "exact_seconds": round(seconds["exact"], 3),
    }
    section.update(stats("sampled"))
    section.update(stats("interval"))
    section["points"] = points
    return section


def fail(problems: list, stderr: str) -> int:
    sys.stderr.write(stderr[-2000:])
    print("\nFAIL:\n  " + "\n  ".join(problems), file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_SPEED.json")
    parser.add_argument("--check", action="store_true",
                        help="gate on the recorded report")
    parser.add_argument("--update", action="store_true",
                        help="with --check: re-record throughput and "
                             "obs_overhead instead of gating")
    args = parser.parse_args(argv)
    output = Path(args.output)
    kinds = tuple(CORE_CONFIGS)
    recorded = json.loads(output.read_text()) if output.exists() else {}
    if args.update and not recorded:
        print(f"{output} does not exist; run the full report first",
              file=sys.stderr)
        return 1

    code, last, report, stderr = run_perfbench("long_trace", CHECK_SECONDS, 1)
    floors = recorded.get("throughput", {}).get("cores", {})
    guarded = args.check and not args.update
    problems = gate(code, last, floors if guarded else None, kinds)
    if problems:
        return fail(problems, stderr)
    fresh = kernel_sections(last, report, kinds)
    run = fresh["throughput"]["stamp"]
    print(f"perfbench run {run['run_id']}: median of {run['rounds']} "
          f"round(s), host speed {run['host_speed']}")
    for kind in kinds:
        rate = fresh["throughput"]["cores"][kind]["insts_per_s"]
        cost = fresh["obs_overhead"]["cores"][kind]["observer_cost_pct"]
        floor = floors.get(kind, {}).get("insts_per_s")
        versus = f" ({rate / floor:.2f}x recorded)" if floor else ""
        print(f"{kind}: {rate} insts/s{versus}, observer cost {cost:.1f}%")
    if guarded:
        print(f"OK: above {CHECK_FLOOR}x recorded and {OBS_OVERHEAD_FLOOR}x "
              f"seed; observer cost within {OBS_COST_BUDGET_PCT}%")
        return 0
    if args.update:
        recorded.update(fresh)
    else:
        code, sweep, report, stderr = run_perfbench("sweep_cold",
                                                     CHECK_SECONDS, 0)
        problems = gate(code, sweep, None, ())
        if problems:
            return fail(problems, stderr)
        f9 = {name: round(report["named"][name], 3)
              for name in ("sweep_cold_s", "sweep_warm_s")}
        recorded = {"seed_baseline": SEED_BASELINE, **fresh,
                    "f9_quick_sweep": {"stamp": stamp(report), **f9},
                    "fidelity_tiers": measure_fidelity_tiers()}
    output.write_text(json.dumps(recorded, indent=2) + "\n")
    print(f"wrote {output}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
