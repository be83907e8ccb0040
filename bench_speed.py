#!/usr/bin/env python
"""Simulator speed microbenchmark: core throughput and sweep wall-clock.

Measures, on the quick four-benchmark suite:

* **per-core throughput** — simulated instructions per wall-clock second for
  every registered timing-core kind with phase one (workload preparation)
  excluded, i.e. the hot-loop speed of ``simulate`` alone;
* **F9 sweep wall-clock** — the Figure 9 BEU sweep end to end under three
  regimes: cold serial (no artifact cache), warm serial (persistent cache
  populated), and warm parallel (``--jobs`` workers).  Every measurement uses
  a fresh :class:`ExperimentContext` so in-memory memoization cannot hide
  phase-one cost;
* **fidelity tiers** — the quick suite at the long-trace bench scale
  (scale 64, 2.5M-instruction cap) on every registered core kind, exact versus
  sampled (stride 16) versus interval (a dozen calibration windows):
  wall-clock speedup per tier and the worst/mean absolute IPC error of each
  estimate.  Phase one is excluded from all sides, so the ratios are the
  timing-loop speedups the cheaper tiers deliver.

Results land in ``BENCH_SPEED.json`` next to this script, alongside the
recorded seed-commit baseline so speedups are visible at a glance::

    PYTHONPATH=src python bench_speed.py [--jobs 4] [--output BENCH_SPEED.json]

``--check`` turns the script into a regression guard: it measures per-core
throughput and the observability contract, printing per-core speedup deltas
against the seed baseline and the recorded report, and exits non-zero when
any core regressed more than 20% against the recorded ``BENCH_SPEED.json``,
when hooks-off throughput fell below the seed floor, or when attaching a
full Observer costs more than the budget (add ``--quick`` for fewer repeat
passes in CI).  After an accepted perf change, ``--check --update``
re-baselines every section the guard reads (``throughput`` and
``obs_overhead``, both from the same run) instead of failing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.harness.experiments import fig9_braid_beus
from repro.harness.parallel import effective_jobs
from repro.obs import Observer
from repro.sim.interval import IntervalConfig
from repro.sim.registry import core_registry
from repro.sim.run import simulate
from repro.sim.sampling import SamplingConfig

QUICK = ("gcc", "mcf", "swim", "equake")

#: Measured at the seed commit on the reference container (1 CPU), same
#: quick suite and max_instructions — the baseline the acceptance criteria
#: compare against.  Core kinds that post-date the seed commit (e.g.
#: blockooo) have no entry; seed-relative deltas are skipped for them.
SEED_BASELINE = {
    "throughput_insts_per_sec": {
        "ooo": 37071,
        "inorder": 29281,
        "depsteer": 48377,
        "braid": 29624,
    },
    "f9_quick_serial_seconds": 4.74,
}

#: every registered paradigm, so a new core is benchmarked for free
CORE_CONFIGS = {
    key: (descriptor.config_factory(8), descriptor.braided)
    for key, descriptor in core_registry().items()
}


def measure_throughput(repeats: int = 1) -> dict:
    """Simulated instructions/second per core kind, phase one excluded.

    ``repeats`` takes the best (fastest) of N timed passes per core —
    ``--check`` uses it to damp cross-process scheduler noise, which on a
    busy host easily exceeds the regression threshold for a single pass.
    The instruction budget is always the recorded report's: a smaller
    budget systematically under-measures throughput (per-run fixed costs
    amortize over fewer instructions), which would read as a regression.

    An untimed warm-up pass over every core precedes the timed passes:
    virtualized hosts ramp CPU frequency over tens of seconds of
    sustained load, so without it the first-measured core runs on a cold
    clock and the last on a hot one — an ordering bias that dwarfs any
    real per-core regression.  Warm-up also fills the per-workload
    decode/replay caches, for the same reason.
    """
    ctx = ExperimentContext(
        benchmarks=QUICK, jobs=1, cache=ArtifactCache(enabled=False)
    )
    workloads = {
        braided: [ctx.workload(name, braided=braided) for name in QUICK]
        for braided in (False, True)
    }
    for config, braided in CORE_CONFIGS.values():
        for workload in workloads[braided]:
            simulate(workload, config)
    throughput = {}
    for kind, (config, braided) in CORE_CONFIGS.items():
        best_elapsed = None
        instructions = 0
        for _ in range(max(1, repeats)):
            instructions = 0
            started = time.perf_counter()
            for workload in workloads[braided]:
                instructions += simulate(workload, config).instructions
            elapsed = time.perf_counter() - started
            if best_elapsed is None or elapsed < best_elapsed:
                best_elapsed = elapsed
        throughput[kind] = {
            "instructions": instructions,
            "seconds": round(best_elapsed, 3),
            "insts_per_sec": round(instructions / best_elapsed)
            if best_elapsed else 0,
        }
    return throughput


#: Hooks-off throughput may not regress below this fraction of the seed
#: baseline: the observability layer's zero-overhead-when-off contract.
OBS_OVERHEAD_FLOOR = 0.97

#: Attaching a full Observer (trace + cpi + metrics) may cost at most
#: this percentage of hooks-off throughput.  Hooked runs event-skip like
#: unhooked ones (the observer pays per executed cycle and once per
#: skipped span), so the ratio tracks the observer's own per-cycle work
#: rather than the kernel's skip rate.  The guard exists to catch an
#: accidentally quadratic or allocation-happy hook, not to freeze the
#: ratio.
OBS_COST_BUDGET_PCT = 70.0

#: ``--check`` fails when any core's throughput drops below this fraction
#: of the recorded BENCH_SPEED.json numbers (i.e. a >20% regression).
CHECK_FLOOR = 0.80


def measure_obs_overhead(hooks_off: dict, repeats: int = 1) -> dict:
    """Observer-attached throughput vs the hooks-off numbers just taken.

    ``hooks_off`` is :func:`measure_throughput`'s result — those runs have no
    hooks installed, so they double as the zero-overhead side of the contract.
    The guard compares them against the recorded seed baseline; the observed
    column quantifies what attaching a full Observer costs when you opt in.
    ``repeats`` takes the best of N observed passes, same rationale as
    :func:`measure_throughput` — a single unlucky pass against a best-of-3
    hooks-off number would overstate the cost.
    """
    ctx = ExperimentContext(
        benchmarks=QUICK, jobs=1, cache=ArtifactCache(enabled=False)
    )
    workloads = {
        braided: [ctx.workload(name, braided=braided) for name in QUICK]
        for braided in (False, True)
    }
    seed_tp = SEED_BASELINE["throughput_insts_per_sec"]
    section = {}
    for kind, (config, braided) in CORE_CONFIGS.items():
        observed = 0.0
        for _ in range(max(1, repeats)):
            instructions = 0
            started = time.perf_counter()
            for workload in workloads[braided]:
                observe = Observer(trace=True, cpi=True, metrics=True)
                instructions += simulate(
                    workload, config, observe=observe
                ).instructions
            elapsed = time.perf_counter() - started
            observed = max(
                observed, instructions / elapsed if elapsed else 0.0
            )
        plain = hooks_off[kind]["insts_per_sec"]
        seed = seed_tp.get(kind)
        section[kind] = {
            "hooks_off_insts_per_sec": plain,
            "observed_insts_per_sec": round(observed),
            "observer_cost_pct": round(100 * (1 - observed / plain), 1)
            if plain else 0.0,
            # None for kinds the seed commit did not have
            "hooks_off_vs_seed": round(plain / seed, 3) if seed else None,
        }
    return section


def check_obs_overhead(section: dict) -> list:
    """Cores whose hooks-off throughput regressed past the floor."""
    return [
        f"{kind}: hooks-off throughput is "
        f"{entry['hooks_off_vs_seed']:.3f}x the seed baseline "
        f"({entry['hooks_off_insts_per_sec']} vs "
        f"{SEED_BASELINE['throughput_insts_per_sec'][kind]} insts/s, "
        f"floor {OBS_OVERHEAD_FLOOR})"
        for kind, entry in section.items()
        if entry["hooks_off_vs_seed"] is not None
        and entry["hooks_off_vs_seed"] < OBS_OVERHEAD_FLOOR
    ]


def check_obs_cost(section: dict) -> list:
    """Cores where attaching a full Observer costs more than the budget."""
    return [
        f"{kind}: full observer costs {entry['observer_cost_pct']:.1f}% of "
        f"hooks-off throughput ({entry['observed_insts_per_sec']} vs "
        f"{entry['hooks_off_insts_per_sec']} insts/s, "
        f"budget {OBS_COST_BUDGET_PCT}%)"
        for kind, entry in section.items()
        if entry["observer_cost_pct"] > OBS_COST_BUDGET_PCT
    ]


def check_throughput(fresh: dict, recorded: dict) -> list:
    """Cores whose throughput regressed past ``CHECK_FLOOR`` (the
    ``--check`` guard, mirroring :func:`check_obs_overhead`)."""
    problems = []
    for kind, entry in fresh.items():
        baseline = recorded.get(kind, {}).get("insts_per_sec")
        if not baseline:
            problems.append(
                f"{kind}: no recorded throughput baseline — run the full "
                "benchmark (or --check --update) first"
            )
            continue
        ratio = entry["insts_per_sec"] / baseline
        if ratio < CHECK_FLOOR:
            problems.append(
                f"{kind}: throughput is {ratio:.3f}x the recorded baseline "
                f"({entry['insts_per_sec']} vs {baseline} insts/s, "
                f"floor {CHECK_FLOOR})"
            )
    return problems


def time_f9(jobs: int, cache: ArtifactCache) -> float:
    """Wall-clock of the full Figure 9 quick sweep with a fresh context."""
    ctx = ExperimentContext(benchmarks=QUICK, jobs=jobs, cache=cache)
    started = time.perf_counter()
    fig9_braid_beus(ctx)
    return time.perf_counter() - started


#: Sweep points the Figure 9 experiment dispatches on the quick suite:
#: five BEU counts plus the ooo baseline, per benchmark.
F9_POINTS = len(QUICK) * 6


def measure_sweep(jobs: int) -> dict:
    # Record the worker count the pool actually used, not the request:
    # effective_jobs clamps to the host CPU count (and to one worker on
    # single-CPU hosts), and a report claiming "jobs: 4" for a serial run
    # misattributes the wall-clock.
    effective = effective_jobs(jobs, F9_POINTS)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        cold = time_f9(1, ArtifactCache(enabled=False))
        # Populate the cache, then measure warm regimes on fresh contexts.
        time_f9(1, ArtifactCache(root=Path(tmp)))
        warm_serial = time_f9(1, ArtifactCache(root=Path(tmp)))
        warm_parallel = time_f9(jobs, ArtifactCache(root=Path(tmp)))
    section = {
        "jobs_requested": jobs,
        "jobs": effective,
        "cold_serial_seconds": round(cold, 3),
        "warm_serial_seconds": round(warm_serial, 3),
        "warm_parallel_seconds": round(warm_parallel, 3),
    }
    if effective != jobs:
        section["jobs_note"] = (
            f"--jobs {jobs} clamped to {effective} by effective_jobs "
            f"(host exposes {os.cpu_count()} CPU(s), {F9_POINTS} points): "
            "the warm_parallel regime ran with the clamped worker count"
        )
    return section


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


def aggregate_speedup(throughput: dict, tiers: dict) -> dict:
    """Combined-layer speedup vs the seed commit's exact simulator.

    The tier speedups in ``tiers`` are measured against *today's* exact
    mode, which already contains the event-kernel and replay-facts wins;
    the seed exact simulator was slower by the per-core throughput ratios.
    The aggregate composes both layers — (seed-vs-now throughput, geometric
    mean over core kinds) x (exact-vs-interval wall-clock at bench scale) —
    and reports each factor so the composition is checkable.
    """
    seed_tp = SEED_BASELINE["throughput_insts_per_sec"]
    ratios = [
        throughput[kind]["insts_per_sec"] / seed_tp[kind]
        for kind in seed_tp
        if throughput.get(kind, {}).get("insts_per_sec")
    ]
    kernel = 1.0
    for ratio in ratios:
        kernel *= ratio
    kernel **= 1.0 / len(ratios) if ratios else 1.0
    sampled = tiers.get("sampled_speedup", 0.0)
    interval = tiers.get("interval_speedup", 0.0)
    return {
        "kernel_layer_geomean": round(kernel, 2),
        "sampled_tier": sampled,
        "interval_tier": interval,
        "sampled_vs_seed_exact": round(kernel * sampled, 1),
        "interval_vs_seed_exact": round(kernel * interval, 1),
        "note": (
            "tier speedups are measured against today's exact mode; "
            "multiplying by the kernel-layer geomean gives the wall-clock "
            "ratio vs the seed commit's exact simulator at bench scale"
        ),
    }


def run_check(args) -> int:
    """The ``--check`` regression guard (and ``--update`` re-baseline)."""
    output = Path(args.output)
    recorded = {}
    if output.exists():
        recorded = json.loads(output.read_text())
    fresh = measure_throughput(repeats=2 if args.quick else 3)
    seed_tp = SEED_BASELINE["throughput_insts_per_sec"]
    recorded_tp = recorded.get("throughput", {})
    for kind, entry in fresh.items():
        rate = entry["insts_per_sec"]
        deltas = []
        if seed_tp.get(kind):
            deltas.append(f"{rate / seed_tp[kind]:.2f}x seed")
        baseline = recorded_tp.get(kind, {}).get("insts_per_sec")
        if baseline:
            deltas.append(f"{rate / baseline:.2f}x recorded")
        print(
            f"{kind}: {rate} insts/s"
            + (f" ({', '.join(deltas)})" if deltas else "")
        )

    obs_overhead = measure_obs_overhead(fresh, repeats=2 if args.quick else 3)
    for kind, entry in obs_overhead.items():
        print(
            f"{kind}: observer cost {entry['observer_cost_pct']:.1f}% "
            f"(observed {entry['observed_insts_per_sec']} insts/s)"
        )

    if args.update:
        if not recorded:
            print(
                f"{output} does not exist; run the full benchmark first",
                file=sys.stderr,
            )
            return 1
        recorded["throughput"] = fresh
        recorded["obs_overhead"] = obs_overhead
        seed_tp = SEED_BASELINE["throughput_insts_per_sec"]
        recorded.setdefault("speedup_vs_seed", {})["throughput"] = {
            kind: round(entry["insts_per_sec"] / seed_tp[kind], 2)
            for kind, entry in fresh.items()
            if seed_tp.get(kind)
        }
        output.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"re-baselined throughput and obs_overhead in {output}")
        return 0

    problems = check_throughput(fresh, recorded_tp)
    if problems:
        print(
            f"\nFAIL: throughput regressed past the {CHECK_FLOOR} floor "
            f"vs {output}:",
            file=sys.stderr,
        )
        for line in problems:
            print(f"  {line}", file=sys.stderr)
        print(
            "  (after an accepted perf change, re-baseline with "
            "--check --update)",
            file=sys.stderr,
        )
        return 1

    obs_problems = check_obs_overhead(obs_overhead) + check_obs_cost(
        obs_overhead
    )
    if obs_problems:
        print(
            "\nFAIL: observability contract violated "
            f"(hooks-off floor {OBS_OVERHEAD_FLOOR} vs seed, observer cost "
            f"budget {OBS_COST_BUDGET_PCT}%):",
            file=sys.stderr,
        )
        for line in obs_problems:
            print(f"  {line}", file=sys.stderr)
        return 1

    print(
        f"OK: no core regressed past the {CHECK_FLOOR} floor; observer "
        f"cost within the {OBS_COST_BUDGET_PCT}% budget"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for the warm parallel sweep (default 4)")
    parser.add_argument("--output", default="BENCH_SPEED.json",
                        help="where to write the JSON report")
    parser.add_argument("--check", action="store_true",
                        help="measure throughput only and exit non-zero on a "
                             f">{round((1 - CHECK_FLOOR) * 100)}%% per-core "
                             "regression vs the recorded report")
    parser.add_argument("--update", action="store_true",
                        help="with --check: accept the fresh throughput "
                             "and observer-cost numbers and rewrite the "
                             "recorded baseline")
    parser.add_argument("--quick", action="store_true",
                        help="with --check: fewer repeat passes (CI budget)")
    args = parser.parse_args(argv)

    if args.check or args.update:
        return run_check(args)

    throughput = measure_throughput()
    obs_overhead = measure_obs_overhead(throughput)
    sweep = measure_sweep(args.jobs)
    tiers = measure_fidelity_tiers()

    seed_tp = SEED_BASELINE["throughput_insts_per_sec"]
    notes = []
    if (os.cpu_count() or 1) < args.jobs:
        notes.append(
            f"host exposes {os.cpu_count()} CPU(s) < --jobs {args.jobs}: "
            "workers time-slice one core, so the parallel sweep pays pool "
            "overhead without parallel speedup; on a multi-core host the "
            "sweep points fan out across cores"
        )
    report = {
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "suite": {"benchmarks": list(QUICK), "max_instructions": 60_000},
        "throughput": throughput,
        "obs_overhead": obs_overhead,
        "f9_quick_sweep": sweep,
        "fidelity_tiers": tiers,
        "seed_baseline": SEED_BASELINE,
        "speedup_vs_seed": {
            "throughput": {
                kind: round(entry["insts_per_sec"] / seed_tp[kind], 2)
                for kind, entry in throughput.items()
                if seed_tp.get(kind)
            },
            "f9_warm_serial": round(
                SEED_BASELINE["f9_quick_serial_seconds"]
                / sweep["warm_serial_seconds"], 2,
            ),
            "f9_warm_parallel": round(
                SEED_BASELINE["f9_quick_serial_seconds"]
                / sweep["warm_parallel_seconds"], 2,
            ),
            "aggregate": aggregate_speedup(throughput, tiers),
        },
        "notes": notes,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    regressions = check_obs_overhead(obs_overhead) + check_obs_cost(
        obs_overhead
    )
    if regressions:
        print(
            "\nFAIL: observability contract violated (hooks-off floor "
            f"{OBS_OVERHEAD_FLOOR} vs the seed baseline, observer cost "
            f"budget {OBS_COST_BUDGET_PCT}%):",
            file=sys.stderr,
        )
        for line in regressions:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
