"""Command-line experiment runner.

Regenerate any of the paper's tables/figures directly::

    python -m repro.harness F13 T1          # specific experiments
    python -m repro.harness all             # everything
    REPRO_BENCHMARKS=quick python -m repro.harness F9 F10
    python -m repro.harness F9 --scale 64 --sample stride=16   # sampled mode
    python -m repro.harness F9 --fidelity interval             # analytic mode
    python -m repro.harness cache-info      # persistent cache report
    python -m repro.harness cache-clear     # wipe the persistent cache

Experiment ids follow DESIGN.md section 3 (F1, VC, T1-T3, F5-F14, D1,
A1-A2).  ``--sample`` (or ``REPRO_SAMPLE``) switches the timing runs to
interval-sampled estimation; sampled figures carry a note with the worst
IPC confidence interval of their points.  ``--fidelity`` (or
``REPRO_FIDELITY``) picks the tier explicitly — ``exact``, ``sampled``,
or ``interval``, the cheapest analytic model, tunable via ``--interval``
(``REPRO_INTERVAL``).

``validate`` runs the differential validation sweep instead of an
experiment: every selected benchmark on every selected core under the
lockstep architectural oracle (plus the sampled tier with ``--sample``
or ``--fidelity sampled``, the interval tier with ``--interval`` or
``--fidelity interval``, per-cycle invariants with ``--invariants``),
then the translator fuzzer::

    python -m repro.harness validate                       # quick suite
    python -m repro.harness validate --benchmarks gcc,mcf,swim
    python -m repro.harness validate --sample --invariants --fuzz 500

``faults`` runs a transient-fault injection campaign (:mod:`repro.faults`)
and prints the per-structure AVF figure; the campaign journals every
classified injection and ``--resume`` continues a killed campaign without
rerunning completed work::

    python -m repro.harness faults --cores braid,ooo --runs 32 --seed 7
    python -m repro.harness faults --structures rob,scheduler --jobs 4
    python -m repro.harness faults --resume

``trace`` records a cycle-level pipeline trace of one benchmark on one
core and writes it for a pipeline viewer — Konata text or Chrome
trace-event JSON (Perfetto / ``chrome://tracing``)::

    python -m repro.harness trace --bench gcc --core braid --format konata
    python -m repro.harness trace --bench mcf --core ooo --format chrome \
        --out mcf.trace.json

``submit`` / ``serve`` / ``status`` / ``events`` / ``metrics`` drive the
durable simulation service
(:mod:`repro.service`): submissions are journaled crash-safe, identical
requests dedup onto one run, and a supervisor schedules jobs onto the
hardened worker fleet with quotas and full SIGKILL recovery::

    python -m repro.harness submit simulate benchmark=gcc core=braid
    python -m repro.harness serve --jobs 4 --drain-when-idle
    python -m repro.harness status

``CS`` (an ordinary experiment id) prints CPI stall-attribution stacks;
``--format bars`` renders them as stacked bars.  ``--profile`` wraps the
run (workers included) in cProfile and prints an aggregated top-N report.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import ALL_EXPERIMENTS, ExperimentContext

_CACHE_COMMANDS = ("cache-info", "cache-clear")


def _run_cache_command(command: str) -> None:
    from .artifacts import ArtifactCache

    cache = ArtifactCache.from_env()
    if command == "cache-info":
        stats = cache.stats()
        limit = stats["limit_bytes"]
        print(f"cache root:  {stats['root']}")
        print(f"enabled:     {stats['enabled']}")
        print(f"entries:     {stats['entries']}")
        print(f"total size:  {stats['bytes'] / 1e6:.1f} MB")
        print(f"size limit:  "
              f"{'none' if limit is None else f'{limit / 1e6:.1f} MB'}")
        for kind, bucket in sorted(stats["by_kind"].items()):
            print(f"  {kind:12s} {bucket['entries']:5d} entries  "
                  f"{bucket['bytes'] / 1e6:8.1f} MB")
    else:
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")


def _tier_args(args, parser):
    """``--sample``/``--interval``/``--fidelity`` as
    ``(sampling, interval, fidelity)``; ``--interval`` alone implies the
    interval tier."""
    sampling = interval = None
    if args.sample is not None:
        from ..sim.sampling import SamplingConfig

        try:
            sampling = SamplingConfig.parse(args.sample)
        except ValueError as error:
            parser.error(f"--sample: {error}")
    if args.interval is not None:
        from ..sim.interval import IntervalConfig

        try:
            interval = IntervalConfig.parse(args.interval)
        except ValueError as error:
            parser.error(f"--interval: {error}")
    fidelity = args.fidelity
    if fidelity is None and interval is not None:
        fidelity = "interval"
    return sampling, interval, fidelity


def _run_validate(args, parser) -> int:
    """The ``validate`` command: differential validation sweep + fuzzing."""
    from ..validate import DEFAULT_CORES, run_validation
    from . import ExperimentContext
    from .artifacts import ArtifactCache

    sampling, interval, fidelity = _tier_args(args, parser)
    if fidelity == "sampled" and sampling is None:
        from ..sim.sampling import SamplingConfig

        sampling = SamplingConfig()
    if fidelity == "interval" and interval is None:
        from ..sim.interval import IntervalConfig

        interval = IntervalConfig()

    if args.benchmarks in (None, "quick"):
        from ..workloads import QUICK_BENCHMARKS

        benchmarks = QUICK_BENCHMARKS
    elif args.benchmarks == "full":
        from ..workloads.profiles import ALL_BENCHMARKS

        benchmarks = ALL_BENCHMARKS
    else:
        benchmarks = tuple(
            name.strip() for name in args.benchmarks.split(",") if name.strip()
        )

    cores = DEFAULT_CORES
    if args.cores:
        cores = tuple(
            key.strip() for key in args.cores.split(",") if key.strip()
        )

    cache = ArtifactCache(enabled=False) if args.no_cache else None
    context = ExperimentContext(
        benchmarks=benchmarks, scale=args.scale, jobs=1, cache=cache,
    )
    try:
        report = run_validation(
            context,
            benchmarks,
            cores=cores,
            sampling=sampling,
            invariants=args.invariants,
            fuzz_samples=args.fuzz,
            fuzz_seed=args.fuzz_seed,
            interval=interval,
        )
    except ValueError as error:
        parser.error(str(error))
    print(report.render())
    return 0 if report.passed else 1


def _run_faults(args, parser) -> int:
    """The ``faults`` command: transient-fault injection campaign + AVF."""
    from pathlib import Path

    from ..faults import CampaignError, CampaignSpec, run_campaign
    from ..validate import DEFAULT_CORES
    from . import ExperimentContext
    from .artifacts import ArtifactCache
    from .parallel import jobs_from_env

    # Injection campaigns default to one small benchmark at a reduced
    # scale: each (structure, run) cell is a full simulation, so the grid
    # multiplies fast.
    if args.benchmarks in (None, "quick"):
        benchmarks = ("gcc",)
    elif args.benchmarks == "full":
        from ..workloads.profiles import ALL_BENCHMARKS

        benchmarks = ALL_BENCHMARKS
    else:
        benchmarks = tuple(
            name.strip() for name in args.benchmarks.split(",") if name.strip()
        )

    cores = DEFAULT_CORES
    if args.cores:
        cores = tuple(
            key.strip() for key in args.cores.split(",") if key.strip()
        )
    structures = None
    if args.structures:
        structures = tuple(
            name.strip() for name in args.structures.split(",") if name.strip()
        )

    scale = args.scale if args.scale is not None else 0.2
    jobs = args.jobs if args.jobs is not None else jobs_from_env()
    cache = ArtifactCache(enabled=False) if args.no_cache else None
    context = ExperimentContext(
        benchmarks=benchmarks, scale=scale, jobs=1, cache=cache,
    )
    spec = CampaignSpec(
        benchmarks=benchmarks,
        cores=cores,
        structures=structures,
        runs=args.runs,
        seed=args.seed,
        scale=scale,
        timeout=args.timeout,
        jobs=jobs,
    )
    journal_path = Path(args.journal) if args.journal else None
    started = time.time()
    try:
        report = run_campaign(
            context, spec, journal_path=journal_path, resume=args.resume,
        )
    except CampaignError as error:
        parser.error(str(error))
    print(report.render())
    # Timings and paths go to stderr: stdout is the deterministic
    # artifact the CI smoke job diffs across same-seed runs.
    print(
        f"[repro.harness] faults: {time.time() - started:.1f}s, journal at "
        f"{journal_path or 'cache default'}",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


def _run_trace(args, parser) -> int:
    """The ``trace`` command: one observed run, exported for a viewer."""
    from pathlib import Path

    from ..obs import (
        Observer,
        chrome_schema_errors,
        export_chrome,
        export_konata,
    )
    from ..sim.run import simulate
    from ..validate import CORE_FACTORIES
    from . import ExperimentContext
    from .artifacts import ArtifactCache

    fmt = args.format if args.format in ("konata", "chrome") else "chrome"
    bench = args.bench
    core_key = args.core
    if core_key not in CORE_FACTORIES:
        parser.error(
            f"--core: unknown core {core_key!r}; "
            f"choose from {', '.join(sorted(CORE_FACTORIES))}"
        )
    sampling = None
    if args.sample is not None:
        from ..sim.sampling import SamplingConfig

        try:
            sampling = SamplingConfig.parse(args.sample)
        except ValueError as error:
            parser.error(f"--sample: {error}")

    cache = ArtifactCache(enabled=False) if args.no_cache else None
    context = ExperimentContext(
        benchmarks=(bench,), scale=args.scale, jobs=1, cache=cache,
    )
    factory, braided = CORE_FACTORIES[core_key]
    config = factory()
    try:
        workload = context.workload(bench, braided=braided)
    except KeyError:
        parser.error(f"--bench: unknown benchmark {bench!r}")
    observer = Observer(
        trace=True, cpi=True, metrics=True, trace_capacity=args.limit,
    )
    result = simulate(workload, config, sampling=sampling, observe=observer)

    records = observer.trace_records()
    suffix = "konata" if fmt == "konata" else "json"
    out = Path(args.out) if args.out else Path(
        f"trace-{bench}-{core_key}.{suffix}"
    )
    if fmt == "konata":
        out.write_text(export_konata(records), encoding="utf-8")
    else:
        import json

        doc = export_chrome(records, benchmark=bench, machine=config.name)
        errors = chrome_schema_errors(doc)
        if errors:
            print("trace export failed schema validation:", file=sys.stderr)
            for error in errors:
                print(f"  {error}", file=sys.stderr)
            return 1
        out.write_text(json.dumps(doc), encoding="utf-8")

    print(result.summary())
    dropped = int(result.extra.get("trace_dropped", 0))
    print(
        f"trace: {len(records)} instruction(s) -> {out} ({fmt})"
        + (f", {dropped} dropped by the {args.limit}-entry ring" if dropped
           else "")
    )
    if result.cpi_stack:
        instructions = result.instructions or 1
        stack = ", ".join(
            f"{cause}={value / instructions:.3f}"
            for cause, value in result.cpi_stack.items()
            if value > 0
        )
        print(f"cpi stack: {stack}")
    return 0


_SERVICE_COMMANDS = ("serve", "submit", "status", "events", "metrics")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Service subcommands have their own argument grammar (subparsers,
    # key=value params) — hand the whole line to the service CLI before
    # the experiment parser can misread it.
    if argv and argv[0] in _SERVICE_COMMANDS:
        from ..service.cli import main as service_main

        return service_main(argv)

    from ..sim.registry import core_keys

    registered = ",".join(core_keys())
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(ALL_EXPERIMENTS)}), 'all', "
             f"or a cache command ({', '.join(_CACHE_COMMANDS)})",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated benchmark names, 'quick', or 'full' "
             "(overrides REPRO_BENCHMARKS)",
    )
    parser.add_argument(
        "--scale", type=float, default=None,
        help="dynamic-length multiplier (overrides REPRO_SCALE)",
    )
    parser.add_argument(
        "--format",
        choices=("table", "bars", "series", "konata", "chrome"),
        default="table",
        help="output style: per-benchmark table (default), grouped bar "
             "chart, or compact suite-average series; for the trace "
             "command: konata or chrome (default chrome)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for timing sweeps (overrides REPRO_JOBS; "
             "default: CPU count; 1 runs everything in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent artifact cache (REPRO_CACHE_DIR) entirely",
    )
    parser.add_argument(
        "--sample", nargs="?", const="default", default=None, metavar="SPEC",
        help="interval-sampled timing simulation (overrides REPRO_SAMPLE): "
             "bare --sample uses the default configuration, or pass a spec "
             "like stride=16,warmup=512,interval=500,seed=0",
    )
    parser.add_argument(
        "--fidelity", choices=("exact", "sampled", "interval"), default=None,
        help="fidelity tier for timing runs (overrides REPRO_FIDELITY): "
             "exact simulation, sampled estimation, or the analytic "
             "interval model; default: sampled when --sample is given, "
             "exact otherwise",
    )
    parser.add_argument(
        "--interval", nargs="?", const="default", default=None, metavar="SPEC",
        help="interval-tier tuning (overrides REPRO_INTERVAL), e.g. "
             "windows=8,window=500,warmup=512,seed=0,bound=10; implies "
             "--fidelity interval when no tier is named",
    )
    parser.add_argument(
        "--result-cache", action="store_true",
        help="also persist finished timing results in the artifact cache "
             "(overrides REPRO_RESULT_CACHE)",
    )
    parser.add_argument(
        "--cores", default=None, metavar="LIST",
        help="validate: comma-separated timing cores to check "
             f"(default: every registered core — {registered})",
    )
    parser.add_argument(
        "--invariants", action="store_true",
        help="validate: also run per-cycle µarch invariant checking "
             "(much slower)",
    )
    parser.add_argument(
        "--fuzz", type=int, default=200, metavar="N",
        help="validate: random programs for the translator fuzzer "
             "(default 200; 0 skips fuzzing)",
    )
    parser.add_argument(
        "--fuzz-seed", type=int, default=0, metavar="SEED",
        help="validate: deterministic seed for the translator fuzzer",
    )
    parser.add_argument(
        "--runs", type=int, default=32, metavar="N",
        help="faults: injections per (benchmark, core, structure) cell "
             "(default 32)",
    )
    parser.add_argument(
        "--structures", default=None, metavar="LIST",
        help="faults: comma-separated structures to inject into "
             "(default: every structure of each selected core)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="faults: campaign seed; same-seed campaigns classify "
             "bit-identically",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="faults: resume from the campaign journal, skipping "
             "completed injections",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="faults: journal file (default: a digest-named file under "
             "the artifact cache, so --resume finds it automatically)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="faults: per-injection wall-clock budget before the "
             "hardened runner kills the worker (default 120)",
    )
    parser.add_argument(
        "--bench", default="gcc", metavar="NAME",
        help="trace: the benchmark to record (default gcc)",
    )
    parser.add_argument(
        "--core", default="braid", metavar="KIND",
        help="trace: the timing core to record "
             f"({registered}; default braid)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="trace: output file (default trace-<bench>-<core>.<ext>)",
    )
    parser.add_argument(
        "--limit", type=int, default=20000, metavar="N",
        help="trace: ring-buffer capacity in instructions; older "
             "instructions are dropped beyond this (default 20000)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the run (worker processes included) in cProfile and "
             "print an aggregated top-N report to stderr",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")

    cache_commands = [e for e in args.experiments if e in _CACHE_COMMANDS]
    if cache_commands:
        if len(cache_commands) != len(args.experiments):
            parser.error(
                "cache commands cannot be mixed with experiment ids"
            )
        for command in cache_commands:
            _run_cache_command(command)
        return 0

    if "validate" in args.experiments:
        if args.experiments != ["validate"]:
            parser.error(
                "'validate' cannot be mixed with experiment ids"
            )
        return _run_validate(args, parser)

    if "faults" in args.experiments:
        if args.experiments != ["faults"]:
            parser.error(
                "'faults' cannot be mixed with experiment ids"
            )
        return _run_faults(args, parser)

    if "trace" in args.experiments:
        if args.experiments != ["trace"]:
            parser.error(
                "'trace' cannot be mixed with experiment ids"
            )
        return _run_trace(args, parser)

    selected = list(ALL_EXPERIMENTS) if "all" in args.experiments else []
    for experiment_id in args.experiments:
        if experiment_id == "all":
            continue
        if experiment_id not in ALL_EXPERIMENTS:
            parser.error(
                f"unknown experiment {experiment_id!r}; "
                f"choose from {', '.join(ALL_EXPERIMENTS)} or 'all'"
            )
        selected.append(experiment_id)

    sampling, interval, fidelity = _tier_args(args, parser)

    benchmarks = None
    if args.benchmarks == "quick":
        from ..workloads import QUICK_BENCHMARKS

        benchmarks = QUICK_BENCHMARKS
    elif args.benchmarks and args.benchmarks != "full":
        benchmarks = tuple(
            name.strip() for name in args.benchmarks.split(",") if name.strip()
        )

    from .figures import render_bars, render_series, render_stacked

    renderers = {
        "table": lambda result: result.render(),
        "bars": lambda result: (
            render_stacked(result) if getattr(result, "stacked", False)
            else render_bars(result)
        ),
        "series": render_series,
    }
    if args.format not in renderers:
        parser.error(
            f"--format {args.format} only applies to the trace command"
        )
    render = renderers[args.format]

    from .artifacts import ArtifactCache

    cache = ArtifactCache(enabled=False) if args.no_cache else None
    context = ExperimentContext(
        benchmarks=benchmarks, scale=args.scale, jobs=args.jobs, cache=cache,
        sampling=sampling, result_cache=True if args.result_cache else None,
        fidelity=fidelity, interval=interval,
    )

    profile_tmp = None
    if args.profile:
        import os
        import tempfile

        from ..obs.profiling import ENV_PROFILE_DIR

        profile_tmp = tempfile.TemporaryDirectory(prefix="repro-profile-")
        # Workers inherit the environment at fork time, so exporting here
        # covers the whole sweep, pool included.
        os.environ[ENV_PROFILE_DIR] = profile_tmp.name
    try:
        from ..obs.profiling import maybe_profiled

        for experiment_id in selected:
            started = time.time()
            result = maybe_profiled(
                lambda: ALL_EXPERIMENTS[experiment_id](context)
            )
            print(render(result))
            print(f"   [{time.time() - started:.1f}s]")
            print()
        if profile_tmp is not None:
            from ..obs.profiling import aggregate_profiles

            print(aggregate_profiles(profile_tmp.name), file=sys.stderr)
    finally:
        if profile_tmp is not None:
            import os

            os.environ.pop(ENV_PROFILE_DIR, None)
            profile_tmp.cleanup()
    return 0


if __name__ == "__main__":
    sys.exit(main())
