"""Command line: ``python -m repro.harness COMMAND [flags]``.

One argparse parser with one subcommand per command; each command
takes only the flags its handler reads (``python -m repro.harness
COMMAND --help`` lists them).  Experiment ids are the default command:
``F9 F10`` is ``experiments F9 F10``::

    python -m repro.harness F13 T1          # specific experiments
    python -m repro.harness all             # everything
    python -m repro.harness F9 F10 --benchmarks quick --jobs 2
    python -m repro.harness F9 --scale 64 --sample stride=16   # sampled mode
    python -m repro.harness F9 --fidelity interval             # analytic mode
    python -m repro.harness CS --format bars                   # CPI stacks
    python -m repro.harness cache-info      # artifact cache + run log report
    python -m repro.harness cache-clear     # wipe both

Two flag groups are shared.  The selection group (``--benchmarks``,
``--scale``, ``--no-cache``) picks the workloads; ``--benchmarks`` takes
``full``, ``quick``, ``int``, ``fp`` or a comma-separated list
(:func:`~repro.workloads.suite.select_benchmarks`) and defaults to
every benchmark for experiments, the quick four for ``validate`` and gcc
at scale 0.2 for ``faults``.  The tier group (``--fidelity``,
``--sample``, ``--interval``) picks the fidelity tier of every timing
run: without ``--fidelity`` it is the tier whose tuning was given, exact
when neither was (:func:`repro.sim.run.resolve_tier`).  Experiments also
take ``--jobs``, ``--result-cache``, ``--format table|bars|series`` and
``--profile`` (cProfile over the run, workers included).

``validate`` runs every selected benchmark on every selected core under
the lockstep architectural oracle (plus the selected tier when it is not
exact, per-cycle invariants with ``--invariants``), then the translator
fuzzer::

    python -m repro.harness validate --benchmarks gcc,mcf,swim
    python -m repro.harness validate --sample --invariants --fuzz 500

``faults`` runs a transient-fault injection campaign (:mod:`repro.faults`,
always exact) and prints the per-structure AVF figure; every classified
injection is journaled and ``--resume`` continues a killed campaign::

    python -m repro.harness faults --cores braid,ooo --runs 32 --seed 7
    python -m repro.harness faults --structures rob,scheduler --jobs 4

``trace`` records a cycle-level pipeline trace of one benchmark on one
core for a pipeline viewer, as Konata text or Chrome trace-event JSON::

    python -m repro.harness trace --bench gcc --core braid --format konata

``submit``, ``serve``, ``status``, ``events`` and ``metrics`` drive the
durable simulation service; :mod:`repro.service.cli` registers them.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import os
import sys
import tempfile
import time

from ..obs.runlog import RUNLOG_MAX_BYTES, rotated_path
from . import ALL_EXPERIMENTS, ExperimentContext
from .artifacts import ArtifactCache


def _runlog_paths(cache: ArtifactCache):
    """The run log :meth:`~repro.obs.runlog.RunLog.from_env` keeps beside
    the cache, and its previous generation; :meth:`ArtifactCache.entries`
    counts neither."""
    runlog = cache.root / "runlog.jsonl"
    return runlog, rotated_path(runlog)


def _cache_info(args, parser) -> int:
    cache = ArtifactCache.from_env()
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
    for runlog in _runlog_paths(cache):
        size = runlog.stat().st_size if runlog.exists() else 0
        print(f"run log:     {size / 1e6:.1f} MB ({runlog}; rotates at "
              f"{RUNLOG_MAX_BYTES / 1e6:.1f} MB)")
    return 0


def _cache_clear(args, parser) -> int:
    cache = ArtifactCache.from_env()
    removed = cache.clear()
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
          f"from {cache.root}")
    for runlog in _runlog_paths(cache):
        if runlog.exists():
            runlog.unlink()
            print(f"removed the run log {runlog}")
    return 0


def _context(args, parser, **kwargs) -> ExperimentContext:
    """A command's context: its scale and cache from the selection flags,
    everything else from ``kwargs``."""
    try:
        return ExperimentContext(
            scale=args.scale,
            cache=ArtifactCache(enabled=False) if args.no_cache else None,
            **kwargs,
        )
    except ValueError as error:
        parser.error(str(error))


def _tier(args) -> dict:
    """The tier group's flags, as :class:`ExperimentContext` keywords."""
    return dict(fidelity=args.fidelity, sampling=args.sample,
                interval=args.interval)


def _run_experiments(args, parser) -> int:
    """The default command: regenerate tables and figures."""
    ids = args.ids if args.command == "experiments" else [args.command,
                                                          *args.ids]
    unknown = [name for name in ids
               if name != "all" and name not in ALL_EXPERIMENTS]
    if unknown or not ids:
        parser.error(
            f"name experiments from {', '.join(ALL_EXPERIMENTS)} or 'all'"
            + (f"; unknown: {', '.join(unknown)}" if unknown else "")
        )
    selected = list(ALL_EXPERIMENTS) if "all" in ids else []
    selected += [experiment_id for experiment_id in ids
                 if experiment_id != "all"]

    from .figures import render_bars, render_series, render_stacked

    render = {
        "table": lambda result: result.render(),
        "bars": lambda result: (
            render_stacked(result) if getattr(result, "stacked", False)
            else render_bars(result)
        ),
        "series": render_series,
    }[args.format]

    context = _context(args, parser, **_tier(args),
                       benchmarks=args.benchmarks, jobs=args.jobs,
                       result_cache=args.result_cache)

    from ..obs.profiling import (
        aggregate_profiles,
        maybe_profiled,
        profiling_into,
    )

    with contextlib.ExitStack() as stack:
        if args.profile:
            # Workers fork inside the block and inherit the setting, so
            # the whole sweep, pool included, is profiled.
            directory = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-profile-")
            )
            stack.enter_context(profiling_into(directory))
        started = time.time()
        for result in maybe_profiled(lambda: _run_session(context, selected)):
            print(render(result))
            print()
        print(f"   [{time.time() - started:.1f}s]")
        if args.profile:
            print(aggregate_profiles(directory), file=sys.stderr)
    return 0


class _Batch(Exception):
    """A figure's ``run_many`` batch, handed back unrun while planning."""


def _run_session(context: ExperimentContext, selected) -> list:
    """Every selected experiment's result, all their points run as one
    batch: each is planned on a shallow copy of ``context`` (same caches)
    whose ``run_many`` raises its batch, then rendered from the memo."""
    planner, results, batch = copy.copy(context), {}, []

    def plan(points):
        raise _Batch(points)

    planner.run_many = plan
    for experiment_id in selected:
        try:
            results[experiment_id] = ALL_EXPERIMENTS[experiment_id](planner)
        except _Batch as planned:
            batch += planned.args[0]
    context.run_many(batch)
    return [results.get(experiment_id)
            or ALL_EXPERIMENTS[experiment_id](context)
            for experiment_id in selected]


def _run_validate(args, parser) -> int:
    """The ``validate`` command: differential validation sweep + fuzzing."""
    from ..validate import DEFAULT_CORES, run_validation

    context = _context(args, parser, **_tier(args),
                       benchmarks=args.benchmarks, jobs=1)
    try:
        report = run_validation(
            context,
            args.benchmarks,
            cores=args.cores or DEFAULT_CORES,
            sampling=context.sampling,
            invariants=args.invariants,
            fuzz_samples=args.fuzz,
            fuzz_seed=args.fuzz_seed,
            interval=context.interval,
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

    context = _context(args, parser, benchmarks=args.benchmarks, jobs=1)
    spec = CampaignSpec(
        benchmarks=args.benchmarks,
        cores=args.cores or DEFAULT_CORES,
        structures=args.structures or None,
        runs=args.runs,
        seed=args.seed,
        scale=args.scale,
        timeout=args.timeout,
        jobs=args.jobs if args.jobs is not None else os.cpu_count() or 1,
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

    bench, core_key, fmt = args.bench, args.core, args.format
    context = _context(args, parser, **_tier(args), benchmarks=(bench,),
                       jobs=1)
    factory, braided = CORE_FACTORIES[core_key]
    config = factory()
    try:
        workload = context.workload(bench, braided=braided)
    except KeyError:
        parser.error(f"--bench: unknown benchmark {bench!r}")
    observer = Observer(
        trace=True, cpi=True, metrics=True, trace_capacity=args.limit,
    )
    result = simulate(
        workload, config, fidelity=context.fidelity,
        sampling=context.sampling, interval=context.interval,
        observe=observer,
    )

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


# ------------------------------------------------------------------- parser
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _names(text: str) -> tuple:
    """A comma-separated list; blank means the command's default."""
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _add_selection(parser, benchmarks, scale=1.0) -> None:
    """The selection group; ``benchmarks=None`` leaves out
    ``--benchmarks`` (``trace`` names one ``--bench`` instead)."""
    from ..workloads.suite import select_benchmarks

    def selection(text):
        try:
            return select_benchmarks(text, benchmarks)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    group = parser.add_argument_group("selection")
    if benchmarks is not None:
        group.add_argument(
            "--benchmarks", type=selection, default=benchmarks,
            metavar="SELECTION",
            help="'full', 'quick', 'int', 'fp', or comma-separated "
                 f"benchmark names (default: {benchmarks})",
        )
    group.add_argument(
        "--scale", type=float, default=scale,
        help=f"dynamic-length multiplier (default {scale})",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent artifact cache (REPRO_CACHE_DIR) entirely",
    )


def _add_tier(parser) -> None:
    """The tier group: ``--fidelity``, ``--sample``, ``--interval``."""
    from ..sim.interval import IntervalConfig
    from ..sim.run import FIDELITIES
    from ..sim.sampling import SamplingConfig

    def spec(config):
        def parse(text):
            try:
                return config.parse(text)
            except ValueError as error:
                raise argparse.ArgumentTypeError(str(error)) from None
        return parse

    group = parser.add_argument_group("fidelity tier")
    group.add_argument(
        "--fidelity", choices=FIDELITIES, default=None,
        help="fidelity tier for timing runs: exact simulation, sampled "
             "estimation, or the analytic interval model.  An explicit "
             "tier wins and ignores the other tier's tuning; without "
             "one, the tier is the one whose tuning (--sample or "
             "--interval) was given, exact when neither was, and an "
             "error when both were",
    )
    group.add_argument(
        "--sample", nargs="?", type=spec(SamplingConfig),
        const=SamplingConfig(), default=None, metavar="SPEC",
        help="sampled-tier tuning: bare --sample uses the default "
             "configuration, or pass a spec like "
             "stride=16,warmup=512,interval=500,seed=0",
    )
    group.add_argument(
        "--interval", nargs="?", type=spec(IntervalConfig),
        const=IntervalConfig(), default=None, metavar="SPEC",
        help="interval-tier tuning, e.g. "
             "windows=8,window=500,warmup=512,seed=0,bound=10",
    )


def _command(sub, name, handler, help, **kwargs):
    command = sub.add_parser(name, help=help, description=help, **kwargs)
    command.set_defaults(handler=handler)
    return command


def build_parser():
    """The one parser, and its subcommands action (for each command's
    own usage errors)."""
    from ..service.cli import add_commands
    from ..sim.registry import core_keys

    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures, check the "
                    "cores, and drive the simulation service.  Experiment "
                    "ids are the default command.",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    cores = ",".join(core_keys())

    ids = ("all", *ALL_EXPERIMENTS)
    experiments = _command(
        sub, "experiments", _run_experiments, aliases=ids,
        help="regenerate tables and figures: 'all' or experiment ids "
             "(the default command: 'F9 F10' is 'experiments F9 F10')",
    )
    experiments.add_argument("ids", nargs="*", metavar="ID",
                             help=", ".join(ids))
    _add_selection(experiments, "full")
    _add_tier(experiments)
    experiments.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes for timing sweeps (default: CPU count; "
             "1 runs everything in-process)",
    )
    experiments.add_argument(
        "--result-cache", action="store_true",
        help="also persist finished timing results in the artifact cache",
    )
    experiments.add_argument(
        "--format", choices=("table", "bars", "series"), default="table",
        help="per-benchmark table (default), grouped bar chart, or "
             "compact suite-average series",
    )
    experiments.add_argument(
        "--profile", action="store_true",
        help="wrap the run (worker processes included) in cProfile and "
             "print an aggregated top-N report to stderr",
    )

    validate = _command(
        sub, "validate", _run_validate,
        help="differential validation: lockstep oracle on every core, "
             "then the translator fuzzer",
    )
    _add_selection(validate, "quick")
    _add_tier(validate)
    validate.add_argument(
        "--cores", type=_names, default=(), metavar="LIST",
        help=f"comma-separated timing cores to check (default: {cores})",
    )
    validate.add_argument(
        "--invariants", action="store_true",
        help="also run per-cycle µarch invariant checking (much slower)",
    )
    validate.add_argument(
        "--fuzz", type=int, default=200, metavar="N",
        help="random programs for the translator fuzzer "
             "(default 200; 0 skips fuzzing)",
    )
    validate.add_argument(
        "--fuzz-seed", type=int, default=0, metavar="SEED",
        help="deterministic seed for the translator fuzzer",
    )

    # Each (structure, run) cell is a full simulation, so the grid
    # multiplies fast: one small benchmark at a reduced scale.
    faults = _command(
        sub, "faults", _run_faults,
        help="transient-fault injection campaign and AVF report",
    )
    _add_selection(faults, "gcc", scale=0.2)
    faults.add_argument(
        "--cores", type=_names, default=(), metavar="LIST",
        help=f"comma-separated cores to inject into (default: {cores})",
    )
    faults.add_argument(
        "--structures", type=_names, default=(), metavar="LIST",
        help="comma-separated structures to inject into "
             "(default: every structure of each selected core)",
    )
    faults.add_argument(
        "--runs", type=int, default=32, metavar="N",
        help="injections per (benchmark, core, structure) cell "
             "(default 32)",
    )
    faults.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="campaign seed; same-seed campaigns classify bit-identically",
    )
    faults.add_argument(
        "--resume", action="store_true",
        help="resume from the campaign journal, skipping completed "
             "injections",
    )
    faults.add_argument(
        "--journal", default=None, metavar="PATH",
        help="journal file (default: a digest-named file under the "
             "artifact cache, so --resume finds it automatically)",
    )
    faults.add_argument(
        "--timeout", type=float, default=120.0, metavar="SECONDS",
        help="per-injection wall-clock budget before the hardened runner "
             "kills the worker (default 120)",
    )
    faults.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes (default: CPU count)",
    )

    trace = _command(
        sub, "trace", _run_trace,
        help="record one benchmark's pipeline trace on one core for a "
             "pipeline viewer",
    )
    trace.add_argument(
        "--bench", default="gcc", metavar="NAME",
        help="the benchmark to record (default gcc)",
    )
    trace.add_argument(
        "--core", default="braid", choices=core_keys(),
        help="the timing core to record (default braid)",
    )
    _add_selection(trace, None)
    _add_tier(trace)
    trace.add_argument(
        "--format", choices=("konata", "chrome"), default="chrome",
        help="Konata text or Chrome trace-event JSON (default chrome)",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="output file (default trace-<bench>-<core>.<ext>)",
    )
    trace.add_argument(
        "--limit", type=int, default=20000, metavar="N",
        help="ring-buffer capacity in instructions; older instructions "
             "are dropped beyond this (default 20000)",
    )

    _command(sub, "cache-info", _cache_info,
             help="report the artifact cache and its run log")
    _command(sub, "cache-clear", _cache_clear,
             help="delete every artifact cache entry and the run log")

    add_commands(sub)
    return parser, sub


def main(argv=None) -> int:
    parser, sub = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, sub.choices[args.command])


if __name__ == "__main__":
    sys.exit(main())
