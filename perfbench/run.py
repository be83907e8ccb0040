#!/usr/bin/env python3
"""The simulator's benchmark: one workload per run, metrics on stdout.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload long_trace --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Workloads (see ``README.md`` in this directory):

* ``long_trace`` — kernel, observer and fidelity tiers on long traces;
* ``sweep_cold`` — the Figure 9 sweep from an empty artifact cache, then
  again over the cache the cold pass filled;
* ``service_batch`` — a mixed batch of >100 jobs submitted to a fresh job
  store and drained by an in-process supervisor.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` runs the same workload with spans recorded around every
layer call, writes a Chrome trace, and prints the per-layer metrics.
Every run also prints the issue-level named metrics of its workload,
checks the simulator's outputs, and writes a stamped JSON report under
``.perfbench-work/reports/``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a correctness
mismatch makes the exit code 1.  Host times are reported in seconds of
a reference host, adjusted by how fast the shared host ran a fixed loop
next to the work (``common.HostClock``; see ``README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import common
from common import ROOT, WORK, Accounting

WORKLOADS = ("long_trace", "sweep_cold", "service_batch")

#: the issue-level metrics, with the workload that measures each
NAMED = (
    ("setup_s", "s", "lower", "all"),
    ("exact_insts_per_s", "insts/s", "higher", "long_trace"),
    ("observed_insts_per_s", "insts/s", "higher", "long_trace"),
    ("sampled_insts_per_s", "insts/s", "higher", "long_trace"),
    ("interval_insts_per_s", "insts/s", "higher", "long_trace"),
    ("sampled_ipc_err_pct", "%", "lower", "long_trace"),
    ("interval_ipc_err_pct", "%", "lower", "long_trace"),
    ("sweep_cold_s", "s", "lower", "sweep_cold"),
    ("sweep_warm_s", "s", "lower", "sweep_cold"),
    ("jobs_per_s", "jobs/s", "higher", "service_batch"),
    ("job_p50_ms", "ms", "lower", "service_batch"),
    ("job_p90_ms", "ms", "lower", "service_batch"),
    ("peak_rss_mb", "MB", "lower", "all"),
    ("failed_frac", "ratio", "lower", "all"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="long_trace, seed 0: record the exact-cycle "
                             "digest instead of checking it")
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_unit(spans, result, layer, name) -> float:
    """Span seconds of one layer call, per set-up repetition plus per
    timed unit."""
    from spans import select

    total = 0.0
    for phase, units in (("setup", result["setup_reps"]),
                         ("timed", result["units"])):
        seconds = sum((s["t1"] - s["t0"]) / 1e9
                      for s in select(spans, layer, name, phase))
        total += seconds / max(1, units)
    return total


def span_metrics(spans, result) -> dict:
    """Per-layer numbers that come from the recorded spans."""
    from spans import LAYERS, select, self_seconds

    out = {
        "workloads.generate_s": per_unit(spans, result, "workloads",
                                         "generate"),
        "core.braidify_s": per_unit(spans, result, "core", "braidify"),
        "sim.workload.prepare_s": per_unit(spans, result, "sim.workload",
                                           "prepare_workload"),
        "sim.workload.decode_s": per_unit(spans, result, "sim.workload",
                                          "decode"),
        "sim.workload.replay_s": per_unit(spans, result, "sim.workload",
                                          "replay"),
        "harness.artifacts.get_s": per_unit(spans, result,
                                            "harness.artifacts", "get"),
        "harness.artifacts.put_s": per_unit(spans, result,
                                            "harness.artifacts", "put"),
        "service.supervisor.prepare_s": per_unit(spans, result,
                                                 "service.jobs", "prepare"),
    }
    gets = [s for s in spans if s["layer"] == "harness.artifacts"
            and s["name"] == "get" and s["phase"] in ("setup", "timed")]
    puts = [s for s in spans if s["layer"] == "harness.artifacts"
            and s["name"] == "put" and s["phase"] in ("setup", "timed")]
    units = max(1, result["units"])
    out["harness.artifacts.hits"] = sum(
        1 for s in gets if s["args"].get("hit")) / units
    out["harness.artifacts.misses"] = sum(
        1 for s in gets if not s["args"].get("hit")) / units
    out["harness.artifacts.bytes"] = sum(
        s["args"].get("bytes", 0) for s in puts) / units
    completes = select(spans, "service.jobstore", "complete", "timed")
    out["service.jobstore.complete_ms"] = (
        1e3 * sum((s["t1"] - s["t0"]) / 1e9 for s in completes)
        / len(completes) if completes else 0.0
    )
    # Worker busy time comes from the workers' own spans: the journal's
    # start stamp is written when a whole round is claimed, so its run
    # time also counts the wait for a free worker.
    drains = result.get("details", {}).get("drain_s")
    if drains:
        busy = sum((s["t1"] - s["t0"]) / 1e9
                   for s in select(spans, "service.jobs", "execute_job",
                                   "timed"))
        out["service.fleet_utilization"] = busy / (
            result["details"]["workers"] * sum(drains))
    own = self_seconds(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            own.get((layer, "setup"), 0.0) / max(1, result["setup_reps"])
            + own.get((layer, "timed"), 0.0) / units
        )
    return out


def run_one(args) -> int:
    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    stamp = common.run_stamp(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    run_dir = WORK / "runs" / stamp["run_id"]
    common.isolate_environment(run_dir)
    try:
        import spans as spans_mod
        import repro  # noqa: F401 - fail early, before any output
    except ImportError as error:
        print(f"error: cannot import the simulator: {error}",
              file=sys.stderr)
        return 2
    if args.workload == "long_trace":
        import long_trace as workload
    elif args.workload == "sweep_cold":
        import sweep_cold as workload
    else:
        import service_batch as workload

    recorder = spans_mod.Recorder(run_dir / "spans", enabled=bool(args.trace))
    acct = Accounting()
    instrumented = (spans_mod.instrument(recorder) if args.trace
                    else contextlib.nullcontext())
    try:
        with instrumented:
            kwargs = {}
            if args.workload == "long_trace":
                kwargs["update_digest"] = args.update_digests
            result = workload.run(args.seed, args.seconds, recorder, acct,
                                  run_dir, **kwargs)
        merged = recorder.merged()
    except Exception:  # noqa: BLE001 - report, then fail the run
        traceback.print_exc()
        print("error: the workload raised; no result", file=sys.stderr)
        return 1
    finally:
        # caches, stores and span files are scratch; the report stays
        shutil.rmtree(run_dir, ignore_errors=True)

    rss = common.peak_rss_mb()
    values = dict(result["end_to_end"])
    values["setup_s"] = result["setup_s"]
    values["peak_rss_mb"] = max(rss.values())
    named = dict(result["named"])
    named.update(setup_s=result["setup_s"], peak_rss_mb=values["peak_rss_mb"],
                 failed_frac=acct.failed_frac)

    report = {"stamp": stamp, "inputs_sha256": result["inputs_sha256"],
              "units": result["units"], "unit_seconds": result["unit_seconds"],
              "setup_samples": result["setup_samples"],
              "setup_raw_samples": result["setup_raw"],
              "host_speed": result["host_speed"],
              "peak_rss_mb": rss, "details": result.get("details", {}),
              "ledger": json.loads(
                  (Path(__file__).parent / "ledger.json").read_text())}
    if args.trace:
        values.update(result["per_layer"])
        values.update(span_metrics(merged, result))
        for name in ("insts_per_s", "pass_insts_per_s"):
            values[f"traced.{name}"] = result["end_to_end"][name]
        doc = spans_mod.chrome_trace(merged, recorder.origin)
        from repro.obs.tracing import chrome_schema_errors

        errors = chrome_schema_errors(doc)
        acct.check(not errors, f"chrome trace schema errors: {errors[:3]}")
        values["trace.spans"] = len(merged)
        trace_path = WORK / "reports" / f"{stamp['run_id']}.trace.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(doc))
        report["chrome_trace"] = str(trace_path.relative_to(ROOT))
        named["failed_frac"] = acct.failed_frac

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            values[name] = 0.0  # layer not exercised by this workload
        metrics[name] = {"value": values[name], "unit": entry["unit"]}

    print_report(stamp, result, named, metrics, wanted, acct)
    report.update(named=named, metrics=metrics, attempted=acct.attempted,
                  failed=acct.failed, problems=acct.problems)
    path = WORK / "reports" / f"{stamp['run_id']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(f"report: {path.relative_to(ROOT)}")
    correct = acct.failed == 0
    print(json.dumps({"correct": correct, "attempted": acct.attempted,
                      "failed": acct.failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(stamp, result, named, metrics, wanted, acct):
    host = stamp["host"]
    print(f"run {stamp['run_id']} workload={stamp['workload']} "
          f"seed={stamp['seed']} commit={stamp['commit'] or 'n/a'} "
          f"src={stamp['source_sha256'][:12]} nproc={host['nproc']} "
          f"python={host['python']}")
    print(f"inputs sha256={result['inputs_sha256'][:16]} "
          f"units={result['units']} setup reps={result['setup_reps']}")
    print(f"host speed {result['host_speed']:.3f}x the reference host; "
          f"host times below are in reference-host seconds "
          f"(raw set-up {common.median(result['setup_raw']):.6g} s)")
    print("named metrics (unit, better):")
    for name, unit, better, workload in NAMED:
        if workload not in ("all", stamp["workload"]):
            continue
        value = named.get(name)
        shown = "n/a (too few samples)" if value is None else f"{value:.6g}"
        print(f"  {name:24s} {shown:>16s} {unit:8s} {better}")
    for line in result.get("notes", []):
        print(f"  {line}")
    print("benchmark metrics:")
    by_name = {entry["name"]: entry for entry in wanted}
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>16.6g} {metric['unit']:8s} "
              f"{by_name[name]['better']}")
    print(f"attempted={acct.attempted} failed={acct.failed}")
    for problem in acct.problems:
        print(f"  FAIL {problem}")


def run_all(args) -> int:
    """Every workload in its own process; the named metrics side by side."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            totals["correct"] = False
            continue
        last = json.loads(lines[-1])
        report_line = next(l for l in lines if l.startswith("report: "))
        report = json.loads((ROOT / report_line.split(" ", 1)[1]).read_text())
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for name, unit, _, owner in NAMED:
            if owner == workload or owner == "all":
                key = name if owner == workload else f"{workload}.{name}"
                totals["metrics"][key] = {"value": report["named"].get(name),
                                          "unit": unit}
    print(json.dumps(totals))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    code = run_all(args) if args.workload == "all" else run_one(args)
    print(f"wall {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
