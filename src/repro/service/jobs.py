"""Job executors: how each job kind turns params into a JSON result.

Three kinds, mirroring the harness's own entry points:

* ``simulate`` — one benchmark on one registered core;
* ``sweep`` — a benchmarks x cores grid of simulations;
* ``faults`` — a small transient-fault campaign (serial inside the
  worker; the *service* supplies the process-level hardening).

Params are normalized and validated at submit time
(:func:`normalize_params`), so the content-addressed request key treats
``{"benchmark": "gcc"}`` and ``{"benchmark": "gcc", "scale": 0.2}`` as
the same request, and a typo'd core name is rejected at the API edge
instead of poisoning a worker.

Result payloads contain only deterministic fields (no wall-clock, no
host state): re-running a job after any crash reproduces the identical
payload, which is the property the chaos harness pins bit-for-bit.

Before a forked fleet starts, :func:`prepare` hands the batch's
workloads to the pre-pass sweeps use too
(:func:`~repro.harness.context.fill_workload_cache`), which builds the
missing ones into the persistent artifact cache; each job worker then
loads what it runs into its own per-process state (:func:`_context_for`)
and keeps it for the jobs it serves next, so the supervisor process of
a forked fleet holds none.  With one worker the jobs run in the
supervisor process, which loads them the same way.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .chaos import KILL_WORKER, chaos_point
from .jobstore import JOB_KINDS, ServiceError
from .telemetry import ProgressPublisher

#: service-job defaults: small enough that a mixed batch settles in
#: seconds, large enough to exercise every pipeline structure
DEFAULT_SCALE = 0.2
DEFAULT_MAX_INSTRUCTIONS = 60_000
DEFAULT_WIDTH = 8
DEFAULT_FAULT_RUNS = 4


def _core_table():
    from ..validate.runner import CORE_FACTORIES

    return CORE_FACTORIES


def _known_benchmarks() -> Tuple[str, ...]:
    from ..workloads.profiles import ALL_BENCHMARKS

    return ALL_BENCHMARKS


def _as_name_list(value: Any, field: str) -> List[str]:
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    elif isinstance(value, (list, tuple)):
        names = [str(part).strip() for part in value if str(part).strip()]
    else:
        raise ServiceError(
            f"{field} must be a name list (or comma-separated string), "
            f"got {value!r}"
        )
    if not names:
        raise ServiceError(f"{field} must name at least one entry")
    return names


def _check_benchmarks(names: List[str]) -> List[str]:
    known = _known_benchmarks()
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ServiceError(
            f"unknown benchmark(s) {unknown}; choose from {sorted(known)}"
        )
    return names


def _check_cores(names: List[str]) -> List[str]:
    table = _core_table()
    unknown = [name for name in names if name not in table]
    if unknown:
        raise ServiceError(
            f"unknown core(s) {unknown}; choose from {sorted(table)}"
        )
    return names


def _number(params: Mapping, field: str, default, kind=float):
    value = params.get(field, default)
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ServiceError(
            f"{field} must be a {kind.__name__}, got {value!r}"
        ) from None
    if value <= 0:
        raise ServiceError(f"{field} must be positive, got {value!r}")
    return value


def normalize_params(kind: str, params: Mapping[str, Any]) -> Dict[str, Any]:
    """Validated canonical params with defaults applied.

    Normalizing *before* hashing is what makes dedup semantic: requests
    that mean the same run coalesce even when one spells out a default
    the other omitted.
    """
    if kind not in JOB_KINDS:
        raise ServiceError(
            f"unknown job kind {kind!r}; choose from {', '.join(JOB_KINDS)}"
        )
    params = dict(params)
    known = {
        "simulate": {"benchmark", "core", "scale", "width",
                     "max_instructions"},
        "sweep": {"benchmarks", "cores", "scale", "width",
                  "max_instructions"},
        "faults": {"benchmarks", "cores", "structures", "runs", "seed",
                   "scale"},
    }[kind]
    unknown = sorted(set(params) - known)
    if unknown:
        raise ServiceError(
            f"unknown {kind} param(s) {unknown}; known: {sorted(known)}"
        )
    out: Dict[str, Any] = {}
    if kind == "simulate":
        if "benchmark" not in params or "core" not in params:
            raise ServiceError(
                "simulate needs 'benchmark' and 'core' params"
            )
        out["benchmark"] = _check_benchmarks([str(params["benchmark"])])[0]
        out["core"] = _check_cores([str(params["core"])])[0]
        out["scale"] = _number(params, "scale", DEFAULT_SCALE)
        out["width"] = _number(params, "width", DEFAULT_WIDTH, int)
        out["max_instructions"] = _number(
            params, "max_instructions", DEFAULT_MAX_INSTRUCTIONS, int
        )
    elif kind == "sweep":
        if "benchmarks" not in params:
            raise ServiceError("sweep needs a 'benchmarks' param")
        out["benchmarks"] = _check_benchmarks(
            _as_name_list(params["benchmarks"], "benchmarks")
        )
        cores = params.get("cores")
        if cores is None:
            out["cores"] = sorted(_core_table())
        else:
            out["cores"] = _check_cores(_as_name_list(cores, "cores"))
        out["scale"] = _number(params, "scale", DEFAULT_SCALE)
        out["width"] = _number(params, "width", DEFAULT_WIDTH, int)
        out["max_instructions"] = _number(
            params, "max_instructions", DEFAULT_MAX_INSTRUCTIONS, int
        )
    else:  # faults
        if "benchmarks" not in params:
            raise ServiceError("faults needs a 'benchmarks' param")
        out["benchmarks"] = _check_benchmarks(
            _as_name_list(params["benchmarks"], "benchmarks")
        )
        cores = params.get("cores", ["braid", "ooo"])
        out["cores"] = _check_cores(_as_name_list(cores, "cores"))
        structures = params.get("structures")
        if structures is not None:
            out["structures"] = _as_name_list(structures, "structures")
        out["runs"] = _number(params, "runs", DEFAULT_FAULT_RUNS, int)
        seed = params.get("seed", 0)
        try:
            out["seed"] = int(seed)
        except (TypeError, ValueError):
            raise ServiceError(f"seed must be an integer, got {seed!r}")
        out["scale"] = _number(params, "scale", DEFAULT_SCALE)
    return out


# ----------------------------------------------------------------- execution
#: per-process executor state: contexts keyed by (scale, max_instructions),
#: filled lazily from the artifact cache by the jobs this process runs
_EXEC_STATE: Optional[Dict] = None


def _context_for(scale: float, max_instructions: int):
    """A warm ExperimentContext for one (scale, cap) pair, cached."""
    global _EXEC_STATE
    if _EXEC_STATE is None:
        _EXEC_STATE = {"contexts": {}}
    key = (scale, max_instructions)
    context = _EXEC_STATE["contexts"].get(key)
    if context is None:
        from ..harness.context import ExperimentContext
        from ..workloads.profiles import ALL_BENCHMARKS

        context = ExperimentContext(
            benchmarks=ALL_BENCHMARKS,
            scale=scale,
            max_instructions=max_instructions,
            jobs=1,
        )
        _EXEC_STATE["contexts"][key] = context
    return context


def _workload_needs(record) -> List[WorkloadNeed]:
    """The workloads one job runs, as pre-pass needs."""
    from ..harness.context import WorkloadNeed

    table = _core_table()
    params = record.params
    if record.kind == "simulate":
        cells = [(params["benchmark"], params["core"])]
    else:  # sweep, faults: every benchmark on every core
        cells = [
            (bench, core)
            for bench in params["benchmarks"]
            for core in params["cores"]
        ]
    # faults: the campaign warms through the default-cap context
    cap = (DEFAULT_MAX_INSTRUCTIONS if record.kind == "faults"
           else params["max_instructions"])
    return [WorkloadNeed(scale=params["scale"], cap=cap, benchmark=bench,
                         braided=table[core][1])
            for bench, core in cells]


def prepare(records, jobs: Optional[int] = None) -> None:
    """Pre-pass: build the workloads a batch needs into the artifact cache.

    Hands the workloads of ``records`` to the shared pre-pass
    :func:`~repro.harness.context.fill_workload_cache` on ``jobs``
    workers (default one per CPU).  A record it cannot read (malformed
    params that slipped past submit-time validation) is skipped, so the
    bad job fails *as a job*, with its real error, in its own worker.
    """
    from ..harness.artifacts import ArtifactCache
    from ..harness.context import WorkloadNeed, fill_workload_cache

    needs: Dict[WorkloadNeed, None] = {}
    for record in records:
        try:  # hashing is part of reading: a list-valued scale fails here
            needs.update(dict.fromkeys(_workload_needs(record)))
        except Exception:
            continue
    fill_workload_cache(ArtifactCache.from_env(), needs,
                        jobs if jobs is not None else os.cpu_count() or 1)


def _simulate_cell(
    context, benchmark: str, core: str, width: int, progress=None
) -> Dict[str, Any]:
    factory, braided = _core_table()[core]
    config = factory(width=width)
    result = context.run(benchmark, config, braided=braided,
                         progress=progress)
    if progress is not None:
        # Cache hits skip the simulation loop entirely; force one final
        # heartbeat either way so the cell always reports completion.
        progress.publish(
            result.instructions, result.instructions, result.cycles,
            force=True,
        )
    return {
        "benchmark": benchmark,
        "core": core,
        "machine": config.name,
        "width": width,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": round(result.ipc, 6),
        "fidelity": result.fidelity,
    }


def _run_faults(params: Mapping[str, Any]) -> Dict[str, Any]:
    from ..faults import CampaignSpec, run_campaign

    context = _context_for(params["scale"], DEFAULT_MAX_INSTRUCTIONS)
    spec = CampaignSpec(
        benchmarks=tuple(params["benchmarks"]),
        cores=tuple(params["cores"]),
        structures=(
            tuple(params["structures"]) if "structures" in params else None
        ),
        runs=params["runs"],
        seed=params["seed"],
        scale=params["scale"],
        jobs=1,
    )
    # The campaign journals into a throwaway dir: the *service* journal
    # is the durability layer here, and a retried job must not resume
    # from a half-written inner journal.
    with tempfile.TemporaryDirectory(prefix="repro-service-faults-") as tmp:
        report = run_campaign(
            context, spec, journal_path=Path(tmp) / "journal.jsonl",
        )
    outcomes: Dict[str, int] = {}
    for result in report.results:
        name = result.outcome.value
        outcomes[name] = outcomes.get(name, 0) + 1
    rendered = report.render()
    return {
        "classified": len(report.results),
        "quarantined": len(report.quarantined),
        "outcomes": dict(sorted(outcomes.items())),
        "report_sha256": hashlib.sha256(
            rendered.encode("utf-8")
        ).hexdigest(),
    }


def execute_job(
    payload: Tuple[str, str, Mapping[str, Any]],
    progress_dir: Optional[Path] = None,
    heartbeat: float = 0.0,
) -> Any:
    """Worker-side entry: one job, start to JSON result.

    ``payload`` is ``(job_id, kind, params)``; the chaos kill-worker
    point fires first, so an injected worker death looks exactly like an
    OOM kill landing before any work happened.

    With a ``progress_dir`` and a positive ``heartbeat`` (seconds; the
    supervisor passes its store's progress directory and
    ``ServiceConfig.heartbeat``), simulation instructions stream per-job
    heartbeats through the resumable run seam; heartbeats never change
    the result payload (pure telemetry, written to a side file), so
    chaos bit-identity is unaffected.  The defaults leave heartbeats off.
    """
    job_id, kind, params = payload
    chaos_point(KILL_WORKER, job_id)
    progress = None
    if progress_dir is not None and heartbeat > 0:
        progress = ProgressPublisher(progress_dir, job_id, interval=heartbeat)
    if kind == "simulate":
        context = _context_for(params["scale"], params["max_instructions"])
        if progress is not None:
            progress.start_cell(
                f"{params['benchmark']}/{params['core']}", 0, 1
            )
        return _simulate_cell(
            context, params["benchmark"], params["core"], params["width"],
            progress=progress,
        )
    if kind == "sweep":
        context = _context_for(params["scale"], params["max_instructions"])
        cells = [
            (bench, core)
            for bench in params["benchmarks"]
            for core in params["cores"]
        ]
        results = []
        for done, (bench, core) in enumerate(cells):
            if progress is not None:
                progress.start_cell(f"{bench}/{core}", done, len(cells))
            results.append(
                _simulate_cell(context, bench, core, params["width"],
                               progress=progress)
            )
        return {"cells": results}
    if kind == "faults":
        if progress is not None:
            # Fault campaigns run many tiny inner sims; heartbeat once at
            # start so the watchdog can at least date the attempt.
            progress.start_cell("campaign", 0, 1)
            progress.publish(0, 0, 0, force=True)
        return _run_faults(params)
    raise ServiceError(f"unknown job kind {kind!r}")
