"""Experiment context: caches programs, compilations, workloads, and runs.

Every figure sweeps many machine configurations over the same benchmarks, so
the expensive phase-one artifacts (program generation, braid compilation,
functional traces, branch/cache oracles) are computed once per benchmark and
shared — in memory within a session, and across sessions through the
persistent :class:`~repro.harness.artifacts.ArtifactCache`.  Timing results
themselves are memoized per sweep point, so figures that share points (e.g.
the 8-wide out-of-order baseline used by F5/F9–F14) simulate them once.

Every setting of a context is a constructor argument — the benchmark
selection (default: all 26), the dynamic-length multiplier (default
1.0), the sweep worker count (default: CPU count), the artifact cache
(default: :meth:`~repro.harness.artifacts.ArtifactCache.from_env`), the
fidelity tier and the result-cache opt-in — so a context depends only on
how it was built.  The harness CLI fills them from its flags
(``--benchmarks``, ``--scale``, ``--jobs``, ``--no-cache``,
``--fidelity``/``--sample``/``--interval``, ``--result-cache``).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..core.pipeline import BraidCompilation, braidify
from ..isa.program import Program
from ..sim.config import MachineConfig
from ..sim.interval import IntervalConfig
from ..sim.results import SimResult
from ..sim.run import resolve_tier, simulate
from ..sim.sampling import SamplingConfig
from ..sim.workload import PreparedWorkload, prepare_workload
from ..obs.metrics import MetricsRegistry
from ..obs.observer import Observer
from ..obs.runlog import RunLog
from ..service.retry import RetryPolicy
from ..workloads.profiles import ALL_BENCHMARKS, FP_BENCHMARKS, INT_BENCHMARKS
from ..workloads.suite import build_program
from .artifacts import ArtifactCache
from .parallel import (effective_jobs, run_point_groups_parallel,
                       run_tasks_hardened)
from .sweep import SweepPoint, run_point


class ExperimentContext:
    """Shared, cached state for one experiment session."""

    #: branch predictor trained by phase one (part of every artifact key)
    predictor = "perceptron"

    def __init__(
        self,
        benchmarks: Optional[Iterable[str]] = None,
        scale: Optional[float] = None,
        max_instructions: int = 60_000,
        jobs: Optional[int] = None,
        cache: Optional[ArtifactCache] = None,
        sampling: Optional[SamplingConfig] = None,
        result_cache: bool = False,
        fidelity: Optional[str] = None,
        interval: Optional[IntervalConfig] = None,
    ) -> None:
        self.benchmarks: Tuple[str, ...] = (
            tuple(benchmarks) if benchmarks is not None else ALL_BENCHMARKS
        )
        self.scale = scale if scale is not None else 1.0
        self.max_instructions = max_instructions
        self.jobs = jobs if jobs is not None else os.cpu_count() or 1
        self.cache = cache if cache is not None else ArtifactCache.from_env()
        #: also persist finished timing results in the artifact cache
        self.result_cache = result_cache
        #: the tier every timing run of this context uses
        #: (:func:`~repro.sim.run.resolve_tier`), and its tuning under the
        #: keyword :func:`~repro.sim.run.simulate` takes it by (the
        #: other tier's keyword is None)
        self.fidelity, tuning = resolve_tier(fidelity, sampling, interval)
        self.sampling = tuning if self.fidelity == "sampled" else None
        self.interval = tuning if self.fidelity == "interval" else None
        #: harness-level telemetry (run_many dedup/memoization counters)
        self.telemetry = MetricsRegistry()
        #: structured JSONL sweep telemetry (REPRO_RUNLOG; defaults to a
        #: runlog.jsonl next to the artifact cache when that is enabled)
        self.runlog = RunLog.from_env(self.cache)
        self._programs: Dict[str, Program] = {}
        self._compilations: Dict[Tuple[str, int], BraidCompilation] = {}
        self._workloads: Dict[Tuple[str, bool, bool, int], PreparedWorkload] = {}
        self._results: Dict[SweepPoint, SimResult] = {}

    def suite_of(self, name: str) -> str:
        if name in INT_BENCHMARKS:
            return "int"
        if name in FP_BENCHMARKS:
            return "fp"
        return "kernel"

    # ------------------------------------------------------------------ caches
    def program(self, name: str) -> Program:
        if name not in self._programs:
            self._programs[name] = build_program(name, scale=self.scale)
        return self._programs[name]

    def compilation(self, name: str, internal_limit: int = 8) -> BraidCompilation:
        key = (name, internal_limit)
        if key not in self._compilations:
            disk_key = self.cache.compilation_key(name, self.scale, internal_limit)
            compilation = self.cache.get(disk_key)
            if compilation is None:
                compilation = braidify(
                    self.program(name), internal_limit=internal_limit
                )
                self.cache.put(disk_key, compilation)
            self._compilations[key] = compilation
        return self._compilations[key]

    def workload(
        self,
        name: str,
        braided: bool = False,
        perfect: bool = False,
        internal_limit: int = 8,
    ) -> PreparedWorkload:
        key = (name, braided, perfect, internal_limit)
        if key not in self._workloads:
            disk_key = self.cache.workload_key(
                name, self.scale, braided, perfect, internal_limit,
                self.predictor, self.max_instructions,
            )
            workload = self.cache.get(disk_key)
            if workload is None:
                program = (
                    self.compilation(name, internal_limit).translated
                    if braided
                    else self.program(name)
                )
                workload = prepare_workload(
                    program,
                    predictor=self.predictor,
                    perfect=perfect,
                    max_instructions=self.max_instructions,
                )
                # Decode before storing so warm sessions skip that pass too.
                workload.decode()
                self.cache.put(disk_key, workload)
            self._workloads[key] = workload
        return self._workloads[key]

    # -------------------------------------------------------------------- runs
    def run(
        self,
        name: str,
        config: MachineConfig,
        braided: bool = False,
        perfect: bool = False,
        internal_limit: int = 8,
        progress=None,
        *, fidelity: Optional[str] = None, cpi: bool = False,
    ) -> SimResult:
        point = SweepPoint(name, config, braided, perfect, internal_limit,
                           fidelity, cpi)
        result = self._results.get(point)
        if result is None:
            started = time.perf_counter()
            hits_before = self.cache.hits
            misses_before = self.cache.misses
            disk_key = None
            result_cache_hit = False
            if self.result_cache:
                tier, tuning = resolve_tier(fidelity or self.fidelity,
                                            self.sampling, self.interval)
                disk_key = self.cache.result_key(
                    name, self.scale, braided, perfect, internal_limit,
                    self.predictor, self.max_instructions, config,
                    (tier, tuning and tuning.cache_token())
                    + (("cpi",) if cpi else ()),
                )
                result = self.cache.get(disk_key)
                result_cache_hit = result is not None
            if result is None:
                workload = self.workload(
                    name, braided=braided, perfect=perfect,
                    internal_limit=internal_limit,
                )
                result = simulate(
                    workload, config, fidelity=fidelity or self.fidelity,
                    sampling=self.sampling, interval=self.interval,
                    observe=Observer(cpi=True) if cpi else None,
                    progress=progress,
                )
                if disk_key is not None:
                    self.cache.put(disk_key, result)
            self._results[point] = result
            self.runlog.log(
                event="cell",
                benchmark=name,
                machine=config.name,
                braided=braided,
                perfect=perfect,
                internal_limit=internal_limit,
                sampled=result.sampled,
                fidelity=result.fidelity,
                cpi=cpi,
                sample_intervals=result.sample_intervals,
                sample_detail_fraction=result.extra.get(
                    "sample_detail_fraction", 0.0
                ),
                cycles=result.cycles,
                instructions=result.instructions,
                ipc=round(result.ipc, 4),
                seconds=round(time.perf_counter() - started, 4),
                result_cache_hit=result_cache_hit,
                artifact_hits=self.cache.hits - hits_before,
                artifact_misses=self.cache.misses - misses_before,
            )
        return result

    def run_many(
        self, points: Sequence[SweepPoint]
    ) -> Dict[SweepPoint, SimResult]:
        """Simulate a batch of sweep points, deduplicated and memoized.

        Every figure cell comes here; a harness session sends all its
        figures' points as one batch.  Identical requests coalesce to one
        simulation (a point naming this context's tier is the point that
        names none).  Coalesced and already-memoized requests are counted
        in the context's telemetry registry (``run_many.deduped`` /
        ``run_many.memoized``).

        The fresh points are scheduled *workload-major*: all configs of
        one prepared workload run together, so the decode/replay facts
        cached on the workload are built once per workload —
        per worker — instead of once per point.  With ``jobs > 1``
        :func:`fill_workload_cache` first builds the missing workloads
        into the artifact cache (with the cache disabled, the worker that
        runs a group builds its workload), then the workload groups fan
        out over the worker fleet through
        :func:`~repro.harness.parallel.run_point_groups_parallel`
        (deterministic, submission-ordered results; large groups split to
        keep every worker busy); with ``jobs = 1`` they run serially
        in-process, exactly like :meth:`run`.  The requested worker count
        is clamped to the pending work and falls back to the serial path
        on single-CPU hosts (see
        :func:`~repro.harness.parallel.effective_jobs`).
        """
        fresh: List[SweepPoint] = []
        seen = set()
        deduped = 0
        memoized = 0
        normal = {point: replace(point, fidelity=None)
                  if point.fidelity == self.fidelity else point
                  for point in points}
        for point in map(normal.__getitem__, points):
            if point in self._results:
                memoized += 1
                continue
            if point in seen:
                deduped += 1
                continue
            seen.add(point)
            fresh.append(point)
        if deduped:
            self.telemetry.counter("run_many.deduped", deduped)
        if memoized:
            self.telemetry.counter("run_many.memoized", memoized)
        groups: Dict[Tuple[str, bool, bool, int], List[SweepPoint]] = {}
        for point in fresh:
            key = (
                point.benchmark, point.braided, point.perfect,
                point.internal_limit,
            )
            groups.setdefault(key, []).append(point)
        tasks: List[List[SweepPoint]] = list(groups.values())
        workers = effective_jobs(self.jobs, len(fresh))
        # Few workloads but many configs would idle most of the pool at
        # group granularity; split the largest groups (still workload-
        # major within each task) until every worker has work.
        while tasks and len(tasks) < workers:
            largest = max(range(len(tasks)), key=lambda i: len(tasks[i]))
            group = tasks[largest]
            if len(group) < 2:
                break
            half = len(group) // 2
            tasks[largest:largest + 1] = [group[:half], group[half:]]
        if workers > 1 and len(tasks) > 1:
            fill_workload_cache(self.cache, [
                WorkloadNeed(self.scale, self.max_instructions, *key)
                for key in groups if key not in self._workloads
            ], workers)
            for group, results in zip(
                tasks, run_point_groups_parallel(self, tasks, workers)
            ):
                for point, result in zip(group, results):
                    self._results[point] = result
        else:
            for group in tasks:
                for point in group:
                    run_point(self, point)
        return {point: self._results[key] for point, key in normal.items()}


class WorkloadNeed(NamedTuple):
    """One workload a forked fleet needs: the artifact-cache key fields."""

    scale: float
    cap: int
    benchmark: str
    braided: bool
    perfect: bool = False
    internal_limit: int = 8


def fill_workload_cache(cache: ArtifactCache,
                        needs: Iterable[WorkloadNeed], jobs: int) -> None:
    """Pre-pass: build the workloads a forked fleet needs into ``cache``.

    Sweeps (:meth:`ExperimentContext.run_many`) and the service
    (:func:`repro.service.jobs.prepare`) run it before their fleet starts;
    each worker then loads what it runs, and the caller keeps nothing.
    Needs already cached are skipped; the rest are built on up to ``jobs``
    workers, one task per scale and benchmark so each braid compilation
    is built once.  Advisory: one attempt, no deadline, failures only
    counted (the fleet task that needs the workload raises the real
    error).  Logs one ``prepare`` run-log event; a no-op when the cache
    is disabled.
    """
    if not cache.enabled:
        return
    started = time.perf_counter()
    needed = dict.fromkeys(needs)
    missing: Dict[Tuple[float, str], List[WorkloadNeed]] = {}
    for need in needed:
        key = cache.workload_key(
            need.benchmark, need.scale, need.braided, need.perfect,
            need.internal_limit, ExperimentContext.predictor, need.cap,
        )
        if not cache.path_for(key).exists():
            missing.setdefault((need.scale, need.benchmark), []).append(need)

    def build(builds: List[WorkloadNeed]) -> None:
        contexts: Dict[int, ExperimentContext] = {}  # throwaway, per cap
        for need in builds:
            if need.cap not in contexts:
                contexts[need.cap] = ExperimentContext(
                    benchmarks=(need.benchmark,), scale=need.scale,
                    max_instructions=need.cap, jobs=1, cache=cache,
                )
            contexts[need.cap].workload(
                need.benchmark, braided=need.braided, perfect=need.perfect,
                internal_limit=need.internal_limit,
            )

    tasks = [(f"{benchmark}@{scale}", builds)
             for (scale, benchmark), builds in missing.items()]
    outcomes = run_tasks_hardened(
        build, tasks,
        # not effective_jobs: its --jobs clamp notes would describe this
        # pre-pass, not the fleet the user asked for
        jobs=max(1, min(jobs, len(tasks), os.cpu_count() or 1)),
        policy=RetryPolicy(max_attempts=1, deadline=math.inf),
    )
    failed = sum(len(builds) for outcome, (_, builds)
                 in zip(outcomes, tasks) if not outcome.ok)
    built = sum(len(builds) for _, builds in tasks)
    RunLog.from_env(cache).log(
        event="prepare",
        needed=len(needed),
        cached=len(needed) - built,
        computed=built - failed,
        failed=failed,
        seconds=round(time.perf_counter() - started, 4),
    )
