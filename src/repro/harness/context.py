"""Experiment context: caches programs, compilations, workloads, and runs.

Every figure sweeps many machine configurations over the same benchmarks, so
the expensive phase-one artifacts (program generation, braid compilation,
functional traces, branch/cache oracles) are computed once per benchmark and
shared — in memory within a session, and across sessions through the
persistent :class:`~repro.harness.artifacts.ArtifactCache`.  Timing results
themselves are memoized per sweep point, so figures that share points (e.g.
the 8-wide out-of-order baseline used by F5/F9–F14) simulate them once.

Environment knobs:

* ``REPRO_BENCHMARKS`` — comma-separated benchmark names, ``quick`` (the
  four-program subset), ``int`` / ``fp`` (one SPEC suite), or ``full``
  (all 26; the default);
* ``REPRO_SCALE`` — dynamic-length multiplier (default 1.0);
* ``REPRO_JOBS`` — worker processes for sweeps (default: CPU count);
* ``REPRO_SAMPLE`` — interval-sampled timing simulation: unset/``off`` is
  exact mode (the default), ``1``/``default`` enables sampling with the
  default :class:`~repro.sim.sampling.SamplingConfig`, and a spec like
  ``stride=16,warmup=512`` tunes it;
* ``REPRO_FIDELITY`` — explicit fidelity tier for every timing run:
  ``exact``, ``sampled``, or ``interval`` (the analytic tier); unset keeps
  the legacy rule (sampled when a sampling config is active, else exact);
* ``REPRO_INTERVAL`` — tuning spec for the interval tier, e.g.
  ``windows=8,window=500,bound=10``
  (see :class:`~repro.sim.interval.IntervalConfig`);
* ``REPRO_RESULT_CACHE`` — opt-in persistence of finished timing results
  (keyed by machine and sampling configuration) in the artifact cache;
* ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` / ``REPRO_CACHE_LIMIT_MB`` —
  persistent artifact cache location / kill switch / LRU size bound.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.pipeline import BraidCompilation, braidify
from ..isa.program import Program
from ..sim.config import MachineConfig
from ..sim.interval import IntervalConfig, interval_from_env
from ..sim.results import SimResult
from ..sim.run import FIDELITIES, simulate
from ..sim.sampling import SamplingConfig, sampling_from_env
from ..sim.workload import PreparedWorkload, prepare_workload
from ..obs.metrics import MetricsRegistry
from ..obs.runlog import RunLog
from ..workloads.profiles import ALL_BENCHMARKS, FP_BENCHMARKS, INT_BENCHMARKS
from ..workloads.suite import QUICK_BENCHMARKS, build_program
from .artifacts import ArtifactCache
from .parallel import (
    effective_jobs,
    jobs_from_env,
    run_point_groups_parallel,
)
from .sweep import SweepPoint

_ENV_RESULT_CACHE = "REPRO_RESULT_CACHE"
_ENV_FIDELITY = "REPRO_FIDELITY"


def result_cache_from_env() -> bool:
    """Resolve the timing-result persistence opt-in (``REPRO_RESULT_CACHE``)."""
    value = os.environ.get(_ENV_RESULT_CACHE, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def fidelity_from_env() -> Optional[str]:
    """Resolve ``REPRO_FIDELITY``: unset/``auto`` keeps the legacy rule."""
    value = os.environ.get(_ENV_FIDELITY, "").strip().lower()
    if not value or value == "auto":
        return None
    if value not in FIDELITIES:
        raise ValueError(
            f"{_ENV_FIDELITY} must be one of {FIDELITIES} (or 'auto'), "
            f"got {value!r}"
        )
    return value


def benchmarks_from_env(default: str = "full") -> Tuple[str, ...]:
    """Resolve the benchmark selection from ``REPRO_BENCHMARKS``.

    Accepts ``full`` (all 26), ``quick`` (the four-program subset), the
    suite selectors ``int`` / ``fp``, or an explicit comma-separated list.
    """
    value = os.environ.get("REPRO_BENCHMARKS", default).strip()
    if value == "full":
        return ALL_BENCHMARKS
    if value == "quick":
        return QUICK_BENCHMARKS
    if value == "int":
        return INT_BENCHMARKS
    if value == "fp":
        return FP_BENCHMARKS
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    unknown = [name for name in names if name not in ALL_BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks in REPRO_BENCHMARKS: {unknown}")
    return names


def scale_from_env(default: float = 1.0) -> float:
    """Resolve the dynamic-length multiplier from ``REPRO_SCALE``."""
    value = os.environ.get("REPRO_SCALE", "").strip()
    if not value:
        return default
    try:
        return float(value)
    except ValueError:
        raise ValueError(
            f"REPRO_SCALE must be a number (dynamic-length multiplier), "
            f"got {value!r}"
        ) from None


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
        result_cache: Optional[bool] = None,
        fidelity: Optional[str] = None,
        interval: Optional[IntervalConfig] = None,
    ) -> None:
        self.benchmarks: Tuple[str, ...] = (
            tuple(benchmarks) if benchmarks is not None else benchmarks_from_env()
        )
        self.scale = scale if scale is not None else scale_from_env()
        self.max_instructions = max_instructions
        self.jobs = jobs if jobs is not None else jobs_from_env()
        self.cache = cache if cache is not None else ArtifactCache.from_env()
        #: None simulates every instruction; a SamplingConfig switches all
        #: timing runs of this context to interval-sampled estimation.
        self.sampling = sampling if sampling is not None else sampling_from_env()
        self.result_cache = (
            result_cache if result_cache is not None else result_cache_from_env()
        )
        #: explicit fidelity tier for every timing run (None: legacy rule —
        #: sampled when a sampling config is active, exact otherwise)
        self.fidelity = fidelity if fidelity is not None else fidelity_from_env()
        #: tuning for the analytic interval tier (used when the effective
        #: fidelity is "interval")
        self.interval = interval if interval is not None else interval_from_env()
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
    @property
    def effective_fidelity(self) -> str:
        """The tier every timing run of this context actually uses."""
        if self.fidelity is not None:
            return self.fidelity
        return "sampled" if self.sampling is not None else "exact"

    def _fidelity_token(self) -> Tuple:
        """Cache-key component identifying the resolved fidelity tier."""
        mode = self.effective_fidelity
        if mode == "interval":
            return self.interval.cache_token()
        return (mode,)

    def run(
        self,
        name: str,
        config: MachineConfig,
        braided: bool = False,
        perfect: bool = False,
        internal_limit: int = 8,
        progress=None,
    ) -> SimResult:
        point = SweepPoint(name, config, braided, perfect, internal_limit)
        result = self._results.get(point)
        if result is None:
            started = time.perf_counter()
            hits_before = self.cache.hits
            misses_before = self.cache.misses
            disk_key = None
            result_cache_hit = False
            if self.result_cache:
                disk_key = self.cache.result_key(
                    name, self.scale, braided, perfect, internal_limit,
                    self.predictor, self.max_instructions, config,
                    self.sampling.cache_token()
                    if self.sampling is not None else None,
                    self._fidelity_token(),
                )
                result = self.cache.get(disk_key)
                result_cache_hit = result is not None
            if result is None:
                workload = self.workload(
                    name, braided=braided, perfect=perfect,
                    internal_limit=internal_limit,
                )
                result = simulate(
                    workload, config, sampling=self.sampling,
                    fidelity=self.fidelity, interval=self.interval,
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

        Identical requests — same (workload, config, sampling, fidelity)
        — coalesce to one simulation; the context-wide sampling/fidelity
        settings make point identity sufficient.  Coalesced and
        already-memoized requests are counted in the context's telemetry
        registry (``run_many.deduped`` / ``run_many.memoized``).

        The fresh points are scheduled *workload-major*: all configs of
        one prepared workload run together, so the decode/replay facts
        cached on the workload are built once per workload —
        per worker — instead of once per point.  With ``jobs > 1`` the
        workload groups fan out over the process pool (deterministic,
        submission-ordered results; large groups split to keep every
        worker busy); with ``jobs = 1`` they run serially in-process,
        exactly like :meth:`run`.  The requested worker count is clamped
        to the pending work and falls back to the serial path on
        single-CPU hosts (see :func:`~repro.harness.parallel.effective_jobs`).
        """
        fresh: List[SweepPoint] = []
        seen = set()
        deduped = 0
        memoized = 0
        for point in points:
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
            for group, results in zip(
                tasks, run_point_groups_parallel(self, tasks, workers)
            ):
                for point, result in zip(group, results):
                    self._results[point] = result
        else:
            for group in tasks:
                for point in group:
                    self.run(
                        point.benchmark,
                        point.config,
                        braided=point.braided,
                        perfect=point.perfect,
                        internal_limit=point.internal_limit,
                    )
        return {point: self._results[point] for point in points}
