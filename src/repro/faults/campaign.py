"""Fault-injection campaigns: plan, dispatch, journal, resume, report.

A campaign is a deterministic grid — ``benchmarks x cores x structures
x runs`` — of single-bit injections.  For each (benchmark, core) pair a
fault-free baseline run first establishes the run length (injection
cycles are drawn from it) and proves the lockstep oracle is clean, so
every later divergence is attributable to the injected flip.

Dispatch goes through :func:`repro.harness.parallel.run_tasks_hardened`:
injected runs are *expected* to wedge, die, or blow past their time
budget, and the hardened runner turns those events into per-task
retries/quarantine instead of campaign aborts.  Every settled task is
appended to a crash-safe JSONL journal (write + flush + fsync per
record), so a campaign killed mid-flight resumes with ``--resume``
without rerunning completed injections.

Determinism: each task's RNG is seeded from a SHA-256 digest of the
campaign seed and the task id (Python's tuple ``hash`` is salted per
process and useless here), simulations are themselves deterministic,
and the report sorts every aggregation — two same-seed campaigns print
bit-identical reports regardless of worker scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from dataclasses import replace as config_replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..analysis.avf import avf_report
from ..harness.parallel import TaskOutcome, run_tasks_hardened
from ..service.retry import RetryPolicy
from ..sim.config import MachineConfig
from ..validate.lockstep import lockstep_simulate
from ..validate.runner import CORE_FACTORIES
from .inject import known_structures, run_injection, structures_for
from .model import InjectionResult

#: bump when task semantics change; stale journals then refuse to resume
CAMPAIGN_FORMAT_VERSION = 1


class CampaignError(RuntimeError):
    """Campaign-level misconfiguration or an unusable journal."""


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's task grid and seeds."""

    benchmarks: Tuple[str, ...]
    cores: Tuple[str, ...] = ("braid", "ooo")
    #: None: every structure the core kind has
    structures: Optional[Tuple[str, ...]] = None
    runs: int = 32
    seed: int = 0
    scale: float = 1.0
    #: retirement-watchdog window for injected runs (cycles)
    hang_cycles: int = 20_000
    #: per-task wall-clock budget for the hardened runner (seconds)
    timeout: float = 120.0
    jobs: int = 1

    def digest(self) -> str:
        """Identity of the task grid (journal compatibility check)."""
        key = (
            CAMPAIGN_FORMAT_VERSION,
            self.benchmarks,
            self.cores,
            self.structures,
            self.runs,
            self.seed,
            self.scale,
            self.hang_cycles,
        )
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:16]

    def validate(self) -> None:
        unknown = [key for key in self.cores if key not in CORE_FACTORIES]
        if unknown:
            raise CampaignError(
                f"unknown cores {unknown}; "
                f"choose from {sorted(CORE_FACTORIES)}"
            )
        if self.structures is not None:
            known = known_structures()
            bad = [s for s in self.structures if s not in known]
            if bad:
                raise CampaignError(
                    f"unknown structures {bad}; "
                    f"choose from {sorted(known)}"
                )
        if self.runs < 1:
            raise CampaignError("runs must be >= 1")


@dataclass(frozen=True)
class InjectionTask:
    """One planned injection (picklable: travels through worker queues)."""

    task_id: str
    benchmark: str
    core_key: str
    structure: str
    run: int


def _task_seed(campaign_seed: int, task_id: str) -> int:
    """Stable 64-bit per-task seed (process-salt-free, unlike hash())."""
    digest = hashlib.sha256(f"{campaign_seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


#: Campaign context inherited by forked hardened workers (and read
#: directly on the serial path).  Maps are keyed by picklable task
#: fields so the tasks themselves stay tiny on the queues.
_CAMPAIGN_STATE: Optional[Dict] = None


def _execute_task(task: InjectionTask) -> InjectionResult:
    """Worker-side entry: one injection run, classified."""
    state = _CAMPAIGN_STATE
    if state is None:
        raise RuntimeError("campaign state not initialised in this process")
    workload = state["workloads"][(task.benchmark, task.core_key)]
    config = state["configs"][task.core_key]
    baseline_cycles = state["baselines"][(task.benchmark, task.core_key)]
    return run_injection(
        workload,
        config,
        task.structure,
        seed=_task_seed(state["seed"], task.task_id),
        baseline_cycles=baseline_cycles,
    )


# ----------------------------------------------------------------- journal
class CampaignJournal:
    """Append-only JSONL journal; each record survives a parent SIGKILL.

    A thin layer over the shared
    :class:`~repro.service.journal.JsonlJournal` durability idiom
    (locked fsynced appends, digest-guarded header, torn-tail repair):
    resuming against a journal written by a different grid is refused
    rather than silently mixing incompatible records, and a torn final
    line (the crash caught a write mid-record) just reruns that task.
    """

    def __init__(self, path: Path, digest: str, resume: bool) -> None:
        from ..service.journal import JournalError, JsonlJournal

        self.path = Path(path)
        self.digest = digest
        self.completed: Dict[str, Dict] = {}
        try:
            self._journal = JsonlJournal(
                self.path,
                kind="faults-journal",
                version=CAMPAIGN_FORMAT_VERSION,
                digest=digest,
                resume=resume,
            )
        except JournalError as error:
            message = str(error)
            if "digest" in message:
                raise CampaignError(
                    f"journal {self.path} was written by a different "
                    f"campaign; {message}"
                ) from None
            raise CampaignError(message) from None
        for record in self._journal.records:
            task_id = record.get("task")
            if task_id:
                self.completed[task_id] = record

    def record(self, outcome: TaskOutcome) -> None:
        """Journal one settled task (the hardened runner's on_result)."""
        record = {
            "task": outcome.task_id,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "result": (
                outcome.result.to_json()
                if outcome.status == "ok" and outcome.result is not None
                else None
            ),
            "error": outcome.error,
        }
        self.completed[outcome.task_id] = record
        self._journal.append(record)

    def close(self) -> None:
        self._journal.close()


# ------------------------------------------------------------------ report
@dataclass
class CampaignReport:
    """Deterministic rendering of one campaign's classified grid."""

    spec: CampaignSpec
    configs: Dict[str, MachineConfig]
    baselines: Dict[Tuple[str, str], int]
    #: task_id -> journal-shaped record, every planned task present
    records: Dict[str, Dict] = field(default_factory=dict)
    resumed: int = 0

    @property
    def results(self) -> List[InjectionResult]:
        ordered = []
        for task_id in sorted(self.records):
            record = self.records[task_id]
            if record["status"] == "ok" and record.get("result"):
                ordered.append(InjectionResult.from_json(record["result"]))
        return ordered

    @property
    def quarantined(self) -> List[Tuple[str, str]]:
        return sorted(
            (task_id, record.get("error") or "unknown failure")
            for task_id, record in self.records.items()
            if record["status"] != "ok"
        )

    @property
    def passed(self) -> bool:
        return not self.quarantined

    def render(self) -> str:
        results = self.results
        lines = [
            f"fault-injection campaign (seed {self.spec.seed}, "
            f"{self.spec.runs} runs/structure):",
        ]
        for (benchmark, core_key), cycles in sorted(self.baselines.items()):
            lines.append(
                f"  baseline {benchmark} on "
                f"{self.configs[core_key].name}: {cycles} cycles"
            )
        if self.resumed:
            lines.append(
                f"  resumed: {self.resumed} injection(s) restored from "
                f"the journal"
            )
        lines.append("")
        lines.append(
            avf_report(
                results,
                {cfg.name: cfg for cfg in self.configs.values()},
            ).render()
        )
        skipped = sum(1 for result in results if not result.injected)
        if skipped:
            lines.append("")
            lines.append(
                f"note: {skipped} injection(s) found the target structure "
                f"empty for the rest of the run (counted as masked)"
            )
        if self.quarantined:
            lines.append("")
            lines.append("quarantined tasks (infrastructure failures):")
            for task_id, error in self.quarantined:
                lines.append(f"  {task_id}: {error}")
        lines.append("")
        status = "COMPLETE" if self.passed else "INCOMPLETE"
        lines.append(
            f"CAMPAIGN {status}: {len(results)} injection(s) classified, "
            f"{len(self.quarantined)} quarantined"
        )
        return "\n".join(lines)


# -------------------------------------------------------------------- run
def plan_tasks(spec: CampaignSpec) -> List[InjectionTask]:
    """The campaign's deterministic task grid, in report order."""
    tasks: List[InjectionTask] = []
    for benchmark in spec.benchmarks:
        for core_key in spec.cores:
            factory, _braided = CORE_FACTORIES[core_key]
            kind = factory().kind
            structures = structures_for(kind)
            if spec.structures is not None:
                structures = tuple(
                    s for s in structures if s in spec.structures
                )
            for structure in structures:
                for run in range(spec.runs):
                    task_id = f"{benchmark}/{core_key}/{structure}/{run}"
                    tasks.append(InjectionTask(
                        task_id=task_id,
                        benchmark=benchmark,
                        core_key=core_key,
                        structure=structure,
                        run=run,
                    ))
    return tasks


def run_campaign(
    context,
    spec: CampaignSpec,
    journal_path: Optional[Path] = None,
    resume: bool = False,
) -> CampaignReport:
    """Execute (or resume) a campaign; returns the renderable report."""
    global _CAMPAIGN_STATE
    spec.validate()

    configs: Dict[str, MachineConfig] = {}
    workloads: Dict[Tuple[str, str], object] = {}
    baselines: Dict[Tuple[str, str], int] = {}
    for core_key in spec.cores:
        factory, braided = CORE_FACTORIES[core_key]
        config = config_replace(
            factory(), max_idle_cycles=spec.hang_cycles
        )
        configs[core_key] = config
        for benchmark in spec.benchmarks:
            workload = context.workload(benchmark, braided=braided)
            workloads[(benchmark, core_key)] = workload
            # Fault-free baseline: proves the oracle is clean and fixes
            # the cycle range injections are drawn from.
            result, divergences = lockstep_simulate(
                workload, config, fidelity="exact"
            )
            if divergences:
                raise CampaignError(
                    f"fault-free baseline diverged: "
                    f"{divergences[0].render()}"
                )
            baselines[(benchmark, core_key)] = result.cycles

    tasks = plan_tasks(spec)
    if journal_path is None:
        journal_path = Path(
            context.cache.root
        ) / "faults" / f"campaign-{spec.digest()}.jsonl"
    journal = CampaignJournal(journal_path, spec.digest(), resume=resume)
    try:
        planned_ids = {task.task_id for task in tasks}
        restored = {
            task_id: record
            for task_id, record in journal.completed.items()
            if task_id in planned_ids
        }
        pending = [
            task for task in tasks if task.task_id not in restored
        ]
        _CAMPAIGN_STATE = {
            "workloads": workloads,
            "configs": configs,
            "baselines": baselines,
            "seed": spec.seed,
        }
        try:
            outcomes = run_tasks_hardened(
                _execute_task,
                [(task.task_id, task) for task in pending],
                jobs=spec.jobs,
                policy=RetryPolicy(deadline=spec.timeout),
                on_result=journal.record,
            )
        finally:
            _CAMPAIGN_STATE = None
        records = dict(restored)
        for outcome in outcomes:
            records[outcome.task_id] = journal.completed[outcome.task_id]
    finally:
        journal.close()
    return CampaignReport(
        spec=spec,
        configs=configs,
        baselines=baselines,
        records=records,
        resumed=len(restored),
    )
