"""The ``validate`` harness command: full differential validation sweeps.

Runs every selected benchmark on every selected timing core under the
lockstep architectural oracle — exact, plus the sampled and/or interval
tier when their configurations are given, so the resumable window/gap
machinery is exercised too — optionally with per-cycle µarch invariant
checking, then fuzzes the translator.  Returns a renderable report and a
process exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..sim.config import MachineConfig
from ..sim.registry import core_registry
from ..sim.interval import IntervalConfig
from ..sim.run import run_tier
from ..sim.sampling import SamplingConfig
from .fuzzing import FuzzReport, fuzz_translator
from .invariants import InvariantChecker, InvariantViolation
from .lockstep import DivergenceError, LockstepChecker


def _core_factories():
    """core key -> (config factory, runs on the braided program), derived
    from the core registry so every registered paradigm is validatable."""
    return {
        key: (descriptor.config_factory, descriptor.braided)
        for key, descriptor in core_registry().items()
    }


#: core key -> (config factory, runs on the braided program)
CORE_FACTORIES = _core_factories()

DEFAULT_CORES: Tuple[str, ...] = tuple(CORE_FACTORIES)


@dataclass
class CheckOutcome:
    """One (benchmark, core, mode) validation run."""

    benchmark: str
    core: str
    mode: str  # "exact", "sampled" or "interval"
    instructions: int = 0
    checked: int = 0
    skipped: int = 0
    cycles_checked: int = 0
    seconds: float = 0.0
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.failure is None

    def render(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        line = (
            f"  [{status}] {self.benchmark:10s} {self.core:8s} "
            f"{self.mode:8s} {self.checked:7d} retired"
        )
        if self.skipped:
            line += f" + {self.skipped} skipped"
        if self.cycles_checked:
            line += f", {self.cycles_checked} cycles checked"
        line += f"  [{self.seconds:.1f}s]"
        if self.failure:
            line += f"\n         {self.failure}"
        return line


@dataclass
class ValidationReport:
    """Everything one ``validate`` invocation produced."""

    outcomes: List[CheckOutcome] = field(default_factory=list)
    fuzz: Optional[FuzzReport] = None

    @property
    def passed(self) -> bool:
        if any(not outcome.ok for outcome in self.outcomes):
            return False
        if self.fuzz is not None and not self.fuzz.passed:
            return False
        return True

    def render(self) -> str:
        lines = ["differential validation:"]
        lines.extend(outcome.render() for outcome in self.outcomes)
        failures = sum(1 for outcome in self.outcomes if not outcome.ok)
        lines.append(
            f"  {len(self.outcomes) - failures}/{len(self.outcomes)} "
            f"lockstep runs clean"
        )
        if self.fuzz is not None:
            lines.append(self.fuzz.render())
        lines.append("VALIDATION " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def _check_one(
    context,
    benchmark: str,
    core_key: str,
    mode: str,
    tier,
    invariants: bool,
) -> CheckOutcome:
    factory, braided = CORE_FACTORIES[core_key]
    config: MachineConfig = factory()
    outcome = CheckOutcome(benchmark=benchmark, core=core_key, mode=mode)
    started = time.time()
    try:
        workload = context.workload(benchmark, braided=braided)
        outcome.instructions = len(workload.trace)
        checker = LockstepChecker(workload)
        invariant_checker = InvariantChecker() if invariants else None

        def checkers(core):
            checker.attach(core)
            if invariant_checker is not None:
                invariant_checker.attach(core)
            return checker

        run_tier(
            workload, config, mode,
            sampling=tier if mode == "sampled" else None,
            interval=tier if mode == "interval" else None,
            checkers=checkers,
        )
        if checker.divergences:
            outcome.failure = checker.divergences[0].render()
        outcome.checked = checker.instructions_checked
        outcome.skipped = checker.instructions_skipped
        if invariant_checker is not None:
            outcome.cycles_checked = invariant_checker.cycles_checked
    except (DivergenceError, InvariantViolation) as error:
        outcome.failure = str(error)
    outcome.seconds = time.time() - started
    return outcome


def run_validation(
    context,
    benchmarks: Sequence[str],
    cores: Sequence[str] = DEFAULT_CORES,
    sampling: Optional[SamplingConfig] = None,
    invariants: bool = False,
    fuzz_samples: int = 200,
    fuzz_seed: int = 0,
    interval: Optional[IntervalConfig] = None,
) -> ValidationReport:
    """Validate ``benchmarks`` × ``cores``, then fuzz the translator.

    Every pair runs exact, and again on the sampled tier when
    ``sampling`` is given and on the interval tier when ``interval`` is
    given, so both the straight-line and the resumable window/gap
    retirement paths are covered.  ``fuzz_samples=0`` skips fuzzing.
    """
    unknown = [key for key in cores if key not in CORE_FACTORIES]
    if unknown:
        raise ValueError(
            f"unknown cores {unknown}; choose from {sorted(CORE_FACTORIES)}"
        )
    report = ValidationReport()
    tiers = [("exact", None)]
    if sampling is not None:
        tiers.append(("sampled", sampling))
    if interval is not None:
        tiers.append(("interval", interval))
    for benchmark in benchmarks:
        for core_key in cores:
            for mode, tier in tiers:
                report.outcomes.append(_check_one(
                    context, benchmark, core_key, mode, tier, invariants
                ))
    if fuzz_samples > 0:
        report.fuzz = fuzz_translator(samples=fuzz_samples, seed=fuzz_seed)
    return report
