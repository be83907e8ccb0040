#!/usr/bin/env python
"""CI smoke test for the scheduler-aware event kernel.

Runs every benchmark of the quick suite on every registered timing core
with the event-driven kernel (the default) and with the strictly ticked
reference loop, and diffs the two cycle-exact: cycles, instructions,
issue count, every stall counter, and every ``extra`` activity statistic
must be bit-identical.  Three variants per core and benchmark:

* the default config, unhooked;
* the default config with a full ``Observer`` attached, where the CPI
  stack and every histogram must match too (hooked runs event-skip and
  the observer charges each skipped span in one call);
* a stall-heavy config (half the ROB and half the LSQ), where dispatch
  stalls behind a full structure most of the time and the kernel skips
  those spans, charging their stall counters in bulk.

This is the end-to-end guard for the skip contract, the active-window
index and the ``issue_horizon`` publishers: any skip past a cycle in
which some stage could have acted shows up here as a counter diff.

Also reports, per core, the wall-clock ratio (event kernel vs ticked)
and the share of simulated cycles the event kernel executed, skipped as
idle spans, and skipped as dispatch-stall spans, so CI logs show what
the skip loop is actually buying on each paradigm.

Exits non-zero with a per-core, per-counter diagnostic on any divergence.

Usage::

    PYTHONPATH=src python scripts/wakeup_smoke.py [max_instructions]
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs import Observer
from repro.sim.registry import core_registry
from repro.sim.run import build_core

QUICK = ("gcc", "mcf", "swim", "equake")

# every registered paradigm, so a new core gets this guard for free
CORES = {
    key: (descriptor.config_factory(8), descriptor.braided)
    for key, descriptor in core_registry().items()
}


def stall_heavy(config):
    """Half the ROB and half the LSQ: dispatch stalls dominate."""
    return replace(
        config,
        name=f"{config.name}-half",
        max_in_flight=config.max_in_flight // 2,
        lsq_entries=config.lsq_entries // 2,
    )


def fail(message: str) -> None:
    print(f"wakeup_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def fingerprint(result) -> dict:
    """Every architectural counter a run produces, flattened for diffing."""
    flat = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "issued": result.issued,
    }
    for field, value in dataclasses.asdict(result.stalls).items():
        flat[f"stalls.{field}"] = value
    for key, value in sorted(result.extra.items()):
        flat[f"extra.{key}"] = value
    for cause, value in sorted((result.cpi_stack or {}).items()):
        flat[f"cpi.{cause}"] = value
    for name, value in sorted((result.metrics or {}).items()):
        flat[f"metrics.{name}"] = value
    return flat


class SpanTally:
    """Executed cycles and skipped idle / dispatch-stall span cycles."""

    def __init__(self) -> None:
        self.executed = 0
        self.idle = 0
        self.stall = 0

    def attach(self, core) -> None:
        core.invariant_hook = self.on_cycle
        core.span_hook = self.on_span

    def on_cycle(self, core, cycle: int) -> None:
        self.executed += 1

    def on_span(self, core, first: int, length: int, stall) -> None:
        if stall is None:
            self.idle += length
        else:
            self.stall += length


def run(workload, config, ticked=False, observed=False, tally=None):
    """One run's fingerprint and its wall-clock seconds."""
    core = build_core(workload, config)
    if ticked:
        core.event_kernel = False
    else:
        assert core.event_kernel, "event kernel should be the default"
    observer = None
    if observed:
        observer = Observer(cpi=True, metrics=True)
        observer.attach(core)
    if tally is not None:
        tally.attach(core)
    started = time.perf_counter()
    result = core.run()
    elapsed = time.perf_counter() - started
    if observer is not None:
        observer.finalize(result)
    return fingerprint(result), elapsed


def report_diff(label: str, fast: dict, slow: dict) -> bool:
    if fast == slow:
        return False
    diffs = [
        f"    {counter}: event={fast.get(counter)!r} "
        f"ticked={slow.get(counter)!r}"
        for counter in sorted(fast.keys() | slow.keys())
        if fast.get(counter) != slow.get(counter)
    ]
    print(
        f"wakeup_smoke: {label} diverged on {len(diffs)} counter(s):",
        file=sys.stderr,
    )
    for line in diffs:
        print(line, file=sys.stderr)
    return True


def main() -> None:
    max_instructions = (
        int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    )
    ctx = ExperimentContext(
        benchmarks=QUICK,
        max_instructions=max_instructions,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )
    divergences = 0
    for kind, (config, braided) in CORES.items():
        event_seconds = 0.0
        ticked_seconds = 0.0
        tally = SpanTally()
        simulated = 0
        for name in QUICK:
            workload = ctx.workload(name, braided=braided)
            fast, seconds = run(workload, config)
            event_seconds += seconds
            slow, seconds = run(workload, config, ticked=True)
            ticked_seconds += seconds
            divergences += report_diff(f"{name}/{kind}", fast, slow)

            tallied, _ = run(workload, config, tally=tally)
            simulated += tallied["cycles"]
            divergences += report_diff(
                f"{name}/{kind} (span-tallied)", tallied, fast
            )

            fast, _ = run(workload, config, observed=True)
            slow, _ = run(workload, config, ticked=True, observed=True)
            divergences += report_diff(f"{name}/{kind} (observed)", fast, slow)

            heavy = stall_heavy(config)
            for observed in (False, True):
                fast, _ = run(workload, heavy, observed=observed)
                slow, _ = run(workload, heavy, ticked=True, observed=observed)
                label = "stall-heavy, observed" if observed else "stall-heavy"
                divergences += report_diff(
                    f"{name}/{kind} ({label})", fast, slow
                )
        ratio = ticked_seconds / event_seconds if event_seconds else 0.0
        print(
            f"wakeup_smoke: {kind}: bit-identical across {len(QUICK)} "
            f"benchmarks (plain, observed, stall-heavy); event kernel "
            f"{ratio:.2f}x vs ticked ({event_seconds:.2f}s vs "
            f"{ticked_seconds:.2f}s); executed {tally.executed / simulated:.1%}"
            f" of simulated cycles, skipped {tally.idle / simulated:.1%} "
            f"idle + {tally.stall / simulated:.1%} dispatch-stall"
        )
    if divergences:
        fail(f"{divergences} run(s) diverged between kernels")
    print("wakeup smoke OK")


if __name__ == "__main__":
    main()
