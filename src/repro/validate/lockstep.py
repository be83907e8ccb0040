"""Lockstep architectural-equivalence checking.

The timing cores are execution-driven: they replay a trace that phase one
(:mod:`repro.sim.workload`) recorded from the functional executor, and the
trace may additionally have travelled through the persistent artifact
cache as a pickle.  The lockstep checker closes that loop.  It runs a
*fresh* :class:`~repro.sim.functional.FunctionalExecutor` over the
program, advancing it one instruction per timing-core retirement, and
cross-checks the retirement stream field by field — PC, sequence number,
opcode, branch outcome, memory address.  A second, independent
:class:`~repro.sim.functional.ArchState` replays the retired instructions
through the shared :func:`~repro.sim.functional.apply_instruction`
semantics, and on full coverage the final snapshot must equal the
oracle's.

What this catches that unit tests cannot:

* trace corruption anywhere between phase one and retirement (a stale or
  truncated cache pickle, a decode-table mixup, an in-place mutation);
* retirement-stream bugs — out-of-order retirement, double retirement,
  dropped instructions;
* sampled-execution tiling bugs: :meth:`on_skip` accounts for every
  fast-forwarded gap, so overlapping or gapped windows surface as
  coverage divergences, not silently wrong IPC.

Attach with :meth:`LockstepChecker.attach` (wires the core's retire/skip
hooks), run the simulation, then call :meth:`LockstepChecker.finish`.
The default is fail-fast: the first mismatch raises
:class:`DivergenceError` mid-simulation with the cycle, trace index, and
expected/actual values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..isa.instruction import Instruction
from ..sim.functional import (
    ArchState,
    FunctionalExecutor,
    Op,
    apply_instruction,
    predecode,
)
from ..sim.run import MAX_CYCLES, run_tier


@dataclass(frozen=True)
class Divergence:
    """First point where a timing core's retirement stream left the oracle."""

    benchmark: str
    machine: str
    #: simulation cycle of the divergent retirement (-1: post-run check)
    cycle: int
    #: trace index (number of instructions retired before this one)
    index: int
    #: which observable diverged (pc/seq/opcode/taken/mem_addr/...)
    field: str
    expected: Any
    actual: Any

    def render(self) -> str:
        return (
            f"{self.machine} on {self.benchmark}: divergence at "
            f"instruction {self.index} (cycle {self.cycle}), field "
            f"{self.field!r}: expected {self.expected!r}, "
            f"got {self.actual!r}"
        )


class DivergenceError(AssertionError):
    """Raised on the first divergence when the checker is fail-fast."""

    def __init__(self, divergence: Divergence) -> None:
        self.divergence = divergence
        super().__init__(divergence.render())


class LockstepChecker:
    """Replays a benchmark on the functional executor in lockstep."""

    def __init__(self, workload, fail_fast: bool = True) -> None:
        self.workload = workload
        self.fail_fast = fail_fast
        self.divergences: List[Divergence] = []
        self.instructions_checked = 0
        self.instructions_skipped = 0
        self._machine = "?"
        # A fresh oracle: independent of the (possibly cached/pickled)
        # trace the timing core replays.
        self._oracle = FunctionalExecutor(
            workload.program, max_instructions=len(workload.trace)
        )
        self._expected = self._oracle.trace()
        # Retirement-order replay through the shared semantics.
        self._replay = ArchState()
        #: predecoded replayed instructions, keyed by the instruction
        #: object itself: an ``id()`` key could alias a freed instruction
        self._ops: Dict[Instruction, Op] = {}
        #: trace position == instructions accounted for (retired or skipped)
        self._position = 0

    # ------------------------------------------------------------------ wiring
    def attach(self, core) -> "LockstepChecker":
        """Wire the retire/skip hooks of ``core`` to this checker."""
        self._machine = core.config.name
        core.retire_hook = self.on_retire
        core.skip_hook = self.on_skip
        return self

    # ----------------------------------------------------------------- events
    def _diverge(self, cycle: int, field: str, expected, actual) -> None:
        divergence = Divergence(
            benchmark=self.workload.name,
            machine=self._machine,
            cycle=cycle,
            index=self._position,
            field=field,
            expected=expected,
            actual=actual,
        )
        self.divergences.append(divergence)
        if self.fail_fast:
            raise DivergenceError(divergence)

    def on_retire(self, winst, cycle: int) -> None:
        """One instruction retired: the oracle must agree on everything."""
        i = self._position
        expected = self._expected
        if i >= len(expected):
            self._diverge(cycle, "coverage",
                          "end of program", f"retired seq={winst.seq}")
            return
        actual = winst.dyn
        if actual.seq != i:
            self._diverge(cycle, "seq", i, actual.seq)
        if actual.pc != expected.pc[i]:
            self._diverge(cycle, "pc", hex(expected.pc[i]), hex(actual.pc))
        opcode = expected.inst[i].opcode.name
        if actual.inst.opcode.name != opcode:
            self._diverge(cycle, "opcode", opcode, actual.inst.opcode.name)
        if actual.taken != expected.taken[i]:
            self._diverge(cycle, "taken", expected.taken[i], actual.taken)
        if actual.mem_addr != expected.mem_addr[i]:
            self._diverge(cycle, "mem_addr",
                          expected.mem_addr[i], actual.mem_addr)
        if actual.next_pc != expected.next_pc[i]:
            self._diverge(cycle, "next_pc",
                          hex(expected.next_pc[i]), hex(actual.next_pc))
        # Independent replay of the *core's* instruction object: catches
        # semantic corruption the field comparison cannot see.
        self._apply(actual.inst)
        self._position += 1
        self.instructions_checked += 1

    def on_skip(self, old_index: int, new_index: int) -> None:
        """A sampling gap: advance the oracle over the skipped span."""
        if old_index != self._position:
            self._diverge(-1, "skip_origin", self._position, old_index)
        if new_index < self._position:
            self._diverge(-1, "skip_overlap", self._position, new_index)
            return
        insts = self._expected.inst
        while self._position < new_index:
            if self._position >= len(insts):
                self._diverge(-1, "coverage",
                              "end of program", f"skip to {new_index}")
                return
            self._apply(insts[self._position])
            self._position += 1
            self.instructions_skipped += 1

    def _apply(self, inst: Instruction) -> None:
        op = self._ops.get(inst)
        if op is None:
            op = self._ops[inst] = predecode(inst)
        apply_instruction(self._replay, inst, True, op)

    # ------------------------------------------------------------------ finish
    def finish(self, expect_full: bool = True) -> List[Divergence]:
        """Post-run checks; returns every recorded divergence.

        ``expect_full=False`` (sampled runs) tolerates an unmeasured trace
        tail: the architectural snapshot is only comparable when every
        instruction was either retired or explicitly skipped.
        """
        total = len(self.workload.trace)
        if self._position != total:
            if expect_full:
                self._diverge(-1, "coverage", total, self._position)
            return self.divergences
        expected_snapshot = self._oracle.state.snapshot()
        actual_snapshot = self._replay.snapshot()
        if actual_snapshot != expected_snapshot:
            for name, expected, actual in zip(
                ("int_regs", "fp_regs", "memory"),
                expected_snapshot,
                actual_snapshot,
            ):
                if expected != actual:
                    self._diverge(-1, f"final_{name}", expected, actual)
        return self.divergences


def lockstep_simulate(
    workload,
    config,
    sampling=None,
    fail_fast: bool = True,
    max_cycles: int = MAX_CYCLES,
    fidelity: Optional[str] = None,
    interval=None,
):
    """Run one validated simulation; returns ``(result, divergences)``.

    The tier is chosen as in :func:`~repro.sim.run.simulate` and runs
    through the same setup with this checker attached.  The exact tier
    demands full trace coverage; the sampled and interval tiers drive
    the same core through their windows and gaps and tolerate the
    unmeasured remainder.
    """
    checker = LockstepChecker(workload, fail_fast=fail_fast)
    result = run_tier(
        workload, config, fidelity, sampling, interval, max_cycles,
        checkers=checker.attach,
    )
    return result, checker.divergences
