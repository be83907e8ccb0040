"""High-level braid compilation pipeline.

``braidify`` is the one-call public entry point: it mimics the paper's
profiling + binary-translation flow end to end — optional external register
compaction (allocation pass 1), braid identification, braid scheduling with
both breaking rules, internal register allocation (pass 2), and annotation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

from ..isa.program import Program
from ..isa.registers import NUM_INTERNAL_REGS
from .regalloc import CompactionResult, compact_external_registers
from .translator import TranslationReport, translate_program


@dataclass
class BraidCompilation:
    """Everything the braid toolchain produced for one program."""

    original: Program
    translated: Program
    report: TranslationReport
    compaction: Optional[CompactionResult] = None

    @property
    def total_braids(self) -> int:
        return self.report.total_braids

    def __setstate__(self, state):
        # A pickle of another layout (a stale artifact-cache entry) fails
        # here, at load, so the cache quarantines and rebuilds it.
        if state.keys() != self.__dataclass_fields__.keys():
            raise ValueError("braid compilation pickle has fields "
                             f"{sorted(state)} (another layout)")
        self.__dict__.update(
            (sys.intern(name), value) for name, value in state.items()
        )


def braidify(
    program: Program,
    internal_limit: int = NUM_INTERNAL_REGS,
    compact_external: bool = False,
) -> BraidCompilation:
    """Run the full braid compilation flow on ``program``.

    Parameters
    ----------
    program:
        The input program (untranslated, architectural register names).
    internal_limit:
        Internal register file size used for the braid-breaking working-set
        rule (paper default: 8).
    compact_external:
        Also run allocation pass 1 (merge non-interfering external register
        names across the program) before braid formation.
    """
    compaction: Optional[CompactionResult] = None
    source = program
    if compact_external:
        compaction = compact_external_registers(program)
        source = compaction.program
    translated, report = translate_program(source, internal_limit=internal_limit)
    return BraidCompilation(
        original=program,
        translated=translated,
        report=report,
        compaction=compaction,
    )
