"""Dynamic value fanout and lifetime characterization (paper section 1.1).

The braid rests on two measured properties of program values:

* **Fanout** — "over 70% of values are used only once, and about 90% of
  values are used at most twice.  About 4% of values are produced but not
  used."
* **Lifetime** — "about 80% of values have a lifetime of 32 instructions or
  fewer" (producer-to-last-consumer distance in dynamic instructions).

This module reproduces that analysis over a dynamic trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..isa.program import Program
from ..sim.functional import FunctionalExecutor


@dataclass
class _OpenValue:
    producer_seq: int
    reads: int = 0
    last_read_seq: Optional[int] = None


@dataclass
class ValueCharacterization:
    """Histogram summary of value fanout and lifetime for one program."""

    name: str
    #: fanout -> count of dynamic values with that many reads
    fanout: Dict[int, int] = field(default_factory=dict)
    #: producer-to-last-consumer distance -> count (used values only)
    lifetime: Dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------- summaries
    @property
    def total_values(self) -> int:
        return sum(self.fanout.values())

    def fanout_fraction(self, at_most: int, at_least: int = 0) -> float:
        """Fraction of values with ``at_least <= fanout <= at_most``."""
        total = self.total_values
        if not total:
            return 0.0
        hit = sum(
            count
            for reads, count in self.fanout.items()
            if at_least <= reads <= at_most
        )
        return hit / total

    @property
    def fraction_unused(self) -> float:
        """Values produced but never read (paper: ~4%)."""
        return self.fanout_fraction(0)

    @property
    def fraction_single_use(self) -> float:
        """Values read exactly once (paper: >70%)."""
        return self.fanout_fraction(1, at_least=1)

    @property
    def fraction_at_most_two_uses(self) -> float:
        """Values read at most twice, of used+unused (paper: ~90%)."""
        return self.fanout_fraction(2)

    def lifetime_fraction(self, at_most: int) -> float:
        """Fraction of *used* values living at most ``at_most`` instructions."""
        total = sum(self.lifetime.values())
        if not total:
            return 0.0
        hit = sum(
            count for distance, count in self.lifetime.items() if distance <= at_most
        )
        return hit / total

    @property
    def fraction_short_lived(self) -> float:
        """Lifetime of 32 instructions or fewer (paper: ~80%)."""
        return self.lifetime_fraction(32)


def characterize_values(
    program: Program, max_instructions: int = 200_000
) -> ValueCharacterization:
    """Run the program and histogram the fanout/lifetime of every value."""
    result = ValueCharacterization(name=program.name)
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    open_values: Dict[Tuple[str, int], _OpenValue] = {}

    def close(value: _OpenValue) -> None:
        result.fanout[value.reads] = result.fanout.get(value.reads, 0) + 1
        if value.last_read_seq is not None:
            distance = value.last_read_seq - value.producer_seq
            result.lifetime[distance] = result.lifetime.get(distance, 0) + 1

    for seq, inst in enumerate(executor.trace().inst):
        for reg in inst.reads():
            value = open_values.get((reg.rclass.value, reg.index))
            if value is not None:
                value.reads += 1
                value.last_read_seq = seq
        written = inst.writes()
        if written is not None:
            key = (written.rclass.value, written.index)
            previous = open_values.get(key)
            if previous is not None:
                close(previous)
            open_values[key] = _OpenValue(producer_seq=seq)

    for value in open_values.values():
        close(value)
    return result


def characterize_suite(
    programs: Dict[str, Program], max_instructions: int = 200_000
) -> Dict[str, ValueCharacterization]:
    """Characterize every program in a suite."""
    return {
        name: characterize_values(program, max_instructions)
        for name, program in programs.items()
    }


def average_fractions(
    characterizations: Iterable[ValueCharacterization],
) -> Dict[str, float]:
    """Suite-average headline fractions (the paper's section 1.1 numbers)."""
    rows = list(characterizations)
    if not rows:
        return {}
    count = len(rows)
    return {
        "single_use": sum(r.fraction_single_use for r in rows) / count,
        "at_most_two_uses": sum(r.fraction_at_most_two_uses for r in rows) / count,
        "unused": sum(r.fraction_unused for r in rows) / count,
        "lifetime_le_32": sum(r.fraction_short_lived for r in rows) / count,
    }
