"""Braid statistics: the paper's Tables 1, 2, and 3.

* Table 1 — braids per basic block, with and without single-instruction
  braids, plus the single-instruction braid population breakdown;
* Table 2 — braid size (instructions) and width (size / longest dataflow
  path);
* Table 3 — internal values, external inputs, and external outputs per
  braid.

Statistics are computed statically over the translated program (the paper's
profiling tool also works on the static binary), per benchmark, with
integer/floating-point suite averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.braid import classify_braid_io
from ..core.pipeline import BraidCompilation
from ..dataflow.graph import BlockGraph
from ..dataflow.liveness import LivenessAnalysis


@dataclass
class BraidRecord:
    """Shape and IO of one braid."""

    block_index: int
    size: int
    width: float
    internals: int
    external_inputs: int
    external_outputs: int
    is_branch: bool = False
    is_nop: bool = False

    @property
    def is_single(self) -> bool:
        return self.size == 1


@dataclass
class BenchmarkBraidStats:
    """Aggregated braid statistics for one benchmark (one table row)."""

    name: str
    suite: str
    records: List[BraidRecord] = field(default_factory=list)
    basic_blocks: int = 0

    # ---------------------------------------------------------------- helpers
    def _selected(self, exclude_singles: bool) -> List[BraidRecord]:
        if exclude_singles:
            return [r for r in self.records if not r.is_single]
        return self.records

    def _mean(self, values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    # ----------------------------------------------------------------- Table 1
    def braids_per_block(self, exclude_singles: bool = False) -> float:
        selected = self._selected(exclude_singles)
        return len(selected) / self.basic_blocks if self.basic_blocks else 0.0

    # ----------------------------------------------------------------- Table 2
    def mean_size(self, exclude_singles: bool = False) -> float:
        return self._mean([r.size for r in self._selected(exclude_singles)])

    def mean_width(self, exclude_singles: bool = False) -> float:
        return self._mean([r.width for r in self._selected(exclude_singles)])

    # ----------------------------------------------------------------- Table 3
    def mean_internals(self, exclude_singles: bool = False) -> float:
        return self._mean([r.internals for r in self._selected(exclude_singles)])

    def mean_external_inputs(self, exclude_singles: bool = False) -> float:
        return self._mean(
            [r.external_inputs for r in self._selected(exclude_singles)]
        )

    def mean_external_outputs(self, exclude_singles: bool = False) -> float:
        return self._mean(
            [r.external_outputs for r in self._selected(exclude_singles)]
        )


def braid_statistics(
    compilation: BraidCompilation, suite: str = ""
) -> BenchmarkBraidStats:
    """Compute the Tables 1-3 statistics for one compiled benchmark."""
    program = compilation.report.blocks[0].original if compilation.report.blocks else None
    stats = BenchmarkBraidStats(
        name=compilation.original.name,
        suite=suite,
        basic_blocks=len(compilation.original.blocks),
    )
    liveness = LivenessAnalysis(
        compilation.compaction.program if compilation.compaction else compilation.original
    )
    for translation in compilation.report.blocks:
        block = translation.original
        graph = BlockGraph(block)
        escaping = set(liveness.escaping_defs(block))
        for braid in translation.braids:
            io = classify_braid_io(braid, graph, escaping)
            first = block.instructions[braid.positions[0]]
            stats.records.append(
                BraidRecord(
                    block_index=block.index,
                    size=braid.size,
                    width=braid.width(graph),
                    internals=io.num_internal,
                    external_inputs=io.num_external_inputs,
                    external_outputs=io.num_external_outputs,
                    is_branch=any(
                        block.instructions[p].is_branch for p in braid.positions
                    ),
                    is_nop=braid.size == 1 and first.is_nop,
                )
            )
    return stats


@dataclass
class SuiteBraidStats:
    """Per-benchmark rows plus integer/floating-point averages."""

    rows: Dict[str, BenchmarkBraidStats] = field(default_factory=dict)

    def average(self, metric: str, suite: Optional[str] = None,
                exclude_singles: bool = False) -> float:
        values = [
            getattr(row, metric)(exclude_singles)
            for row in self.rows.values()
            if suite is None or row.suite == suite
        ]
        return sum(values) / len(values) if values else 0.0
