"""Binary translation: reorder each basic block into consecutive braids.

Paper section 3.1: "the instructions within the basic block are arranged such
that instructions belonging to the same braid are scheduled as a consecutive
sequence of instructions within the basic block...  If the last instruction
of the basic block is a branch, the braid containing the branch instruction
is ordered to be the last braid in the basic block."

The scheduler is a greedy braid-level list scheduler over the intra-block
dependence DAG (register RAW/WAR/WAW plus memory ordering).  When no whole
braid can be emitted — the braid-level constraint graph has a cycle, or the
branch-last rule blocks the only free braid — the braid containing the
earliest unscheduled instruction is broken at the point of the ordering
violation and its free prefix emitted, exactly the paper's second braid
breaking rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from ..dataflow.graph import BlockGraph
from ..dataflow.liveness import LivenessAnalysis
from ..dataflow.memdep import memory_order_edges, ordering_violated
from ..isa.program import BasicBlock, Program
from ..isa.registers import NUM_INTERNAL_REGS
from .braid import Braid
from .constraints import (
    SplitStats,
    enforce_internal_pressure,
    instruction_order_constraints,
    predecessor_map,
)
from .partition import partition_block
from .regalloc import allocate_block


class TranslationError(RuntimeError):
    """Raised when the translator produces an inconsistent block (a bug)."""


@dataclass
class BlockTranslation:
    """Result of translating one basic block."""

    original: BasicBlock
    translated: BasicBlock
    braids: List[Braid]
    splits: SplitStats
    #: final emission order: braids[i] occupies new positions new_spans[i]
    new_spans: List[Tuple[int, int]] = field(default_factory=list)


@dataclass
class TranslationReport:
    """Program-level translation summary."""

    blocks: List[BlockTranslation] = field(default_factory=list)
    splits: SplitStats = field(default_factory=SplitStats)

    @property
    def total_braids(self) -> int:
        return sum(len(block.braids) for block in self.blocks)


def schedule_braids(
    block: BasicBlock, braids: List[Braid]
) -> Tuple[List[Braid], SplitStats]:
    """Order braids contiguously while respecting all dependences.

    Returns the braids in final emission order (possibly with some broken
    into two) and split statistics.
    """
    stats = SplitStats()
    count = len(block.instructions)
    preds = predecessor_map(count, instruction_order_constraints(block))
    branch_position = (
        count - 1 if block.terminator is not None else None
    )

    scheduled: Set[int] = set()
    remaining: List[Braid] = sorted(braids, key=lambda b: b.first_position)
    emitted: List[Braid] = []

    def braid_is_free(braid: Braid) -> bool:
        members = set(braid.positions)
        return all(
            preds[position] <= (scheduled | members)
            for position in braid.positions
        )

    def free_prefix_length(braid: Braid, cap_before_branch: bool) -> int:
        length = 0
        prefix: Set[int] = set()
        for position in braid.positions:
            if cap_before_branch and position == branch_position:
                break
            if not preds[position] <= (scheduled | prefix):
                break
            prefix.add(position)
            length += 1
        return length

    while remaining:
        remaining.sort(key=lambda b: b.first_position)
        only_one_left = len(remaining) == 1
        chosen: Optional[int] = None
        for index, braid in enumerate(remaining):
            holds_branch = (
                branch_position is not None and braid.contains(branch_position)
            )
            if holds_branch and not only_one_left:
                continue
            if braid_is_free(braid):
                chosen = index
                break
        if chosen is not None:
            braid = remaining.pop(chosen)
            emitted.append(braid)
            scheduled.update(braid.positions)
            continue

        # No whole braid can go: break the braid holding the earliest
        # unscheduled instruction at the point of the ordering violation.
        braid = remaining[0]
        cap = branch_position is not None and not only_one_left
        prefix = free_prefix_length(braid, cap_before_branch=cap)
        if prefix <= 0 or prefix >= braid.size:
            raise TranslationError(
                f"scheduler wedged on block {block.name}: "
                f"braid {braid} prefix {prefix}"
            )
        head, tail = braid.split_at(prefix)
        stats.ordering_splits += 1
        remaining[0] = tail
        emitted.append(head)
        scheduled.update(head.positions)

    return emitted, stats


def translate_block(
    block: BasicBlock,
    liveness: LivenessAnalysis,
    internal_limit: int = NUM_INTERNAL_REGS,
) -> BlockTranslation:
    """Translate one basic block into braid-ordered, braid-annotated form."""
    graph = BlockGraph(block)
    escaping = set(liveness.escaping_defs(block))

    braids = partition_block(graph)
    ordered, schedule_stats = schedule_braids(block, braids)
    ordered, pressure_stats = enforce_internal_pressure(
        ordered, graph, escaping, limit=internal_limit
    )
    schedule_stats.merge(pressure_stats)

    new_instructions = allocate_block(
        block, graph, ordered, escaping, internal_limit=internal_limit
    )

    # Safety net: the reordering must preserve every memory-ordering edge.
    new_position: List[int] = [0] * len(block.instructions)
    cursor = 0
    spans: List[Tuple[int, int]] = []
    for braid in ordered:
        spans.append((cursor, cursor + braid.size))
        for position in braid.positions:
            new_position[position] = cursor
            cursor += 1
    violated = ordering_violated(memory_order_edges(block), new_position)
    if violated:
        raise TranslationError(
            f"block {block.name}: memory ordering violated: {sorted(violated)}"
        )

    translated = BasicBlock(
        index=block.index, instructions=new_instructions, label=block.label
    )
    return BlockTranslation(
        original=block,
        translated=translated,
        braids=ordered,
        splits=schedule_stats,
        new_spans=spans,
    )


def translate_program(
    program: Program, internal_limit: int = NUM_INTERNAL_REGS
) -> Tuple[Program, TranslationReport]:
    """Braid-translate a whole program.

    Returns a new :class:`Program` (same CFG, reordered and annotated blocks)
    plus a :class:`TranslationReport` describing every braid formed.
    """
    program.validate()
    liveness = LivenessAnalysis(program)
    report = TranslationReport()
    new_blocks: List[BasicBlock] = []
    for block in program.blocks:
        translation = translate_block(block, liveness, internal_limit)
        report.blocks.append(translation)
        report.splits.merge(translation.splits)
        new_blocks.append(translation.translated)
    translated = program.copy_structure(new_blocks)
    translated.validate()
    return translated, report
