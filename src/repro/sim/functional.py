"""Functional (architectural) executor.

Interprets a :class:`~repro.isa.program.Program` at the architectural level:
register files, a word-granular memory, branch resolution.  It serves three
roles in the reproduction:

1. **Execution-driven traces.**  :meth:`FunctionalExecutor.trace` returns
   the dynamic instruction stream (with branch outcomes and memory
   addresses) that drives every timing core, mirroring the paper's
   execution-driven simulator split.
2. **Translation validation.**  Braid formation reorders instructions and
   re-allocates registers; property tests execute the original and the
   translated program and require identical architectural results.
3. **Braid semantics.**  The executor honours the S/T/I/E annotation bits:
   internal operands live in a small internal file whose values die at braid
   boundaries (``strict_internal`` turns violations into hard errors).

Like braid hardware, which reads the S/T/I/E bits from the static
instruction word once rather than per dynamic instance, every static
instruction is decoded once (:func:`predecode`) into an :class:`Op`: the
operation kind, each source's register bank and index (hardwired zero,
external file or internal file), the destination's banks, and the
opcode's semantics and immediate.  :func:`apply_instruction` is the one
definition of instruction semantics, implemented over that op; the
executor steps through it with ops it decoded per block, and the lockstep
oracle (:mod:`repro.validate.lockstep`) replays retirement streams
through it.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import MASK64, OpCategory
from ..isa.program import Program
from ..isa.registers import NUM_INTERNAL_REGS, Space

#: Size of one encoded instruction in bytes (the 64-bit braid word).
INSTRUCTION_BYTES = 8

#: Operand banks, numbered as :attr:`ArchState.banks` orders them; banks
#: from :data:`INTERNAL_INT` up are the braid internal file.
INT, FP, ZERO_INT, ZERO_FP, INTERNAL_INT, INTERNAL_FP = range(6)

#: Operation kinds of a predecoded instruction.
COMPUTE, BRANCH, LOAD, LOAD_FP, STORE, NOP = range(6)
_KINDS = {OpCategory.BRANCH: BRANCH, OpCategory.LOAD: LOAD,
          OpCategory.STORE: STORE, OpCategory.NOP: NOP}

_DEAD: Tuple[None, ...] = (None,) * NUM_INTERNAL_REGS


class ExecutionError(RuntimeError):
    """Raised on architectural violations (e.g. reading a dead internal value)."""


class ProgramLayout:
    """Assigns a byte address to every static instruction.

    Blocks are laid out contiguously in program order, eight bytes per
    instruction, so instruction caches and branch predictors can index on
    realistic addresses.
    """

    def __init__(self, program: Program, base: int = 0x1000) -> None:
        self.program = program
        self.base = base
        self.block_start: List[int] = []
        self.address_of: Dict[Instruction, int] = {}
        cursor = base
        for block in program.blocks:
            self.block_start.append(cursor)
            for inst in block.instructions:
                self.address_of[inst] = cursor
                cursor += INSTRUCTION_BYTES
        self.end = cursor

    def address(self, inst: Instruction) -> int:
        return self.address_of[inst]


@dataclass(slots=True)
class DynInst:
    """One dynamic instruction: a static instruction plus run-time facts.

    A :class:`Trace` stores no rows; it builds one of these whenever an
    entry is read by position, slice or iteration.
    """

    seq: int
    inst: Instruction
    block: int
    pc: int
    taken: Optional[bool] = None
    next_pc: int = 0
    mem_addr: Optional[int] = None

    @property
    def is_branch(self) -> bool:
        return self.inst.is_branch

    @property
    def is_load(self) -> bool:
        return self.inst.is_load

    @property
    def is_store(self) -> bool:
        return self.inst.is_store


class Trace(SequenceABC):
    """A dynamic instruction stream, stored one list per trace field.

    ``inst``, ``block``, ``pc``, ``taken``, ``next_pc`` and ``mem_addr``
    hold the :class:`DynInst` field of every entry, and an entry's
    ``seq`` is its position.  Like braid hardware, which decodes the
    static facts of an instruction once, the trace keeps only pointers
    per entry: every instance of one static instruction shares that
    instruction's ``pc`` and fall-through ``next_pc`` int objects, so
    an entry allocates nothing beyond its ``mem_addr`` int.

    ``len``, indexing, slicing and iteration read entries as
    :class:`DynInst` rows, built on demand (a slice is a list of rows
    numbered by their positions in the whole trace); a row is a copy,
    so a change to the trace goes through its columns.  Hot readers
    read the columns.
    """

    __slots__ = ("inst", "block", "pc", "taken", "next_pc", "mem_addr")

    def __init__(self, inst: List[Instruction], block: List[int],
                 pc: List[int], taken: List[Optional[bool]],
                 next_pc: List[int], mem_addr: List[Optional[int]]) -> None:
        self.inst = inst
        self.block = block
        self.pc = pc
        self.taken = taken
        self.next_pc = next_pc
        self.mem_addr = mem_addr

    def columns(self) -> Tuple[List, ...]:
        """Every column, in :attr:`__slots__` order."""
        return (self.inst, self.block, self.pc, self.taken, self.next_pc,
                self.mem_addr)

    def __len__(self) -> int:
        return len(self.inst)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self.inst)))]
        if index < 0:
            index += len(self.inst)
            if index < 0:
                raise IndexError("trace index out of range")
        return DynInst(index, self.inst[index], self.block[index],
                       self.pc[index], self.taken[index],
                       self.next_pc[index], self.mem_addr[index])

    def __iter__(self) -> Iterator[DynInst]:
        return map(DynInst, count(), *self.columns())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.columns() == other.columns()

    def __repr__(self) -> str:
        return f"Trace({len(self.inst)} entries)"


@dataclass
class ExecutionStats:
    """Aggregate facts about one functional run."""

    dynamic_instructions: int = 0
    dynamic_branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    block_counts: Dict[int, int] = field(default_factory=dict)
    completed: bool = False  # reached program exit (vs. instruction cap)


class ArchState:
    """Architectural register/memory state, including the braid internal file."""

    def __init__(self) -> None:
        self.int_regs: List[int] = [0] * 32
        self.fp_regs: List[float] = [0.0] * 32
        self.internal_int: List[Optional[int]] = list(_DEAD)
        self.internal_fp: List[Optional[float]] = list(_DEAD)
        self.memory: Dict[int, object] = {}
        #: every operand bank by bank number (:data:`INT` ...); the
        #: register lists change in place and are never rebound
        self.banks: Tuple[Sequence, ...] = (
            self.int_regs, self.fp_regs, (0,) * 32, (0.0,) * 32,
            self.internal_int, self.internal_fp,
        )

    def clear_internal(self) -> None:
        """Discard internal values (a braid has finished executing)."""
        self.internal_int[:] = _DEAD
        self.internal_fp[:] = _DEAD

    def snapshot(self) -> Tuple[Tuple[int, ...], Tuple[float, ...], Tuple]:
        """Hashable view of external architectural state (for equivalence tests)."""
        memory = tuple(sorted(self.memory.items()))
        return tuple(self.int_regs), tuple(self.fp_regs), memory


class Op(NamedTuple):
    """One static instruction, decoded once for the interpreter."""

    kind: int  # COMPUTE / BRANCH / LOAD / LOAD_FP / STORE / NOP
    start: bool  # braid start bit: the internal file dies here
    #: ``(bank, index)`` per source operand
    reads: Tuple[Tuple[int, int], ...]
    semantics: object
    imm: int
    #: ``(internal bank or None, external bank or None, index, fp)``;
    #: ``None`` when the result is written nowhere
    dest: Optional[Tuple[Optional[int], Optional[int], int, bool]]


def predecode(inst: Instruction) -> Op:
    """The :class:`Op` of ``inst``: its operands' banks, kind and semantics."""
    # Each bank pair is (integer, floating point): a register's bank is
    # the pair's base plus its is_fp.
    annot = inst.annot
    reads = tuple(
        ((INTERNAL_INT if annot.src_space(position) is Space.INTERNAL
          else ZERO_INT if reg.is_zero else INT) + reg.is_fp, reg.index)
        for position, reg in enumerate(inst.srcs)
    )
    dest = None
    reg = inst.dest
    if reg is not None:
        internal = INTERNAL_INT + reg.is_fp if annot.dest_internal else None
        external = (INT + reg.is_fp
                    if annot.dest_external and not reg.is_zero else None)
        if internal is not None or external is not None:
            dest = (internal, external, reg.index, reg.is_fp)
    opcode = inst.opcode
    kind = _KINDS.get(opcode.category, COMPUTE)
    if kind == LOAD and opcode.dest_fp:
        kind = LOAD_FP
    return Op(kind, annot.start, reads, opcode.semantics, inst.imm, dest)


def apply_instruction(
    state: ArchState, inst: Instruction, strict_internal: bool = True,
    op: Optional[Op] = None,
) -> Tuple[Optional[bool], Optional[int]]:
    """Apply one instruction's architectural effects to ``state``.

    Returns ``(taken, mem_addr)``: the branch outcome (``None`` for
    non-branches) and the memory address touched (``None`` for non-memory
    instructions).  This is the single source of instruction semantics —
    :class:`FunctionalExecutor` steps through it, and the lockstep
    validation oracle (:mod:`repro.validate.lockstep`) replays timing-core
    retirement streams through it, so the two can never drift apart.
    ``op`` is ``inst``'s :func:`predecode`; callers that apply a static
    instruction more than once decode it once and pass it.
    """
    if op is None:
        op = predecode(inst)
    kind, start, reads, semantics, imm, dest = op
    if start and strict_internal:
        # Internal values must not flow across braid boundaries.
        state.clear_internal()
    banks = state.banks
    srcs = []
    for bank, index in reads:
        value = banks[bank][index]
        if value is None and bank >= INTERNAL_INT:
            raise ExecutionError(
                f"read of dead internal register {inst.srcs[len(srcs)]} "
                f"(internal values do not survive braid boundaries)"
            )
        srcs.append(value)

    addr = None
    if kind == COMPUTE:
        value = semantics(srcs, imm)
    elif kind == BRANCH:
        return bool(semantics(srcs, imm)), None
    elif kind == STORE:
        addr = (int(srcs[1]) + imm) & MASK64
        state.memory[addr & ~0x7] = srcs[0]
        return None, addr
    elif kind == NOP:
        return None, None
    else:
        addr = (int(srcs[0]) + imm) & MASK64
        value = state.memory.get(addr & ~0x7, 0)
        value = float(value) if kind == LOAD_FP else int(value) & MASK64

    if dest is not None:
        internal, external, index, fp = dest
        if internal is not None and index >= NUM_INTERNAL_REGS:
            raise ExecutionError(
                f"internal register index {inst.dest} out of range"
            )
        value = float(value) if fp else int(value) & MASK64
        if internal is not None:
            banks[internal][index] = value
        if external is not None:
            banks[external][index] = value
    return None, addr


def _kind_counts(steps) -> Tuple[int, int, int]:
    """``(branches, loads, stores)`` among predecoded ``steps``."""
    kinds = [op.kind for _, op in steps]
    return (kinds.count(BRANCH), kinds.count(LOAD) + kinds.count(LOAD_FP),
            kinds.count(STORE))


class FunctionalExecutor:
    """Architectural interpreter producing dynamic instruction streams.

    :meth:`trace` runs the program once and fills the columns of a
    :class:`Trace` as it goes, a basic block at a time: every column but
    ``mem_addr`` is extended from per-block tuples built here once, and
    only the memory address and the terminal branch's outcome (and so
    its ``next_pc``) are per-instance facts.
    """

    def __init__(
        self,
        program: Program,
        max_instructions: int = 5_000_000,
        strict_internal: bool = True,
        initial_state: Optional[ArchState] = None,
    ) -> None:
        program.validate()
        self.program = program
        self.layout = ProgramLayout(program)
        self.max_instructions = max_instructions
        self.strict_internal = strict_internal
        self.state = initial_state if initial_state is not None else ArchState()
        self.stats = ExecutionStats()
        #: per block: ``(steps, columns, fallthrough, taken target,
        #: target pc, kind counts)``.  A step is ``(instruction, op)``;
        #: ``columns`` holds the block's entries of every trace column
        #: but ``mem_addr``, as if its branch were not taken.  An entry's
        #: fall-through is the next entry's pc object, so every dynamic
        #: instance shares them instead of allocating its own.
        self._plan = []
        block_start = self.layout.block_start
        for block in program.blocks:
            steps = tuple((inst, predecode(inst))
                          for inst in block.instructions)
            size = len(steps)
            start = block_start[block.index]
            pcs = tuple(start + INSTRUCTION_BYTES * i for i in range(size + 1))
            columns = (tuple(block.instructions), (block.index,) * size,
                       pcs[:-1], (None,) * size, pcs[1:])
            target, fallthrough = program.successors(block)
            target_pc = block_start[target] if target is not None else None
            self._plan.append((steps, columns, fallthrough, target,
                               target_pc, _kind_counts(steps)))

    # ------------------------------------------------------------------ running
    def run(self) -> ExecutionStats:
        """Execute to completion (or the instruction cap); returns statistics."""
        self.trace()
        return self.stats

    def trace(self) -> Trace:
        """Execute, returning one :class:`Trace` entry per retired instruction.

        The run completes when control leaves the last block, even when
        that happens on exactly the ``max_instructions``-th instruction.
        """
        trace = Trace([], [], [], [], [], [])
        block_columns = trace.columns()[:5]
        outcomes = trace.taken
        next_pcs = trace.next_pc
        append_addr = trace.mem_addr.append
        state = self.state
        strict = self.strict_internal
        stats = self.stats
        block_counts = stats.block_counts
        plan = self._plan
        cap = self.max_instructions
        seq = 0
        index: Optional[int] = self.program.entry
        while index is not None and seq < cap:
            steps, columns, next_index, target, target_pc, counts = \
                plan[index]
            block_counts[index] = block_counts.get(index, 0) + 1
            size = len(steps)
            if size > cap - seq:
                # The cap lands inside this block: stop short of its end.
                size = cap - seq
                steps = steps[:size]
                columns = tuple(column[:size] for column in columns)
                counts = _kind_counts(steps)
                next_index = index
            stats.dynamic_branches += counts[0]
            stats.loads += counts[1]
            stats.stores += counts[2]
            taken = None
            for inst, op in steps:
                taken, mem_addr = apply_instruction(state, inst, strict, op)
                append_addr(mem_addr)
            for column, entries in zip(block_columns, columns):
                column.extend(entries)
            if taken is not None:
                # Only a block's terminal instruction is a branch.
                outcomes[-1] = taken
                if taken:
                    stats.taken_branches += 1
                    next_index = target
                    next_pcs[-1] = target_pc
            seq += size
            index = next_index
        stats.dynamic_instructions = seq
        stats.completed = index is None
        return trace


def execute(program: Program, max_instructions: int = 5_000_000,
            strict_internal: bool = True) -> Tuple[ArchState, ExecutionStats]:
    """Convenience wrapper: run ``program`` and return final state + stats."""
    executor = FunctionalExecutor(
        program, max_instructions=max_instructions, strict_internal=strict_internal
    )
    stats = executor.run()
    return executor.state, stats


def observably_equivalent(
    original: Program,
    translated: Program,
    max_instructions: int = 5_000_000,
) -> bool:
    """Whether two programs are observably equivalent.

    Braid translation deliberately stops writing *internalized* values to the
    architectural register file (they are dead outside their braid), so plain
    register-state comparison is too strict.  The observables that must match
    are: final memory contents, the control-flow path (per-block execution
    counts and branch outcome totals), and the dynamic instruction count.
    """
    state_a, stats_a = execute(original, max_instructions=max_instructions)
    state_b, stats_b = execute(translated, max_instructions=max_instructions)
    return (
        state_a.memory == state_b.memory
        and stats_a.block_counts == stats_b.block_counts
        and stats_a.dynamic_instructions == stats_b.dynamic_instructions
        and stats_a.taken_branches == stats_b.taken_branches
        and stats_a.completed == stats_b.completed
    )
