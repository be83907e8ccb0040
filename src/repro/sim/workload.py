"""Prepared workloads: a dynamic trace plus front-end/memory oracles.

The timing cores are execution-driven in two phases, mirroring the paper's
simulator split.  Phase one (here) runs the functional executor once and
records, per dynamic instruction:

* the correct-path dynamic stream (branch outcomes, memory addresses);
* branch-predictor outcomes, trained in fetch (program) order — the
  misprediction *set* is therefore identical across machine configurations,
  which is what lets one prepared workload drive every sweep point;
* cache latencies for instruction fetches and data accesses, simulated in
  trace order.

Phase two (the timing cores) replays the stream against the machine's
structural constraints: widths, windows, ports, bypass bandwidth, functional
units, and misprediction/refill penalties.  Wrong-path *timing* is charged
through those penalties (the paper's minimum-misprediction-penalty
formulation); wrong-path cache pollution is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.program import Program
from ..isa.registers import Space
from ..uarch.branchpred import make_predictor
from ..uarch.cache import MemoryHierarchy, MemoryHierarchyConfig
from .functional import FunctionalExecutor, Trace
from .gcpause import collector_paused


#: scoreboard slot of a register key; the internal file's slots follow
#: the external file's 64, so one flat table holds both namespaces
_EXTERNAL_SLOT = {("int", index): index for index in range(32)}
_EXTERNAL_SLOT.update({("fp", index): 32 + index for index in range(32)})
_INTERNAL_BASE = 64
#: size of a rename table over both namespaces, and its internal half
SCOREBOARD_SLOTS = 2 * _INTERNAL_BASE
INTERNAL_SLOTS = slice(_INTERNAL_BASE, SCOREBOARD_SLOTS)


def _slot(reg, internal: bool) -> Tuple[int, bool]:
    """``(scoreboard slot, internal)`` of ``reg`` in one register file."""
    slot = _EXTERNAL_SLOT[(reg.rclass.value, reg.index)]
    return (slot + _INTERNAL_BASE if internal else slot), internal


class DecodedInst:
    """Decode-stage facts of one static instruction, computed once.

    The timing cores replay the same trace against many machine
    configurations; everything here depends only on the instruction word
    (opcode, operands, braid annotation bits), so it is extracted once per
    static instruction instead of being re-derived from attribute chains on
    every dynamic dispatch of every sweep point.

    ``sources`` and ``writes`` are its scoreboard form, each a tuple of
    ``(scoreboard slot, internal)``: one per non-zero source, and one per
    register file the destination writes (internal first).  Dispatch
    resolves every source with one index into the core's 128-slot rename
    table (64 external slots, then 64 internal) and binds the writes at
    commit, so producers are named by static slot and no per-entry
    dependence row exists.
    """

    __slots__ = (
        "is_load", "is_store", "is_branch", "latency", "start",
        "dest_external", "dest_internal", "sources", "writes",
        "ext_src_ops", "ext_dest_ops",
    )

    def __init__(self, inst: Instruction) -> None:
        annot = inst.annot
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_branch = inst.is_branch
        self.latency = inst.opcode.latency
        self.start = annot.start
        sources = []
        ext_src_ops = 0
        for position, reg in enumerate(inst.srcs):
            if reg.is_zero:
                continue
            internal = annot.src_space(position) is Space.INTERNAL
            sources.append(_slot(reg, internal))
            if not internal:
                ext_src_ops += 1
        self.sources: Tuple = tuple(sources)
        written = inst.writes()
        self.dest_external = written is not None and annot.dest_external
        self.dest_internal = written is not None and annot.dest_internal
        writes = []
        if self.dest_internal:
            writes.append(_slot(written, True))
        if self.dest_external:
            writes.append(_slot(written, False))
        self.writes: Tuple = tuple(writes)
        # Rename bandwidth accounting: only external operands are renamed.
        self.ext_src_ops = ext_src_ops
        self.ext_dest_ops = 1 if self.dest_external else 0

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


def decode_trace(trace: Trace) -> List[DecodedInst]:
    """Per-trace-entry decode facts, shared across repeats of a static inst."""
    memo: Dict[Instruction, DecodedInst] = {
        inst: DecodedInst(inst) for inst in dict.fromkeys(trace.inst)
    }
    return list(map(memo.__getitem__, trace.inst))


class ReplayFacts:
    """Config-invariant phase-two replay facts of one workload.

    Everything here is a pure function of the trace and its decode facts,
    so it is computed once per workload and shared read-only by every
    timing core replaying it — including every config of a sweep
    simulated against the same workload.  None of it is pickled.

    * ``mem_word[i]`` — the aligned memory word entry ``i`` accesses
      (``None`` for a non-memory entry).
    * ``store_conflict[i]`` — for a load, the trace position of the
      *youngest older* store to the same memory word (``None`` when no
      such store exists).  Because dispatch and retirement are both
      in order, this single static fact answers run-time memory
      disambiguation exactly: if that store is still in the LSQ it is
      precisely the entry a full age-ordered scan would find, and if it
      has retired then every older matching store has retired too.  The
      issue stage therefore replaces its per-attempt O(stores) LSQ scan
      with one dict probe.
    """

    __slots__ = ("mem_word", "store_conflict", "analytic_retire")

    def __init__(self, mem_word, store_conflict) -> None:
        self.mem_word = mem_word
        self.store_conflict = store_conflict
        #: lazily computed analytic retirement-time curve (see
        #: :func:`repro.sim.sampling._analytic_retire`); config-invariant
        #: like everything else here, so one walk serves every sweep point
        self.analytic_retire = None


def build_replay(trace: Trace, decoded: List[DecodedInst]) -> ReplayFacts:
    """Build the :class:`ReplayFacts` of one trace: one pass over the
    ``mem_addr`` column finds each entry's memory word and each load's
    store conflict.  An aligned address is its own memory word.
    """
    n = len(trace)
    mem: List[Optional[int]] = [None] * n
    store_conflict: List[Optional[int]] = [None] * n
    #: memory word -> trace position of its youngest store so far
    last_store: Dict[int, int] = {}
    for i, addr, facts in zip(count(), trace.mem_addr, decoded):
        if addr is None:
            continue
        word = addr & ~0x7 if addr & 0x7 else addr
        mem[i] = word
        if facts.is_load:
            store_conflict[i] = last_store.get(word)
        else:
            last_store[word] = i
    return ReplayFacts(mem_word=mem, store_conflict=store_conflict)


@dataclass
class WorkloadStats:
    """Phase-one facts about a prepared workload."""

    dynamic_instructions: int = 0
    branches: int = 0
    mispredicts: int = 0
    loads: int = 0
    stores: int = 0
    l1d_miss_rate: float = 0.0
    l1i_miss_rate: float = 0.0

    @property
    def branch_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.mispredicts / self.branches


@dataclass
class PreparedWorkload:
    """Everything a timing core needs to replay one benchmark.

    ``trace`` is a read-only :class:`~repro.sim.functional.Trace`: one
    list per trace field, with an entry's ``seq`` being its position.
    Timing cores and phase one read its columns; lockstep, pipeview,
    the exporters and tests read ``DynInst`` rows that it builds on
    demand.  The latency oracles are position lists of the trace's
    length too.  A pickle carries the trace as the same six columns, and
    loading one keeps the columns as they are.
    """

    name: str
    program: Program
    trace: Trace
    #: sequence numbers of mispredicted branches
    mispredicted: Set[int]
    #: per-entry total data-cache latency of a load (``None`` for others)
    load_latency: List[Optional[int]]
    #: per-entry *extra* fetch latency beyond the L1I hit time (0 for none)
    ifetch_extra: List[int]
    stats: WorkloadStats = field(default_factory=WorkloadStats)
    #: lazily computed decode facts, aligned with ``trace`` (see :meth:`decode`)
    decoded: Optional[List[DecodedInst]] = field(
        default=None, repr=False, compare=False
    )
    #: lazily computed replay facts (see :meth:`replay`); dropped from
    #: pickles — they rebuild in one linear pass
    replay_facts: Optional[ReplayFacts] = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.trace)

    def decode(self) -> List[DecodedInst]:
        """Decode facts for every trace entry, computed once per workload."""
        if self.decoded is None:
            with collector_paused():
                self.decoded = decode_trace(self.trace)
        return self.decoded

    def replay(self) -> ReplayFacts:
        """Replay facts shared by every timing core driving this workload."""
        if self.replay_facts is None:
            with collector_paused():
                self.replay_facts = build_replay(self.trace, self.decode())
        return self.replay_facts

    def __getstate__(self):
        # The trace pickles as one list per DynInst field: lists of plain
        # ints and memoized references take a third of the bytes of one
        # state dict per row, and load in half the time.
        state = self.__dict__.copy()
        del state["replay_facts"]
        state["trace_columns"] = state.pop("trace").columns()
        return state

    def __setstate__(self, state):
        columns = state.pop("trace_columns", None)
        if columns is None or len(columns) != len(Trace.__slots__):
            raise ValueError("workload pickle is not the six-column trace "
                             "format (an older artifact format)")
        inst, block, pc, taken, next_pc, mem_addr = columns
        # Unpickling makes one int object per occurrence; one dict
        # interns the addresses back, so every instance of a static
        # instruction shares its pc and next_pc as in a fresh trace.
        intern = {}.setdefault
        state["trace"] = Trace(
            inst, block, list(map(intern, pc, pc)), taken,
            list(map(intern, next_pc, next_pc)), mem_addr,
        )
        state["replay_facts"] = None
        self.__dict__.update(state)


@collector_paused()
def prepare_workload(
    program: Program,
    predictor: str = "perceptron",
    memory: Optional[MemoryHierarchyConfig] = None,
    perfect: bool = False,
    max_instructions: int = 200_000,
    warmup_passes: int = 2,
) -> PreparedWorkload:
    """Run phase one on ``program``.

    ``perfect=True`` gives the Figure 1 study's ideal front end: no
    mispredictions and flat L1-hit memory latencies.

    ``warmup_passes`` trains the branch predictor over the trace before the
    measured pass.  The paper simulates MinneSPEC runs of millions of
    instructions where predictor training is amortized to nothing; the
    reproduction's traces are short samples, so warm-up models the same
    steady state instead of measuring cold-start aliasing.
    """
    executor = FunctionalExecutor(program, max_instructions=max_instructions)
    trace = executor.trace()
    n = len(trace)

    stats = WorkloadStats(
        dynamic_instructions=n,
        branches=executor.stats.dynamic_branches,
        loads=executor.stats.loads,
        stores=executor.stats.stores,
    )

    mispredicted: Set[int] = set()
    load_latency: List[Optional[int]] = [None] * n
    ifetch_extra = [0] * n
    hierarchy = MemoryHierarchy(memory)

    if perfect:
        l1_hit = hierarchy.config.l1d_latency
        for seq, inst in enumerate(trace.inst):
            if inst.is_load:
                load_latency[seq] = l1_hit
    else:
        # The predictor and the caches share no state, so each takes its
        # own pass: the predictor over the branches alone (a branch is
        # the only trace entry with an outcome), the caches over the
        # whole trace.
        branches = [(seq, pc, taken) for seq, pc, taken
                    in zip(count(), trace.pc, trace.taken)
                    if taken is not None]
        branch_predictor = make_predictor(predictor)
        predict = branch_predictor.predict
        update = branch_predictor.update
        for _ in range(max(0, warmup_passes)):
            for _, pc, taken in branches:
                predict(pc)
                update(pc, taken)
        for seq, pc, taken in branches:
            if predict(pc) != taken:
                mispredicted.add(seq)
            update(pc, taken)

        previous_line = -1
        line_bytes = hierarchy.config.line_bytes
        l1i_latency = hierarchy.config.l1i_latency
        instruction_fetch = hierarchy.instruction_fetch
        data_access = hierarchy.data_access
        for seq, pc, addr, inst in zip(count(), trace.pc, trace.mem_addr,
                                       trace.inst):
            line = pc // line_bytes
            if line != previous_line:
                extra = instruction_fetch(pc) - l1i_latency
                if extra > 0:
                    ifetch_extra[seq] = extra
                previous_line = line
            if addr is not None:
                if inst.opcode.is_load:
                    load_latency[seq] = data_access(addr)
                else:
                    data_access(addr)

    # A perfect front end leaves these at zero: nothing was predicted or
    # accessed.
    stats.mispredicts = len(mispredicted)
    stats.l1d_miss_rate = hierarchy.l1d.stats.miss_rate
    stats.l1i_miss_rate = hierarchy.l1i.stats.miss_rate
    return PreparedWorkload(
        name=program.name,
        program=program,
        trace=trace,
        mispredicted=mispredicted,
        load_latency=load_latency,
        ifetch_extra=ifetch_extra,
        stats=stats,
    )
