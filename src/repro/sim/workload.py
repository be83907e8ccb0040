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
from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.program import Program
from ..isa.registers import Space
from ..uarch.branchpred import make_predictor
from ..uarch.cache import MemoryHierarchy, MemoryHierarchyConfig
from .functional import DynInst, FunctionalExecutor
from .gcpause import collector_paused


class DecodedInst:
    """Decode-stage facts of one static instruction, computed once.

    The timing cores replay the same trace against many machine
    configurations; everything here depends only on the instruction word
    (opcode, operands, braid annotation bits), so it is extracted once per
    static instruction instead of being re-derived from attribute chains on
    every dynamic dispatch of every sweep point.
    """

    __slots__ = (
        "is_load", "is_store", "is_branch", "latency", "start",
        "dest_external", "dest_internal", "written_key",
        "src_keys", "ext_src_ops", "ext_dest_ops",
    )

    def __init__(self, inst: Instruction) -> None:
        annot = inst.annot
        self.is_load = inst.is_load
        self.is_store = inst.is_store
        self.is_branch = inst.is_branch
        self.latency = inst.opcode.latency
        self.start = annot.start
        written = inst.writes()
        self.dest_external = written is not None and annot.dest_external
        self.dest_internal = written is not None and annot.dest_internal
        self.written_key = (
            (written.rclass.value, written.index) if written is not None else None
        )
        #: ((register key, reads internal file), ...) for each non-zero source
        src_keys = []
        ext_src_ops = 0
        for position, reg in enumerate(inst.srcs):
            if reg.is_zero:
                continue
            internal = annot.src_space(position) is Space.INTERNAL
            src_keys.append(((reg.rclass.value, reg.index), internal))
            if not internal:
                ext_src_ops += 1
        self.src_keys: Tuple = tuple(src_keys)
        # Rename bandwidth accounting: only external operands are renamed.
        self.ext_src_ops = ext_src_ops
        self.ext_dest_ops = 1 if self.dest_external else 0

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)


def decode_trace(trace: List[DynInst]) -> List[DecodedInst]:
    """Per-trace-entry decode facts, shared across repeats of a static inst."""
    memo: Dict[Instruction, DecodedInst] = {}
    decoded: List[DecodedInst] = []
    for dyn in trace:
        inst = dyn.inst
        facts = memo.get(inst)
        if facts is None:
            facts = memo[inst] = DecodedInst(inst)
        decoded.append(facts)
    return decoded


class ReplayFacts:
    """Config-invariant phase-two replay arrays, indexed by trace position.

    Everything here is a pure function of the trace and its decode facts,
    so it is computed once per workload and shared read-only by every
    timing core replaying it — including every config of a sweep
    simulated against the same workload.  The arrays replace per-dispatch scoreboard
    walks and per-instruction dict probes in the timing cores' hot loop:

    * ``deps[i]`` — static dependence row: ``((producer_index, internal),
      ...)`` for every register source of instruction ``i`` that has an
      in-trace producer, under exactly the semantics the dynamic
      scoreboards implemented (last writer in trace order, separate
      external/internal namespaces, internal bindings dying at braid
      start bits).  Dispatch resolves each row against a small live
      table of in-flight producers instead of re-deriving it per config.
    * ``arch_reads[i]`` — external sources with *no* in-trace producer
      (architectural-file reads).  Sources whose producer retired before
      a sampling gap are added at resolve time.
    * ``insertable[i]`` — 1 if some later instruction's row references
      ``i``; only those producers enter the live table.
    * ``evictions[i]`` — producer indices whose last scoreboard binding
      instruction ``i`` overwrites (or clears, for a braid start); the
      live table drops them when ``i`` dispatches, keeping it bounded by
      the register namespace instead of growing with the trace.
    * ``ifetch_extra[i]`` / ``load_latency[i]`` / ``mem_word[i]`` — the
      phase-one dict oracles flattened to position-indexed lists
      (``None`` where absent) for O(1) un-hashed access.
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

    __slots__ = (
        "deps", "arch_reads", "insertable", "evictions",
        "ifetch_extra", "load_latency", "mem_word", "store_conflict",
        "analytic_retire",
    )

    def __init__(self, deps, arch_reads, insertable, evictions,
                 ifetch_extra, load_latency, mem_word, store_conflict) -> None:
        self.deps = deps
        self.arch_reads = arch_reads
        self.insertable = insertable
        self.evictions = evictions
        self.ifetch_extra = ifetch_extra
        self.load_latency = load_latency
        self.mem_word = mem_word
        self.store_conflict = store_conflict
        #: lazily computed analytic retirement-time curve (see
        #: :func:`repro.sim.sampling._analytic_retire`); config-invariant
        #: like everything else here, so one walk serves every sweep point
        self.analytic_retire = None


#: scoreboard slot of a register key; the internal file's slots follow
#: the external file's 64, so one flat table holds both namespaces
_EXTERNAL_SLOT = {("int", index): index for index in range(32)}
_EXTERNAL_SLOT.update({("fp", index): 32 + index for index in range(32)})
_INTERNAL_BASE = 64


def _scoreboard_form(facts: DecodedInst) -> Tuple:
    """``(sources, writes)`` of one static instruction, each a tuple of
    ``(scoreboard slot, internal)``."""
    def slot(key, internal: bool) -> Tuple[int, bool]:
        return _EXTERNAL_SLOT[key] + (_INTERNAL_BASE if internal else 0), internal

    sources = tuple(slot(key, internal) for key, internal in facts.src_keys)
    writes = []
    if facts.dest_internal:
        writes.append(slot(facts.written_key, True))
    if facts.dest_external:
        writes.append(slot(facts.written_key, False))
    return sources, tuple(writes)


def build_replay(trace: List[DynInst], decoded: List[DecodedInst],
                 load_latency: Dict[int, int],
                 ifetch_extra: Dict[int, int]) -> ReplayFacts:
    """Walk the trace once, building every :class:`ReplayFacts` array.

    The builder mirrors the scoreboard discipline of the dispatch stage:
    sources read the tables *before* the instruction's own start-clear and
    destination writes take effect, and consumers always resolve before
    the overwriting writer dispatches (dispatch is in trace order), so
    evict-at-overwrite is observationally identical to the dynamic maps.
    A producer whose last binding dies can have no later reader, so
    whether it was ever read is already final there.

    Every array is indexed by trace position, and the bindings, eviction
    tuples and store positions hold the row's own ``seq`` int rather
    than a fresh one; that is sound because the executor numbers rows
    from 0 in trace order (the timing cores index these arrays by
    ``seq`` too).  An aligned address is its own memory word.
    """
    n = len(trace)
    assert not trace or (trace[0].seq == 0 and trace[-1].seq == n - 1), \
        "trace seq must equal trace position"
    ifetch = [0] * n
    for seq, extra in ifetch_extra.items():
        ifetch[seq] = extra
    loads: List[Optional[int]] = [None] * n
    for seq, value in load_latency.items():
        loads[seq] = value

    mem: List[Optional[int]] = [None] * n
    store_conflict: List[Optional[int]] = [None] * n
    #: memory word -> trace position of its youngest store so far
    last_store: Dict[int, int] = {}
    deps: List[Tuple] = [()] * n
    arch = [0] * n
    referenced = bytearray(n)
    evictions: List[Optional[Tuple[int, ...]]] = [None] * n
    #: producer index -> number of scoreboard slots still binding it
    bindings = bytearray(n)
    #: scoreboard slot -> ``(trace position, internal)`` of its last
    #: writer: the dependence-row entry every reader of the slot shares
    last: List[Optional[Tuple[int, bool]]] = [None] * (2 * _INTERNAL_BASE)
    #: bound internal slots, in binding order (cleared at braid starts)
    internal_live: List[int] = []
    forms: Dict[DecodedInst, Tuple] = {}

    for dyn, facts in zip(trace, decoded):
        i = dyn.seq
        form = forms.get(facts)
        if form is None:
            form = forms[facts] = _scoreboard_form(facts)
        sources, writes = form
        addr = dyn.mem_addr
        if addr is not None:
            word = addr & ~0x7 if addr & 0x7 else addr
            mem[i] = word
            if facts.is_load:
                store_conflict[i] = last_store.get(word)
            else:
                last_store[word] = i
        if sources:
            row = []
            plain_reads = 0
            for slot, internal in sources:
                binding = last[slot]
                if binding is None:
                    if not internal:
                        plain_reads += 1
                else:
                    row.append(binding)
                    referenced[binding[0]] = 1
            if row:
                deps[i] = tuple(row)
            arch[i] = plain_reads

        if facts.start and internal_live:
            # Internal values never cross braid boundaries.
            for slot in internal_live:
                producer = last[slot][0]
                last[slot] = None
                bindings[producer] -= 1
                if not bindings[producer] and referenced[producer]:
                    dying = evictions[i]
                    evictions[i] = (producer,) if dying is None else dying + (producer,)
            internal_live.clear()
        for slot, internal in writes:
            previous = last[slot]
            last[slot] = (i, internal)
            bindings[i] += 1
            if previous is None:
                if internal:
                    internal_live.append(slot)
                continue
            producer = previous[0]
            bindings[producer] -= 1
            if not bindings[producer] and referenced[producer]:
                dying = evictions[i]
                evictions[i] = (producer,) if dying is None else dying + (producer,)

    return ReplayFacts(
        deps=deps,
        arch_reads=arch,
        insertable=referenced,
        evictions=evictions,
        ifetch_extra=ifetch,
        load_latency=loads,
        mem_word=mem,
        store_conflict=store_conflict,
    )


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
    """Everything a timing core needs to replay one benchmark."""

    name: str
    program: Program
    trace: List[DynInst]
    #: sequence numbers of mispredicted branches
    mispredicted: Set[int]
    #: per-load total data-cache latency (seq -> cycles)
    load_latency: Dict[int, int]
    #: per-instruction *extra* fetch latency beyond the L1I hit time
    ifetch_extra: Dict[int, int]
    stats: WorkloadStats = field(default_factory=WorkloadStats)
    #: lazily computed decode facts, aligned with ``trace`` (see :meth:`decode`)
    decoded: Optional[List[DecodedInst]] = field(
        default=None, repr=False, compare=False
    )
    #: lazily computed replay arrays (see :meth:`replay`); dropped from
    #: pickles — they rebuild in one linear pass and would triple the
    #: artifact-cache footprint
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
        """Replay arrays shared by every timing core driving this workload."""
        if self.replay_facts is None:
            with collector_paused():
                self.replay_facts = build_replay(
                    self.trace, self.decode(), self.load_latency,
                    self.ifetch_extra,
                )
        return self.replay_facts

    def __getstate__(self):
        # The trace pickles as one list per DynInst field: lists of
        # plain ints and memoized references take a third of the bytes
        # of one state dict per row, and load in half the time.
        state = self.__dict__.copy()
        del state["replay_facts"]
        trace = state.pop("trace")
        state["trace_columns"] = tuple(
            list(map(attrgetter(name), trace)) for name in DynInst.__slots__
        )
        return state

    def __setstate__(self, state):
        columns = state.pop("trace_columns", None)
        if columns is None:
            raise ValueError("workload pickle has no trace columns "
                             "(an older artifact format)")
        seq, inst, block, pc, taken, next_pc, mem_addr = columns
        # Unpickling makes one int object per occurrence; one dict
        # interns the addresses back, so every instance of a static
        # instruction shares its pc and next_pc as in a fresh trace.
        intern = {}.setdefault
        state["trace"] = list(map(
            DynInst, seq, inst, block, map(intern, pc, pc), taken,
            map(intern, next_pc, next_pc), mem_addr,
        ))
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
    trace = list(executor.trace())

    stats = WorkloadStats(
        dynamic_instructions=len(trace),
        branches=executor.stats.dynamic_branches,
        loads=executor.stats.loads,
        stores=executor.stats.stores,
    )

    mispredicted: Set[int] = set()
    load_latency: Dict[int, int] = {}
    ifetch_extra: Dict[int, int] = {}

    hierarchy = MemoryHierarchy(memory)
    l1_hit = hierarchy.config.l1d_latency

    if perfect:
        for dyn in trace:
            if dyn.is_load:
                load_latency[dyn.seq] = l1_hit
        return PreparedWorkload(
            name=program.name,
            program=program,
            trace=trace,
            mispredicted=mispredicted,
            load_latency=load_latency,
            ifetch_extra=ifetch_extra,
            stats=stats,
        )

    # The predictor and the caches share no state, so each takes its own
    # pass: the predictor over the branches alone (a branch is the only
    # trace entry with an outcome), the caches over the whole trace.
    branches = [(dyn.seq, dyn.pc, dyn.taken) for dyn in trace
                if dyn.taken is not None]
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
    for dyn in trace:
        line = dyn.pc // line_bytes
        if line != previous_line:
            extra = instruction_fetch(dyn.pc) - l1i_latency
            if extra > 0:
                ifetch_extra[dyn.seq] = extra
            previous_line = line
        addr = dyn.mem_addr
        if addr is not None:
            if dyn.inst.opcode.is_load:
                load_latency[dyn.seq] = data_access(addr)
            else:
                data_access(addr)

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
