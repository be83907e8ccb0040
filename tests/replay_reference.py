"""Reference scoreboard walk: the per-entry replay arrays, rebuilt.

The timing cores resolve producers through a rename table at dispatch
and keep no per-entry dependence rows.  This module rebuilds those rows
the way a whole-trace scoreboard pass defines them, so tests can check
what dispatch captures against an independent statement of the rule:

* ``deps[i]`` — ``((producer_index, internal), ...)`` for every register
  source of ``i`` with an in-trace producer: the last writer of the
  source's scoreboard slot in trace order, with internal slots cleared
  at every braid start;
* ``arch_reads[i]`` — external sources with no in-trace producer;
* ``insertable[i]`` — 1 if some later row references ``i``;
* ``evictions[i]`` — producers whose last referenced binding instruction
  ``i`` overwrites or clears (``None`` when there are none);

plus the workload's two latency oracles (``ifetch_extra``,
``load_latency``) and the two arrays
:class:`repro.sim.workload.ReplayFacts` keeps (``mem_word``,
``store_conflict``).

The scoreboard slots are stated here from each :class:`Instruction`
(:func:`reference_form`), not taken from the decode facts under test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.isa.registers import RegClass, Space

#: the eight arrays, in the order the phase-one pin digests them
ARRAYS = (
    "deps", "arch_reads", "insertable", "evictions",
    "ifetch_extra", "load_latency", "mem_word", "store_conflict",
)
#: 32 integer then 32 floating-point external slots, then the same 64
#: again for the braid-internal file
INTERNAL_OFFSET = 64
SLOTS = 2 * INTERNAL_OFFSET


def reference_slot(reg, internal: bool) -> Tuple[int, bool]:
    """``(scoreboard slot, internal)`` of ``reg`` in one register file."""
    slot = reg.index + (32 if reg.rclass is RegClass.FP else 0)
    return slot + (INTERNAL_OFFSET if internal else 0), internal


def reference_form(inst) -> Tuple[Tuple, Tuple]:
    """``(sources, writes)`` of one instruction, each a tuple of
    ``(scoreboard slot, internal)``: every source but the zero register,
    in the bank its braid annotation names, then the destination in
    each bank its annotation writes, internal first."""
    annot = inst.annot
    sources = tuple(
        reference_slot(reg, annot.src_space(position) is Space.INTERNAL)
        for position, reg in enumerate(inst.srcs) if not reg.is_zero
    )
    written = inst.writes()
    writes = []
    if written is not None and annot.dest_internal:
        writes.append(reference_slot(written, True))
    if written is not None and annot.dest_external:
        writes.append(reference_slot(written, False))
    return sources, tuple(writes)


def reference_replay(workload) -> Dict[str, list]:
    """The eight replay arrays of ``workload``, by name."""
    trace = workload.trace
    n = len(trace)
    forms = {inst: reference_form(inst) for inst in dict.fromkeys(trace.inst)}

    mem: List[Optional[int]] = [None] * n
    store_conflict: List[Optional[int]] = [None] * n
    last_store: Dict[int, int] = {}
    deps: List[Tuple] = [()] * n
    arch = [0] * n
    referenced = bytearray(n)
    evictions: List[Optional[Tuple[int, ...]]] = [None] * n
    #: producer index -> number of scoreboard slots still binding it
    bindings = bytearray(n)
    #: scoreboard slot -> ``(trace position, internal)`` of its last writer
    last: List[Optional[Tuple[int, bool]]] = [None] * SLOTS
    internal_live: List[int] = []

    def evict(i: int, producer: int) -> None:
        bindings[producer] -= 1
        if not bindings[producer] and referenced[producer]:
            dying = evictions[i]
            evictions[i] = (producer,) if dying is None else dying + (producer,)

    for dyn in trace:
        i = dyn.seq
        sources, writes = forms[dyn.inst]
        addr = dyn.mem_addr
        if addr is not None:
            word = addr & ~0x7 if addr & 0x7 else addr
            mem[i] = word
            if dyn.inst.is_load:
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

        if dyn.inst.annot.start and internal_live:
            for slot in internal_live:
                producer = last[slot][0]
                last[slot] = None
                evict(i, producer)
            internal_live.clear()
        for slot, internal in writes:
            previous = last[slot]
            last[slot] = (i, internal)
            bindings[i] += 1
            if previous is None:
                if internal:
                    internal_live.append(slot)
            else:
                evict(i, previous[0])

    return {
        "deps": deps,
        "arch_reads": arch,
        "insertable": referenced,
        "evictions": evictions,
        "ifetch_extra": list(workload.ifetch_extra),
        "load_latency": list(workload.load_latency),
        "mem_word": mem,
        "store_conflict": store_conflict,
    }
