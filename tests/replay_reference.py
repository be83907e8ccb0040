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

plus the four arrays :class:`repro.sim.workload.ReplayFacts` keeps
(``ifetch_extra``, ``load_latency``, ``mem_word``, ``store_conflict``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.sim.workload import SCOREBOARD_SLOTS, _scoreboard_form

#: the eight arrays, in the order the phase-one pin digests them
ARRAYS = (
    "deps", "arch_reads", "insertable", "evictions",
    "ifetch_extra", "load_latency", "mem_word", "store_conflict",
)


def reference_replay(workload) -> Dict[str, list]:
    """The eight replay arrays of ``workload``, by name."""
    trace = workload.trace
    decoded = workload.decode()
    n = len(trace)
    ifetch = [0] * n
    for seq, extra in workload.ifetch_extra.items():
        ifetch[seq] = extra
    loads: List[Optional[int]] = [None] * n
    for seq, value in workload.load_latency.items():
        loads[seq] = value

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
    last: List[Optional[Tuple[int, bool]]] = [None] * SCOREBOARD_SLOTS
    internal_live: List[int] = []

    def evict(i: int, producer: int) -> None:
        bindings[producer] -= 1
        if not bindings[producer] and referenced[producer]:
            dying = evictions[i]
            evictions[i] = (producer,) if dying is None else dying + (producer,)

    for dyn, facts in zip(trace, decoded):
        i = dyn.seq
        sources, writes = _scoreboard_form(facts)
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
        "ifetch_extra": ifetch,
        "load_latency": loads,
        "mem_word": mem,
        "store_conflict": store_conflict,
    }
