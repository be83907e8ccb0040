"""Phase one costs a few pointers per trace entry, not objects.

A prepared workload's trace is one list per field
(:class:`repro.sim.functional.Trace`): six pointers an entry, plus a
memory address int where there is one.  One ``DynInst`` object per
entry cost more than twice that, and no timing core builds one during
an exact run: fetch reads the columns.  The timing cores resolve
producers through a 128-slot rename table from the scoreboard form on
each static instruction's decode facts, and read the latency oracles
from the workload, so :class:`repro.sim.workload.ReplayFacts` keeps only
the memory words and the store conflicts.  Their heap, measured with
tracemalloc while the cyclic collector is off (as it is whenever phase
one runs), stays near two list pointers per trace entry; per-entry
producer rows cost about eight times that.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import braidify
from repro.sim import functional, ooo_config
from repro.sim.core import WInst
from repro.sim.registry import core_registry
from repro.sim.run import build_core
from repro.sim.workload import SCOREBOARD_SLOTS, prepare_workload
from repro.workloads import build_program
from repro.workloads.suite import QUICK_BENCHMARKS

#: ceiling on the replay facts' heap per trace entry: two list pointers
#: and a memory word int where there is one come to 16-17 B on the
#: quick benchmarks
MAX_BYTES_PER_ENTRY = 24
#: ceiling on a prepared trace's heap per entry: six list pointers and
#: the list growth slack come to ~51 B, memory address ints to 3-7 B
#: more on the quick benchmarks
MAX_TRACE_BYTES_PER_ENTRY = 64


def quick_program(name: str, braided: bool):
    program = build_program(name)
    return braidify(program).translated if braided else program


@pytest.mark.parametrize("braided", (False, True),
                         ids=("original", "braided"))
@pytest.mark.parametrize("name", QUICK_BENCHMARKS)
def test_trace_fits_the_budget(name, braided):
    """What freeing a prepared workload's trace gives back, per entry."""
    program = quick_program(name, braided)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        trace = prepare_workload(program).trace
        entries = len(trace)
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        used = with_trace - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert used <= MAX_TRACE_BYTES_PER_ENTRY * entries, \
        f"{used / entries:.1f} B per entry"


#: the row type, held here because the test below patches the module's
ROW = functional.DynInst


def live_rows() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, ROW))


@pytest.mark.parametrize("key", list(core_registry()))
def test_exact_run_builds_no_rows(key, monkeypatch):
    """Fetch and every later stage read the trace columns: an exact run
    builds no ``DynInst``, and the workload it ran holds none."""
    descriptor = core_registry()[key]
    before = live_rows()
    workload = prepare_workload(quick_program("gcc", descriptor.braided))
    core = build_core(workload, descriptor.config_factory(8))
    built = []

    class CountedRow(ROW):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(functional, "DynInst", CountedRow)
    result = core.run()
    assert result.instructions == len(workload.trace)
    assert built == []
    assert live_rows() == before


@pytest.mark.parametrize("braided", (False, True),
                         ids=("original", "braided"))
@pytest.mark.parametrize("name", QUICK_BENCHMARKS)
def test_replay_facts_fit_the_budget(name, braided):
    workload = prepare_workload(quick_program(name, braided))
    used = replay_heap(workload)
    assert used <= MAX_BYTES_PER_ENTRY * len(workload), \
        f"{used / len(workload):.1f} B per entry"


def replay_heap(workload) -> int:
    """The heap that building ``workload``'s replay facts allocates, its
    decode facts already built."""
    workload.decode()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload.replay()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


def live_winsts() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is WInst)


@pytest.mark.parametrize("traced", (False, True), ids=("plain", "traced"))
def test_retired_producers_are_released(traced):
    """After an exact 8-wide ooo run on swim, the core keeps only the
    rename table's producers alive; a retired instruction holding its
    own producers would keep whole dependence chains.  A traced core
    keeps them: stall attribution reads ``deps`` from its records."""
    workload = prepare_workload(build_program("swim"))
    baseline = live_winsts()
    core = build_core(workload, ooo_config(8))
    if traced:
        core.trace_log = []
    core.run()
    live = live_winsts() - baseline
    if traced:
        assert live == len(core.trace_log) == len(workload.trace)
    else:
        assert 0 < live <= SCOREBOARD_SLOTS
