"""Replay facts cost a few position-indexed lists, not dependence rows.

The timing cores resolve producers through a 128-slot rename table, so
:class:`repro.sim.workload.ReplayFacts` keeps only the flattened oracles,
the store conflicts and one scoreboard form per static instruction.
Their heap, measured with tracemalloc while the cyclic collector is off
(as it is whenever phase one runs), stays near four list pointers per
trace entry; per-entry producer rows cost about four times that.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.core import braidify
from repro.sim import ooo_config
from repro.sim.core import WInst
from repro.sim.run import build_core
from repro.sim.workload import SCOREBOARD_SLOTS, prepare_workload
from repro.workloads import build_program
from repro.workloads.suite import QUICK_BENCHMARKS

#: ceiling on the replay facts' heap per trace entry
MAX_BYTES_PER_ENTRY = 48


@pytest.mark.parametrize("braided", (False, True),
                         ids=("original", "braided"))
@pytest.mark.parametrize("name", QUICK_BENCHMARKS)
def test_replay_facts_fit_the_budget(name, braided):
    program = build_program(name)
    if braided:
        program = braidify(program).translated
    workload = prepare_workload(program)
    workload.decode()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        workload.replay()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert used <= MAX_BYTES_PER_ENTRY * len(workload), \
        f"{used / len(workload):.1f} B per entry"


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
