"""CPI stall attribution: where every empty retirement slot goes.

The paper argues braid execution units recover most out-of-order IPC, but
aggregate counters cannot show *where* the residual cycles go.  This module
implements per-cycle accounting of retirement-slot usage in the style of
CG-OoO / top-down CPI stacks: each cycle contributes ``issue_width``
retirement slots, used slots are charged to ``base``, and every empty slot
is charged to exactly one cause from a fixed taxonomy by inspecting the
end-of-cycle machine state (ROB head, fetch state, this cycle's dispatch
stalls).  Summed over a run, the components reconstruct the cycle count
exactly, so a CPI stack is just ``component / instructions`` per cause.

The classification is deliberately head-of-ROB-centric: in-order
retirement means an empty retire slot is always explained by whatever the
oldest in-flight instruction (or the empty front end) is waiting on.

``classify_stall`` (state only) also labels :class:`~repro.sim.core.
SimulationHang` diagnostics: an idle window's state is frozen, so a single
classification covers the whole window.
"""

from __future__ import annotations

from typing import Dict

#: The fixed taxonomy, in display order.  ``base`` counts used retirement
#: slots (cycles of pure retirement work); everything else is empty slots.
STALL_CAUSES = (
    "base",
    "fetch_limited",
    "data_dependence",
    "memory",
    "structural_rob",
    "structural_lsq",
    "structural_fifo",
    "structural_scheduler",
    "branch_flush",
    "drain",
)

FETCH_LIMITED = "fetch_limited"
DATA_DEPENDENCE = "data_dependence"
MEMORY = "memory"
STRUCTURAL_ROB = "structural_rob"
STRUCTURAL_LSQ = "structural_lsq"
STRUCTURAL_SCHEDULER = "structural_scheduler"
BRANCH_FLUSH = "branch_flush"
DRAIN = "drain"


def empty_stack() -> Dict[str, float]:
    """A zeroed accumulator covering the whole taxonomy."""
    return {cause: 0.0 for cause in STALL_CAUSES}


def _classify_empty_rob(core, cycle: int) -> str:
    """Why is nothing in flight?  (End-of-cycle state, ROB empty.)"""
    if core._fetch_blocked or cycle < core._fetch_resume:
        # An unresolved mispredict blocks fetch, then the redirect bubble
        # holds it off for front_end.redirect more cycles.
        return BRANCH_FLUSH
    if core._next_fetch >= core._fetch_limit and not core._fetch_buffer:
        # Trace (or sampling-window fetch limit) exhausted: the tail is
        # draining, not stalled.
        return DRAIN
    return FETCH_LIMITED


def classify_cycle(
    core,
    cycle: int,
    rob_cap_delta: int = 0,
    structure_delta: int = 0,
) -> str:
    """One taxonomy label for this cycle's empty retirement slots.

    ``rob_cap_delta`` / ``structure_delta`` are this cycle's increments of
    the ``in_flight_cap`` / ``structure_full`` dispatch-stall counters;
    they split "head is executing" into the structural back-pressure cases
    (ROB full, LSQ full, scheduler/FIFO full) that an executing head
    otherwise hides.  Pass zero (the default) for state-only
    classification — correct for skipped idle cycles, where no stage ran
    and therefore no dispatch stall was charged.
    """
    rob = core._rob
    if not rob:
        return _classify_empty_rob(core, cycle)
    head = rob[0]
    if head.issue_cycle is not None:
        # Head is executing (or completed this cycle; it retires next).
        if (
            head.is_load
            and head.complete_cycle is not None
            and head.complete_cycle - head.issue_cycle > core.l1d_latency
        ):
            return MEMORY
        if rob_cap_delta:
            return STRUCTURAL_ROB
        if structure_delta:
            if core._mem_in_flight >= core.config.lsq_entries:
                return STRUCTURAL_LSQ
            return core.dispatch_block_cause()
        return DATA_DEPENDENCE
    if head.pending:
        return DATA_DEPENDENCE
    # Head is ready but could not issue: contention for the issue
    # structure, unless a load head is blocked on memory resources.
    if head.is_load and core._outstanding_misses >= core.config.mshrs:
        return MEMORY
    return STRUCTURAL_SCHEDULER


def classify_stall(core, cycle: int) -> str:
    """State-only classification (no per-cycle stall deltas).

    Used for :class:`~repro.sim.core.SimulationHang`
    diagnostics, where the machine state is frozen and a single label
    covers every cycle of the window.
    """
    return classify_cycle(core, cycle)
