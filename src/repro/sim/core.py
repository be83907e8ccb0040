"""The shared pipeline kernel every execution-core paradigm plugs into.

The :class:`TimingCore` base implements everything the paper holds constant
across paradigms — fetch (width-limited, ≤3 branches/cycle, I-cache and
misprediction bubbles), decode/allocate/rename bandwidth, register-file
entry allocation, dependence tracking, the load/store queue, writeback port
arbitration, bypass-network lifetime/bandwidth, checkpoints, and in-order
retirement — plus the paradigm-independent machinery layered on since:
the event-driven kernel and its ``_next_event``/``issue_horizon``
contract, the invariant/fault/trace hook family, and the resume /
drain / fast-forward seams the sampled and interval engines compose.
Subclasses supply only the execution-core behaviour the paper varies:
where a dispatched instruction waits (:meth:`TimingCore.accept`) and how
ready instructions are selected for issue (:meth:`TimingCore.issue_stage`)
— usually by composing the shared FIFO-window helpers
(:meth:`TimingCore.issue_in_order`, :meth:`TimingCore.issue_skipahead`
and the active-window index behind
:meth:`TimingCore.window_issue_horizon`) rather than re-implementing the
scan — and declare their cross-layer contract (fault structures and
injectors, complexity-model terms) as class attributes the registry
(:mod:`repro.sim.registry`), fault layer, and analyses consume.

Per-cycle stage order is ``complete → retire → issue → dispatch → fetch``,
so a value completing in cycle *t* is bypassable by an issue in cycle *t*,
and an instruction never moves through two stages in one cycle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..uarch.bypass import BypassNetwork
from ..uarch.checkpoint import CheckpointManager
from ..uarch.funit import FunctionalUnitPool
from ..uarch.lsq import LoadStoreQueue
from .config import MachineConfig
from .functional import DynInst, Trace
from .results import SimResult, StallCounters
from .workload import (
    INTERNAL_SLOTS, SCOREBOARD_SLOTS, DecodedInst, PreparedWorkload,
)


class SimulationError(RuntimeError):
    """Raised when a simulation wedges (exceeds the cycle safety cap)."""


#: ``WInst.issue_wake`` sentinel: the instruction is parked on an older
#: unexecuted store's waiter list and has no computable wake cycle — the
#: store's own issue (an event some other publisher already covers) will
#: rewrite the wake to the store's completion cycle.  Horizon publishers
#: treat a parked candidate like a pending one (completion-driven).
PARKED = 1 << 62


def flip_bit(value: int, bit: int) -> int:
    """Single-event-upset primitive shared by the per-paradigm fault
    injectors (:attr:`TimingCore.fault_injectors`) and the common ones
    in :mod:`repro.faults.inject`."""
    return value ^ (1 << bit)


class SimulationHang(SimulationError):
    """Retirement stopped advancing for ``max_idle_cycles`` straight cycles.

    Unlike the coarse ``max_cycles`` safety cap (a whole-run budget that a
    wedged core only hits after minutes of silent spinning), this watchdog
    fires as soon as *no instruction retires* for the configured window and
    carries a diagnostic snapshot: the cycle, the ROB head, and a summary
    of every in-flight population — enough to see *which* structure wedged
    without re-running under a debugger.  Fault-injection campaigns
    (:mod:`repro.faults`) rely on it to classify hangs deterministically.
    """

    def __init__(
        self,
        machine: str,
        benchmark: str,
        cycle: int,
        idle_cycles: int,
        retired: int,
        target: int,
        rob_head: str,
        in_flight: Dict[str, int],
        stall_cause: str = "unknown",
        stall_snapshot: Optional[Dict[str, int]] = None,
    ) -> None:
        self.machine = machine
        self.benchmark = benchmark
        self.cycle = cycle
        self.idle_cycles = idle_cycles
        self.retired = retired
        self.target = target
        self.rob_head = rob_head
        self.in_flight = dict(in_flight)
        #: stall-attribution label (repro.obs taxonomy) for the frozen
        #: idle window, and the window accounted under that label.  The
        #: machine state does not change during an idle window, so one
        #: classification covers all ``idle_cycles`` cycles of it.
        self.stall_cause = stall_cause
        self.stall_snapshot = dict(stall_snapshot or {stall_cause: idle_cycles})
        summary = ", ".join(f"{k}={v}" for k, v in self.in_flight.items())
        super().__init__(
            f"{machine} on {benchmark}: no retirement for {idle_cycles} "
            f"cycles (cycle {cycle}, retired {retired}/{target}, "
            f"waiting on {stall_cause}, ROB head {rob_head}; {summary})"
        )


#: cleared states of the rename table and of its internal half
_NO_PRODUCERS = (None,) * SCOREBOARD_SLOTS
_NO_INTERNALS = _NO_PRODUCERS[INTERNAL_SLOTS]


class WInst:
    """One in-flight dynamic instruction.

    It names its trace entry by position (``index``), kept apart from
    the ``seq`` tag because a fault may flip the tag.  The entry's
    :class:`~repro.sim.functional.DynInst` row is built only when
    something reads :attr:`dyn` (lockstep, exporters), and assigning
    ``dyn`` replaces it, as the ROB payload fault injector does.
    """

    __slots__ = (
        "trace", "index", "_dyn", "facts", "seq", "deps", "arch_reads",
        "waiters", "pending",
        "fetch_cycle", "dispatch_ready", "dispatch_cycle", "issue_cycle",
        "complete_cycle", "writeback_cycle", "done", "retired", "captured",
        "dest_external", "dest_internal", "latency", "start",
        "is_load", "is_store", "is_branch", "mispredicted", "mem_word",
        "cluster", "ext_src_ops", "ext_dest_ops", "retire_cycle",
        "issue_wake",
    )

    def __init__(self, trace: Trace, index: int, facts: DecodedInst,
                 fetch_cycle: int, dispatch_ready: int, mispredicted: bool,
                 mem_word: Optional[int]) -> None:
        self.trace = trace
        self.index = index
        self._dyn = None
        self.facts = facts
        self.seq = index
        #: ``(producer, internal)`` pairs; a list only once dispatch
        #: finds a source with a dispatched producer
        self.deps: Sequence[Tuple["WInst", bool]] = ()
        self.arch_reads = 0
        #: consumers waiting on this result; created by the first
        #: subscriber and dropped at completion
        self.waiters: Optional[List["WInst"]] = None
        self.pending = 0
        self.captured = False
        self.fetch_cycle = fetch_cycle
        self.dispatch_ready = dispatch_ready
        self.dispatch_cycle = -1
        self.issue_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None
        self.writeback_cycle: Optional[int] = None
        self.done = False
        self.retired = False
        self.retire_cycle: Optional[int] = None
        self.dest_external = facts.dest_external
        self.dest_internal = facts.dest_internal
        self.latency = facts.latency
        self.start = facts.start
        self.is_load = facts.is_load
        self.is_store = facts.is_store
        self.is_branch = facts.is_branch
        self.mispredicted = mispredicted
        self.mem_word = mem_word
        self.cluster = -1
        self.ext_src_ops = facts.ext_src_ops
        self.ext_dest_ops = facts.ext_dest_ops
        #: earliest cycle a failed issue attempt could possibly succeed
        #: (a certified lower bound published by try_issue's failure
        #: classification; 0 = unknown, retry every cycle; PARKED = waiting
        #: on an unexecuted store).  Head-scanning cores skip try_issue
        #: while ``cycle < issue_wake``; the skipped calls are exactly
        #: calls that would have failed without touching any exported
        #: counter, so timing and fingerprints are unchanged.
        self.issue_wake = 0

    @property
    def dyn(self) -> DynInst:
        """This instruction's trace row, built on first read."""
        if self._dyn is None:
            self._dyn = self.trace[self.index]
        return self._dyn

    @dyn.setter
    def dyn(self, row: DynInst) -> None:
        self._dyn = row

    def __repr__(self) -> str:
        def at(cycle: Optional[int]) -> str:
            return "-" if cycle is None or cycle < 0 else str(cycle)

        return (
            f"WInst(seq={self.seq} {self.dyn.inst.opcode.name}"
            f" f={self.fetch_cycle} d={at(self.dispatch_cycle)}"
            f" i={at(self.issue_cycle)} r={at(self.retire_cycle)})"
        )


class TimingCore:
    """Base class of every timing-core paradigm (see the module docstring).

    Concrete paradigms register a :class:`~repro.sim.registry.CoreDescriptor`
    and declare their cross-layer contract through the class attributes and
    classmethods below; the defaults describe a broadcast-wakeup machine, so
    a conventional out-of-order paradigm overrides almost nothing.
    """

    # ------------------------------------------------- declarative contract
    #
    # Consumed by repro.faults (injection), repro.analysis (complexity /
    # energy / AVF weights), and the registry's registration-time
    # validation.  Keeping these on the class — next to the structures they
    # describe — is what lets a new paradigm live in one file.

    #: paradigm-specific injectable structures beyond the common set
    #: (rob/regfile/lsq/checkpoints/branchpred, owned by repro.faults);
    #: every name must have a matching entry in :attr:`fault_injectors`
    fault_structures: Tuple[str, ...] = ()
    #: structure name -> ``injector(core, rng) -> Optional[str]`` for the
    #: structures in :attr:`fault_structures` (same calling convention as
    #: the common injectors in :mod:`repro.faults.inject`)
    fault_injectors: Dict[str, Callable] = {}
    #: False when the paradigm issues without renaming architectural
    #: registers (zero rename map-table ports in the complexity model)
    renames_registers = True
    #: True when a branch checkpoint must cover speculative register
    #: *values* beyond the architectural state (conventional merged /
    #: staging files); False when in-flight values are recoverable without
    #: checkpointing them (in-order, or the braid's internal values)
    checkpoints_value_entries = True

    @classmethod
    def fault_state_bits(cls, config: MachineConfig,
                         weights: Dict[str, int]) -> Dict[str, int]:
        """Storage bits of each paradigm-specific injectable structure.

        Keys must cover :attr:`fault_structures`; ``weights`` carries the
        analysis layer's per-entry bit constants (``scheduler_entry``,
        ``beu_fifo_entry``, ``value_width``) so the first-order hardware
        model stays in :mod:`repro.analysis.complexity` while the formula
        — which structures exist and how they scale — stays with the
        paradigm.  The default models one scheduler entry per window slot.
        """
        return {
            "scheduler": (
                config.clusters * config.cluster_entries
                * weights["scheduler_entry"]
            ),
        }

    @classmethod
    def scheduler_comparators(cls, config: MachineConfig) -> int:
        """Wakeup CAM comparators of the issue structure (complexity model).

        The default is full broadcast: every window entry compares both
        source tags against every result bus, every cycle.  FIFO-window
        paradigms override to 0 (readiness is checked only at heads);
        limited-wakeup paradigms scale by their examined-entry count.
        """
        return (
            config.clusters * config.cluster_entries * 2 * config.issue_width
        )

    @classmethod
    def wakeup_energy_entries(cls, config: MachineConfig) -> int:
        """Window entries one completing instruction's tag can touch
        (per-event wakeup energy model).  Broadcast reaches every entry;
        head-scanning paradigms override with their examined-entry count.
        """
        return config.clusters * config.cluster_entries

    #: Event-driven kernel switch.  True (the default) lets ``_run_until``
    #: jump from the current cycle straight to the next cycle at which any
    #: stage can act (see :meth:`_next_event` for the contract each
    #: structure honors).  Setting it False on an instance restores the
    #: strictly ticked loop; both modes are bit-identical in every
    #: architectural counter (tests/test_determinism.py pins this), so the
    #: flag exists for A/B benchmarking and as the reference semantics.
    event_kernel = True

    def __init__(self, workload: PreparedWorkload, config: MachineConfig) -> None:
        self.workload = workload
        self.config = config
        self.trace = workload.trace
        self.decoded = workload.decode()
        self.mispredicted = workload.mispredicted
        self.l1d_latency = config.memory.l1d_latency

        # Position-indexed phase-one facts, shared read-only: the latency
        # oracles and the replay facts (repro.sim.workload.ReplayFacts).
        self._ifetch_extra_row = workload.ifetch_extra
        self._load_latency_row = workload.load_latency
        replay = workload.replay()
        self._mem_word_row = replay.mem_word
        self._store_conflict_row = replay.store_conflict

        # Config facts hoisted out of the per-cycle path.  MachineConfig is
        # frozen, so these can never go stale.
        front = config.front_end
        self._front_depth = front.depth
        self._fetch_width = front.fetch_width
        self._branches_per_cycle = front.branches_per_cycle
        self._fetch_cap = front.fetch_buffer
        self._redirect_penalty = front.redirect
        self._alloc_width = front.alloc_width
        self._rename_src_budget = front.rename_src_ops
        self._rename_dest_budget = front.rename_dest_ops
        self._max_in_flight = config.max_in_flight
        self._lsq_entries = config.lsq_entries
        self._mshrs = config.mshrs
        self._rf_alloc_at_issue = config.rf_alloc_at_issue
        self._issue_width = config.issue_width

        self.rf = config.regfile.build()
        self.bypass = BypassNetwork(config.bypass_levels, config.bypass_width)
        #: bypass lifetime in cycles, or -1 for an unusable network — lets
        #: try_issue test coverage as ``cycle - visible <= _bypass_life``
        #: without a method call (BypassNetwork is built once, never swapped)
        self._bypass_life = (
            config.bypass_levels
            if config.bypass_levels > 0 and config.bypass_width > 0
            else -1
        )
        #: True when this core never adds inter-cluster forwarding delay
        #: (dep_delay is the base-class zero), letting the issue path skip
        #: one virtual call per external operand
        self._uniform_dep_delay = type(self).dep_delay is TimingCore.dep_delay
        #: True when the subclass actually observes readiness notifications
        #: (the base hook is a no-op, not worth a call per woken consumer)
        self._has_on_ready = type(self).on_ready is not TimingCore.on_ready
        self.lsq = LoadStoreQueue(forward_latency=self.l1d_latency)
        self.checkpoints = CheckpointManager(
            capacity=config.max_branches,
            state_words_per_checkpoint=64,
        )

        # Fetch state.  ``_fetch_limit`` is the trace index fetch stops at; a
        # full run leaves it at the trace length, the sampled-execution
        # engine (repro.sim.sampling) moves it window by window.
        self._next_fetch = 0
        self._fetch_limit = len(self.trace)
        self._fetch_buffer: deque = deque()
        self._fetch_blocked = False
        self._fetch_resume = 0

        # Rename table: scoreboard slot -> last dispatched writer (64
        # external slots, then 64 internal; see DecodedInst).
        # Dispatch resolves each source with one index into it; a braid
        # start clears the internal slots, as the BEU-local internal file
        # is cleared, and a sampling gap clears them all.
        self._producers: List[Optional[WInst]] = [None] * SCOREBOARD_SLOTS

        # Completion events, writeback queue, reorder buffer.
        self._events: List[Tuple[int, int, WInst]] = []
        self._miss_releases: List[Tuple[int, int]] = []
        self._outstanding_misses = 0
        self._mem_in_flight = 0
        self._pending_writeback: deque = deque()
        self._rob: deque = deque()

        self.stalls = StallCounters()
        self._issued_count = 0
        self._retired_count = 0
        #: failure classification of the most recent try_issue call:
        #: 0 = per-cycle resource or unknown (retry next cycle), a
        #: positive cycle = certified earliest-possible-success lower
        #: bound, -1 = blocked on an unexecuted older store (the entry is
        #: left in ``_issue_block_store`` for the caller to park on)
        self._issue_wake = 0
        self._issue_block_store = None
        #: dispatched-but-unissued instructions whose operands are all ready;
        #: while zero, issue_stage provably cannot act (see _skip_idle)
        self._ready_unissued = 0
        #: the last cycle whose dispatch stalled at the fetch-buffer head
        #: with nothing dispatched, the StallCounters field it charged,
        #: and whether the refusal came from accept() (see _run_until's
        #: stall-span jump)
        self._stall_cycle = -1
        self._stall_field = ""
        self._stall_accept = False
        # Active-window index of the FIFO-window paradigms (see
        # due_windows): a bitmask of the windows issue_stage must visit,
        # the ``(wake cycle, window)`` heap that makes a window due once
        # a certified issue_wake bound arrives, and the all-windows mask
        # (zero for cores without windows).
        self._windows_due = 0
        self._window_wakes: List[Tuple[int, int]] = []
        self._all_windows = 0
        #: set to a list before run() to record every dispatched WInst in
        #: program order (consumed by repro.sim.pipeview)
        self.trace_log = None

        # Hooks (repro.validate, repro.faults, repro.obs).  All default
        # to None; the run loop tests one local flag per executed cycle
        # and never calls a hook on a skipped cycle, so hooked runs
        # event-skip like unhooked ones.
        #: called as ``hook(winst, cycle)`` for every retired instruction
        self.retire_hook = None
        #: called as ``hook(old_index, new_index)`` on every fast_forward
        self.skip_hook = None
        #: called as ``hook(core, cycle)`` after the stages of every
        #: executed cycle.  A skipped cycle mutates nothing but the stall
        #: counters, so checks on executed cycles cover every cycle.
        self.invariant_hook = None
        #: fault-injection hook (repro.faults): called as ``hook(core,
        #: cycle)`` before the stages of every executed cycle, so an
        #: injected bit flip is visible to every stage of that cycle.
        self.fault_hook = None
        #: the cycle from which the loop single-steps: it never skips
        #: past it, and from it on executes every cycle and visits every
        #: issue window, exactly as the ticked loop does.  A fault session
        #: publishes its injection cycle here, so the injector sees every
        #: cycle from that one on and a flipped structure is always
        #: scanned in full.
        self.fault_cycle = PARKED
        #: observability hook (repro.obs): called as ``hook(core, cycle)``
        #: after the stages of every executed cycle, so the observer sees
        #: end-of-cycle state (what retired, what stalled).
        self.trace_hook = None
        #: called as ``hook(core, first, length, stall)`` before every
        #: skipped span: ``length`` cycles from ``first`` on were skipped
        #: with the machine frozen, and each charged one to the
        #: StallCounters field ``stall`` (None for an idle span).  The
        #: observer charges the span exactly as single-stepping would.
        self.span_hook = None

    # ----------------------------------------------------------------- hooks
    def accept(self, winst: WInst, cycle: int) -> bool:
        """Place a dispatching instruction into the execution core.

        Return False to stall dispatch this cycle (structure full).  A
        refusal must change nothing but counters, and must depend only on
        state that changes when an instruction retires, issues or
        completes: the run loop skips spans of cycles in which the same
        head would be refused again, and charges the refusals of the
        whole span at once (the ``structure_full`` stall counter, plus
        :meth:`charge_accept_stalls` for the paradigm's own counters)."""
        raise NotImplementedError

    def charge_accept_stalls(self, cycles: int) -> None:
        """Charge ``cycles`` more refusals of the head :meth:`accept`
        just refused to the paradigm's own counters (those the refusal
        path bumps; nothing by default)."""

    def issue_stage(self, cycle: int) -> None:
        """Select and issue ready instructions (subclass policy)."""
        raise NotImplementedError

    def on_ready(self, winst: WInst, cycle: int) -> None:
        """All register dependences of ``winst`` are complete (optional hook)."""

    def dep_delay(self, producer: WInst, consumer: WInst) -> int:
        """Extra cycles before ``consumer`` may observe ``producer``'s value
        (e.g. cross-cluster forwarding in a clustered braid machine)."""
        return 0

    # ------------------------------------------------------------------- run
    def run(
        self, max_cycles: int = 100_000_000, progress=None
    ) -> SimResult:
        """Simulate until every trace instruction retires; returns the result.

        ``progress`` (optional) is called as ``progress(retired, total,
        cycle)`` every ``progress.chunk`` retired instructions (default
        4096), threaded through the resumable :meth:`_run_until` seam:
        consecutive calls with increasing targets compose into exactly
        the single-call trajectory, so a progress-observed run is
        bit-identical to an unobserved one and the hot loop itself stays
        untouched (the throttling, if any, lives in the callback).
        """
        total = len(self.trace)
        if progress is None:
            cycle = self._run_until(total, 0, max_cycles)
        else:
            chunk = max(1, int(getattr(progress, "chunk", 4096)))
            cycle = 0
            progress(0, total, 0)
            while self._retired_count < total:
                target = min(total, self._retired_count + chunk)
                cycle = self._run_until(target, cycle, max_cycles)
                progress(self._retired_count, total, cycle)
        result = SimResult(
            benchmark=self.workload.name,
            machine=self.config.name,
            cycles=cycle,
            instructions=total,
            branches=self.workload.stats.branches,
            mispredicts=len(self.mispredicted),
            issued=self._issued_count,
            stalls=self.stalls,
        )
        self.attach_activity(result)
        return result

    def _run_until(
        self, target_retired: int, cycle: int, max_cycles: int
    ) -> int:
        """Advance the machine until ``target_retired`` instructions retired.

        Returns the cycle counter after the final increment, so consecutive
        calls with increasing targets compose into exactly the trajectory a
        single call would take (the loop checks only its entry condition).
        This is the resumability seam the sampled-execution engine uses:
        it alternates ``_run_until`` over detailed windows with
        :meth:`fast_forward` over the skipped gaps.

        The one run loop, hooked or not.  With :attr:`event_kernel` on it
        jumps over every span of cycles in which no stage can act, or in
        which the only effect would be dispatch refusing the same head
        again (see :meth:`_next_event`); hooks fire on executed cycles
        and :attr:`span_hook` hears about each skipped span.  From
        :attr:`fault_cycle` on, and throughout with the event kernel off
        (the ticked reference), it executes every cycle and visits every
        issue window.
        """
        start_cycle = cycle
        idle_limit = self.config.max_idle_cycles
        watch_cycle = cycle
        watch_retired = self._retired_count
        complete_stage = self.complete_stage
        retire_stage = self.retire_stage
        issue_stage = self.issue_stage
        dispatch_stage = self.dispatch_stage
        fetch_stage = self.fetch_stage
        issue_horizon = self.issue_horizon
        next_event = self._next_event
        step_from = self.fault_cycle if self.event_kernel else cycle
        all_windows = self._all_windows
        hooked = (
            self.fault_hook is not None
            or self.trace_hook is not None
            or self.invariant_hook is not None
        )
        span_hook = self.span_hook
        events = self._events
        miss_releases = self._miss_releases
        pending_writeback = self._pending_writeback
        rob = self._rob
        buffer = self._fetch_buffer
        fetch_cap = self._fetch_cap
        fetch_limit = self._fetch_limit
        # Each stage is entered only when its cheap guard says it can act;
        # the guards replicate the stages' own first-line early-outs, so a
        # skipped call is exactly a call that would have done nothing.
        while self._retired_count < target_retired:
            if cycle >= step_from:
                self._windows_due = all_windows
            elif not pending_writeback:
                # Event-driven kernel: when no stage but a refusing
                # dispatch can act this cycle, jump straight to the
                # earliest published next-activity cycle (_next_event).
                # With ready-but-unissued instructions in flight the
                # subclass publisher must certify an issue horizon — but
                # that is only worth asking once the O(1) guards show
                # nothing else can act right now.
                blocked = self._stall_cycle == cycle - 1
                target = cycle
                if not self._ready_unissued:
                    target = next_event(cycle, None, blocked)
                elif (
                    not (events and events[0][0] <= cycle)
                    and (
                        blocked
                        or not (buffer and buffer[0].dispatch_ready <= cycle)
                    )
                    and not (
                        rob
                        and (head := rob[0]).done
                        and head.complete_cycle < cycle
                    )
                    and not (
                        not self._fetch_blocked
                        and cycle >= self._fetch_resume
                        and self._next_fetch < fetch_limit
                        and len(buffer) < fetch_cap
                    )
                ):
                    horizon = issue_horizon(cycle)
                    if horizon is None or horizon > cycle:
                        target = next_event(cycle, horizon, blocked)
                if target > cycle:
                    if target > step_from:
                        target = step_from
                    if blocked:
                        self._charge_stall_span(target - cycle)
                    if span_hook is not None:
                        span_hook(
                            self, cycle, target - cycle,
                            self._stall_field if blocked else None,
                        )
                    cycle = target
            # Retirement watchdog on the fixed lattice of idle_limit + 1
            # cycle windows from the entry cycle, so a skip never moves a
            # check: the state of a skipped lattice cycle is the state
            # now.  The inner loop runs once per window, so a wedge is
            # detected within at most two windows.
            while cycle - watch_cycle > idle_limit:
                watch_cycle += idle_limit + 1
                if watch_cycle - start_cycle > max_cycles:
                    break  # the whole-run cap below fires first
                if self._retired_count == watch_retired:
                    raise self._hang_error(
                        watch_cycle, idle_limit + 1, target_retired
                    )
                watch_retired = self._retired_count
            if cycle - start_cycle > max_cycles:
                raise SimulationError(
                    f"{self.config.name} on {self.workload.name}: no forward "
                    f"progress after {max_cycles} cycles "
                    f"(retired {self._retired_count}/{target_retired})"
                )
            if hooked and self.fault_hook is not None:
                self.fault_hook(self, cycle)
            if (
                pending_writeback
                or (events and events[0][0] <= cycle)
                or (miss_releases and miss_releases[0][0] <= cycle)
            ):
                complete_stage(cycle)
            if rob:
                head = rob[0]
                # Spelled as retire_stage's own test, so a corrupted
                # (fault-injected) head fails here exactly as it would
                # there.
                if head.done and not head.complete_cycle >= cycle:
                    retire_stage(cycle)
            if self._ready_unissued:
                issue_stage(cycle)
            if buffer and buffer[0].dispatch_ready <= cycle:
                dispatch_stage(cycle)
            if (
                not self._fetch_blocked
                and cycle >= self._fetch_resume
                and self._next_fetch < fetch_limit
                and len(buffer) < fetch_cap
            ):
                fetch_stage(cycle)
            if hooked:
                if self.trace_hook is not None:
                    self.trace_hook(self, cycle)
                if self.invariant_hook is not None:
                    self.invariant_hook(self, cycle)
            cycle += 1
        return cycle

    def _charge_stall_span(self, cycles: int) -> None:
        """Charge ``cycles`` skipped repeats of the last dispatch stall."""
        stalls = self.stalls
        field = self._stall_field
        setattr(stalls, field, getattr(stalls, field) + cycles)
        if self._stall_accept:
            self.charge_accept_stalls(cycles)

    def _hang_error(self, cycle: int, idle_cycles: int,
                    target: int) -> SimulationHang:
        """Build the diagnostic hang exception (retirement stopped)."""
        head = repr(self._rob[0]) if self._rob else "<rob empty>"
        # Stall attribution for the wedged window: the state has been
        # frozen for idle_cycles straight cycles, so one classification
        # labels every cycle of it.  Lazy import keeps repro.sim free of
        # an obs dependency on the healthy path.
        try:
            from ..obs.cpi import classify_stall

            stall_cause = classify_stall(self, cycle)
        except Exception:  # diagnostics must never mask the hang itself
            stall_cause = "unknown"
        in_flight = {
            "rob": len(self._rob),
            "fetch_buffer": len(self._fetch_buffer),
            "ready_unissued": self._ready_unissued,
            "pending_writeback": len(self._pending_writeback),
            "completion_events": len(self._events),
            "mem_in_flight": self._mem_in_flight,
            "rf_in_flight": self.rf.in_flight,
            "checkpoints": self.checkpoints.occupancy,
            "lsq_stores": self.lsq.occupancy,
        }
        return SimulationHang(
            machine=self.config.name,
            benchmark=self.workload.name,
            cycle=cycle,
            idle_cycles=idle_cycles,
            retired=self._retired_count,
            target=target,
            rob_head=head,
            in_flight=in_flight,
            stall_cause=stall_cause,
            stall_snapshot={stall_cause: idle_cycles},
        )

    def drain_in_flight(self, cycle: int) -> int:
        """Finish writebacks/releases left after the last retirement.

        Retirement only requires completion, so a window's final cycle can
        leave external results queued for register-file write ports (and,
        under the staging entry policy, their entries still allocated).
        Draining them during the skipped gap keeps structural state balanced
        before a fast-forward; the cycles spent here are gap cycles and are
        never counted in a measured window.
        """
        while (
            self._pending_writeback or self._events or self._miss_releases
        ):
            self.complete_stage(cycle)
            cycle += 1
        return cycle

    def fast_forward(self, index: int, cycle: int) -> None:
        """Advance the trace cursor to ``index`` with a drained pipeline.

        Models the sampled-execution gap: every skipped instruction is
        assumed architecturally executed (phase one already fixed its branch
        outcome and cache latencies), so in-flight value tracking resets —
        all live values sit in the architectural file and later consumers
        take plain register reads.  Requires the pipeline to be drained
        (all fetched instructions retired, no pending writebacks).
        """
        if self._rob or self._fetch_buffer or self._pending_writeback:
            raise SimulationError(
                f"{self.config.name} on {self.workload.name}: fast_forward "
                f"with an undrained pipeline"
            )
        if self.skip_hook is not None:
            self.skip_hook(self._next_fetch, index)
        self._next_fetch = index
        self._producers[:] = _NO_PRODUCERS
        self._fetch_blocked = False
        self._fetch_resume = cycle
        self._stall_cycle = -1
        self._windows_due = 0
        self._window_wakes.clear()
        self.on_fast_forward()

    def on_fast_forward(self) -> None:
        """Subclass hook: reset execution-core state across a sampling gap."""

    def core_invariants(self, cycle: int):
        """Subclass hook: yield messages for violated execution-core
        invariants (yield nothing when healthy).

        Covers only the structures the subclass owns (schedulers, FIFOs,
        BEUs); the shared-machinery invariants (ROB, register file,
        LSQ, checkpoints) live in :mod:`repro.validate.invariants`, which
        calls this per cycle when invariant checking is enabled.
        """
        return ()

    def unissued_in_flight(self):
        """Every dispatched-but-unissued instruction (for validation)."""
        return [w for w in self._rob if w.issue_cycle is None]

    def dispatch_block_cause(self) -> str:
        """Taxonomy label when :meth:`accept` is refusing dispatch.

        Used by the CPI stall attribution (:mod:`repro.obs.cpi`) to split
        the shared ``structure_full`` stall counter into the paradigm's
        actual full structure: a scheduler for the out-of-order and
        in-order cores, an issue FIFO for the steering/braid cores.
        """
        return "structural_scheduler"

    def scheduler_occupancy(self) -> int:
        """Instructions waiting in the paradigm's issue structure(s).

        Observability gauge (:mod:`repro.obs.metrics`); subclasses return
        the occupancy of their scheduler / FIFO / BEU structures.
        """
        return 0

    def attach_activity(self, result: SimResult) -> None:
        """Attach shared activity counters plus subclass annotations."""
        result.extra["lsq_forwards"] = float(self.lsq.stats.forwards)
        result.extra["bypass_forwards"] = float(self.bypass.total_forwards)
        result.extra["rf_reads"] = float(self.rf.read.total_grants)
        result.extra["rf_writes"] = float(self.rf.write.total_grants)
        self.annotate_result(result)

    def annotate_result(self, result: SimResult) -> None:
        """Subclass hook: attach extra activity statistics to a result."""

    def issue_horizon(self, cycle: int) -> Optional[int]:
        """Certified earliest cycle the issue stage might act (the
        scheduler arm of the next-event contract).

        Subclass publisher for the event kernel, consulted only while
        ``_ready_unissued > 0`` and every O(1) guard already says no
        other stage can act (a dispatch head refused last cycle counts as
        not acting).  Three answers:

        * ``cycle`` — some candidate the issue stage would examine may
          act *now* (issue, claim a port meter, or touch a stall
          counter).  The kernel must not skip.  Per-cycle resource
          blocks (FUs, ports, staging register entries) always answer
          ``cycle``, because resource availability rolls per cycle and
          the event heap does not model it.
        * a future cycle — no candidate can act before it (every
          examined candidate is either ``pending`` or carries a
          certified ``issue_wake`` bound), and absent new completions
          the earliest possible issue activity is that cycle.
        * ``None`` — only a completion event (or a store execution,
          itself covered inductively by another publisher) can wake the
          issue stage; parked candidates fall here.

        The contract is strict because a returned future cycle becomes a
        skip target: every cycle before it must be one where calling
        ``issue_stage`` would mutate nothing observable.  The base class
        answers ``cycle`` (never skip), which is always safe.
        """
        return cycle

    # ------------------------------------------------ shared issue mechanics
    #
    # The FIFO-window paradigms (in-order queue, dependence-steering FIFOs,
    # braid BEU windows, block-granular windows) share three mechanics:
    # the active-window index, strict in-order head issue with
    # break-on-block, and bounded skip-ahead issue with continue-on-block.
    # They live here so the wake/park bookkeeping (``issue_wake`` bounds,
    # ``PARKED``, ``_note_issue_block``) has exactly one implementation
    # and a new paradigm composes them instead of re-deriving the contract.
    #
    # The index.  A window is *due* when visiting it might call
    # try_issue: some entry it examines is operand-ready and has no
    # future ``issue_wake`` bound.  A window becomes due when an entry in
    # it becomes ready (``window_ready``, the paradigms' ``on_ready``),
    # when it issues (younger entries move into the examined region),
    # when a try_issue in it fails on a per-cycle resource, when the
    # issue budget runs out before or while it is visited, and when a
    # ``(wake, window)`` entry pushed by ``_note_issue_block`` or
    # ``_wake_store_waiters`` comes due.  issue_stage visits only due
    # windows, in index order; a window left out would have examined
    # only pending, bounded or parked entries, touching nothing.

    def init_window_index(self, windows: int) -> None:
        """Declare ``windows`` issue windows (entries carry their window
        number in ``WInst.cluster``)."""
        self._all_windows = (1 << windows) - 1

    def window_ready(self, winst: WInst, cycle: int) -> None:
        """``on_ready`` of the FIFO-window paradigms: ``winst``'s window
        is due."""
        self._windows_due |= 1 << winst.cluster

    def due_windows(self, cycle: int) -> int:
        """Take the due-window bitmask for this cycle's issue stage (bit
        *i* = window *i*), folding in the wakes that have arrived.  The
        taken windows are no longer due; the issue helpers mark again
        those that stay due."""
        wakes = self._window_wakes
        due = self._windows_due
        while wakes and wakes[0][0] <= cycle:
            due |= 1 << heapq.heappop(wakes)[1]
        self._windows_due = 0
        return due

    def window_issue_horizon(self, cycle: int) -> Optional[int]:
        """:meth:`issue_horizon` of the FIFO-window paradigms, read off
        the index: ``cycle`` while any window is due, else the earliest
        pending wake, else None (every examined entry is pending or
        parked, so only a completion or a store's issue can wake one)."""
        wakes = self._window_wakes
        due = self._windows_due
        while wakes and wakes[0][0] <= cycle:
            due |= 1 << heapq.heappop(wakes)[1]
        self._windows_due = due
        if due:
            return cycle
        return wakes[0][0] if wakes else None

    def issue_in_order(
        self,
        fifo,
        window: int,
        cycle: int,
        fu_pool: FunctionalUnitPool,
        max_issues: int,
        internal_reads=None,
        internal_writes=None,
        on_issue: Optional[Callable[[WInst], None]] = None,
    ) -> int:
        """Issue from ``fifo``'s head strictly in order; stop at the first
        block.  Returns the number issued.

        ``pending > 0`` means an operand producer has not completed, so
        ``try_issue`` would fail its dependence walk; a certified
        ``issue_wake`` bound likewise proves the call would fail until
        that cycle — both skip the call without touching any counter.  A
        live ``try_issue`` failure records its wake bound via
        :meth:`_note_issue_block` and ends the scan (younger entries may
        not pass an older blocked head).  ``on_issue`` runs per issued
        instruction for paradigm-side bookkeeping (busy bits, BEU tallies).
        ``window`` is the FIFO's number in the active-window index; it
        stays due when the budget ran out before the FIFO did or the head
        is blocked on a per-cycle resource.
        """
        issued = 0
        try_issue = self.try_issue
        while fifo:
            if issued >= max_issues:
                self._windows_due |= 1 << window
                break
            winst = fifo[0]
            if winst.pending or winst.issue_wake > cycle:
                break
            if not try_issue(
                winst, cycle, fu_pool,
                internal_reads=internal_reads,
                internal_writes=internal_writes,
            ):
                if self._note_issue_block(winst, cycle):
                    self._windows_due |= 1 << window
                break
            fifo.popleft()
            if on_issue is not None:
                on_issue(winst)
            issued += 1
        return issued

    def issue_skipahead(
        self,
        fifo,
        window: int,
        cycle: int,
        depth: int,
        fu_pool: FunctionalUnitPool,
        internal_reads=None,
        internal_writes=None,
        max_issues: Optional[int] = None,
        on_issue: Optional[Callable[[WInst], None]] = None,
    ) -> int:
        """Issue out of order from the first ``depth`` entries of ``fifo``;
        a blocked entry is skipped, not a barrier.  Returns the number
        issued.

        The scan examines the ``depth`` entries that were in the window
        when it began (the hardware examines one fixed window per cycle):
        an issued entry is deleted in place, so the cursor stays put and
        only a skipped entry advances it.  ``max_issues`` bounds the
        total for paradigms sharing a global issue budget across windows.
        ``window`` (the active-window index number) stays due when
        anything issued or an entry is blocked on a per-cycle resource.
        """
        issued = 0
        live = False
        try_issue = self.try_issue
        position = 0
        for _ in range(depth):
            winst = fifo[position]
            if winst.pending or winst.issue_wake > cycle:
                position += 1
                continue
            if not try_issue(
                winst, cycle, fu_pool,
                internal_reads=internal_reads,
                internal_writes=internal_writes,
            ):
                if self._note_issue_block(winst, cycle):
                    live = True
                position += 1
                continue
            del fifo[position]
            if on_issue is not None:
                on_issue(winst)
            issued += 1
            if max_issues is not None and issued >= max_issues:
                break
        if issued or live:
            self._windows_due |= 1 << window
        return issued

    def fifo_invariants(self, label: str, fifo, capacity: int,
                        cluster: Optional[int] = None):
        """Shared per-FIFO invariant checks (for :meth:`core_invariants`):
        capacity bound, no issued-but-still-queued entries, cluster-tag
        agreement, and dispatch-order monotonicity.  Yields messages.
        """
        if len(fifo) > capacity:
            yield f"{label} holds {len(fifo)}, capacity {capacity}"
        previous = -1
        for winst in fifo:
            if winst.issue_cycle is not None:
                yield f"issued instruction seq={winst.seq} still in {label}"
            if cluster is not None and winst.cluster != cluster:
                yield (
                    f"seq={winst.seq} tagged cluster {winst.cluster} "
                    f"but found in {label}"
                )
            if winst.seq <= previous:
                yield f"{label} out of dispatch order at seq={winst.seq}"
            previous = winst.seq

    def occupancy_sum_invariant(self, label: str, total: int):
        """Shared cross-structure invariant: the paradigm's queued-entry
        sum must equal the dispatched-but-unissued in-flight count."""
        unissued = len(self.unissued_in_flight())
        if total != unissued:
            yield (
                f"{label} occupancy sum {total} != {unissued} "
                f"dispatched-but-unissued instructions"
            )

    def _note_issue_block(self, winst: WInst, cycle: int) -> bool:
        """Record a failed issue attempt's wake bound on the instruction.

        Head-scanning cores call this after a ``try_issue`` failure:
        a positive classification becomes the candidate's ``issue_wake``
        (the scan skips it until then, and the wake heap makes its window
        due then), and a store block parks the candidate on the store's
        waiter list — ``store_executed`` will rewrite the wake to the
        store's completion cycle.  Returns True for a per-cycle block,
        which keeps the window due.
        """
        wake = self._issue_wake
        if wake > cycle:
            winst.issue_wake = wake
            heapq.heappush(self._window_wakes, (wake, winst.cluster))
            return False
        if wake < 0:
            store = self._issue_block_store
            if store.waiters is None:
                store.waiters = []
            store.waiters.append(winst)
            winst.issue_wake = PARKED
            return False
        return True

    def _wake_store_waiters(self, waiters: List[WInst], wake: int) -> None:
        """The store a load was parked on has executed: publish the wake.

        The base form rewrites each parked candidate's ``issue_wake`` to
        the store's completion cycle (the first cycle forwarding can
        succeed) and queues its window's wake; pool-based cores override
        to re-insert the candidate into their deferred structures.
        """
        wakes = self._window_wakes
        for winst in waiters:
            winst.issue_wake = wake
            heapq.heappush(wakes, (wake, winst.cluster))

    def _next_event(
        self, cycle: int, horizon: Optional[int] = None,
        blocked: bool = False,
    ) -> int:
        """Earliest cycle at which any stage can act (the next-event contract).

        Each structure publishes its next-possible-activity cycle and the
        kernel jumps to the minimum; ``cycle`` itself is returned whenever
        anything can act *now*.  The published events:

        * **fetch** — ``_fetch_resume`` (redirect bubble end) while the
          front end is unblocked with trace and buffer room;
        * **fetch-buffer head** — its ``dispatch_ready`` cycle (front-end
          pipeline depth plus I-cache refill), unless ``blocked``: dispatch
          refused that head last cycle with nothing dispatched;
        * **ROB head** — ``complete_cycle + 1``, the first retirable cycle,
          once it has completed;
        * **completion events** — the earliest entry of the completion heap
          (which also bounds every MSHR release: misses push both heaps at
          the same cycle, so a due miss release implies a due event);
        * **issue horizon** (the ``horizon`` argument) — the scheduler's
          certified earliest issue-activity cycle from
          :meth:`issue_horizon`, when the caller obtained one.

        Callers guarantee no writeback is queued and the issue stage is
        certified idle (``_ready_unissued == 0``, or the horizon is absent
        or in the future).  A skipped cycle therefore mutates no state
        (port meters roll per cycle) except one thing: with a ``blocked``
        head, dispatch refuses it again, charging the same stall counters
        the refusal charged last cycle.  Whether a head is refused depends
        only on the ROB, LSQ, register-file and checkpoint occupancy and
        the paradigm's accept() state, which change only when an
        instruction retires, issues or completes — events every skipped
        cycle lies before — so the run loop charges the span in bulk and
        the jump stays bit-exact.  Dominant wins: dispatch stalls behind a
        full ROB, LSQ or window, misprediction redirect bubbles, long
        cache-miss shadows, and dependence chains serialized on
        multi-cycle producers.  With no publisher armed the current cycle
        is returned — a wedged machine ticks until the watchdog fires.
        """
        if horizon is not None and horizon <= cycle:
            return cycle  # the issue stage may act right now
        wake = horizon
        if (
            not self._fetch_blocked
            and self._next_fetch < self._fetch_limit
            and len(self._fetch_buffer) < self._fetch_cap
        ):
            if cycle >= self._fetch_resume:
                return cycle
            if wake is None or self._fetch_resume < wake:
                wake = self._fetch_resume
        if self._fetch_buffer and not blocked:
            ready = self._fetch_buffer[0].dispatch_ready
            if ready <= cycle:
                return cycle
            if wake is None or ready < wake:
                wake = ready
        if self._rob:
            head = self._rob[0]
            if head.done:
                retirable = head.complete_cycle + 1
                if retirable <= cycle:
                    return cycle
                if wake is None or retirable < wake:
                    wake = retirable
        if self._events:
            due = self._events[0][0]
            if due <= cycle:
                return cycle
            if wake is None or due < wake:
                wake = due
        if wake is None or wake <= cycle:
            return cycle
        return wake

    def _skip_idle(self, cycle: int) -> int:
        """The one certified-idleness entry point: precondition check plus
        :meth:`_next_event`.

        Returns ``cycle`` itself when any stage might act now (pending
        writebacks, or an issue horizon answering "now"); otherwise the
        certified next-event cycle of an idle span (the dispatch head is
        never treated as blocked here).  ``_run_until`` inlines this test
        in its loop; every other caller (resume seams, tests, tools
        probing idleness) goes through here rather than re-deriving the
        horizon contract.
        """
        if self._pending_writeback:
            return cycle
        horizon = None
        if self._ready_unissued:
            horizon = self.issue_horizon(cycle)
            if horizon is not None and horizon <= cycle:
                return cycle
        return self._next_event(cycle, horizon)

    # ------------------------------------------------------------------ fetch
    def fetch_stage(self, cycle: int) -> None:
        if self._fetch_blocked or cycle < self._fetch_resume:
            return
        budget = self._fetch_width
        branch_budget = self._branches_per_cycle
        fetch_cap = self._fetch_cap
        depth = self._front_depth
        limit = self._fetch_limit
        trace = self.trace
        outcomes = trace.taken
        decoded = self.decoded
        buffer = self._fetch_buffer
        append = buffer.append
        ifetch_extra = self._ifetch_extra_row
        mem_words = self._mem_word_row
        # The misprediction *set* stays the lookup source (not a frozen
        # per-index array): fault injection swaps it at runtime.
        mispredicted = self.mispredicted
        index = self._next_fetch
        while budget > 0 and index < limit and len(buffer) < fetch_cap:
            facts = decoded[index]
            mis = index in mispredicted
            append(WInst(
                trace,
                index,
                facts,
                cycle,
                cycle + depth + ifetch_extra[index],
                mis,
                mem_words[index],
            ))
            index += 1
            budget -= 1
            if facts.is_branch:
                branch_budget -= 1
                if mis:
                    # Wrong-path fetch begins next cycle; correct-path fetch
                    # resumes only after the branch resolves.
                    self._fetch_blocked = True
                    break
                if outcomes[index - 1]:
                    break  # taken-branch redirect ends the fetch group
                if branch_budget == 0:
                    break
        self._next_fetch = index

    # --------------------------------------------------------------- dispatch
    def dispatch_stage(self, cycle: int) -> None:
        budget = self._alloc_width
        src_budget = self._rename_src_budget
        dest_budget = self._rename_dest_budget
        buffer = self._fetch_buffer
        rob = self._rob
        stalls = self.stalls
        max_in_flight = self._max_in_flight
        lsq_entries = self._lsq_entries
        alloc_at_dispatch = not self._rf_alloc_at_issue
        rf = self.rf
        rf_entries = rf.entries
        checkpoints = self.checkpoints
        checkpoint_cap = checkpoints.capacity
        producers = self._producers
        lsq = self.lsq
        trace_log = self.trace_log
        has_on_ready = self._has_on_ready
        accept = self.accept
        stall = None
        while budget > 0 and buffer:
            winst = buffer[0]
            if winst.dispatch_ready > cycle:
                break
            if len(rob) >= max_in_flight:
                stalls.in_flight_cap += 1
                stall = "in_flight_cap"
                break
            if winst.ext_src_ops > src_budget or winst.ext_dest_ops > dest_budget:
                stalls.rename_width += 1
                stall = "rename_width"
                break
            if (
                winst.dest_external
                and alloc_at_dispatch
                and rf.in_flight >= rf_entries
            ):
                stalls.regfile_entries += 1
                stall = "regfile_entries"
                break
            if winst.is_branch and len(checkpoints._stack) >= checkpoint_cap:
                stalls.checkpoints += 1
                stall = "checkpoints"
                break
            if (winst.is_load or winst.is_store) and (
                self._mem_in_flight >= lsq_entries
            ):
                stalls.structure_full += 1
                stall = "structure_full"
                break

            # The rename table only mutates on a successful dispatch, and
            # a failed accept() blocks all younger dispatches, so the
            # captured dependences of a stalled head stay valid across
            # retry cycles.
            if not winst.captured:
                arch_reads = 0
                deps = None
                for slot, internal in winst.facts.sources:
                    producer = producers[slot]
                    if producer is None:
                        # No writer dispatched since the trace start, the
                        # last sampling gap or (internal) the braid start:
                        # an external value is in the architectural file.
                        if not internal:
                            arch_reads += 1
                    elif deps is None:
                        deps = winst.deps = [(producer, internal)]
                    else:
                        deps.append((producer, internal))
                winst.arch_reads = arch_reads
                winst.captured = True
            if not accept(winst, cycle):
                stalls.structure_full += 1
                stall = "accept"
                break

            # Commit: producer subscriptions, rename-table update, structure
            # bookkeeping (an allocation probe cannot fail here — the
            # checks above verified a free entry this cycle and nothing
            # allocates in between).
            winst.dispatch_cycle = cycle
            pending = 0
            for producer, _internal in winst.deps:
                if not producer.done:
                    if producer.waiters is None:
                        producer.waiters = [winst]
                    else:
                        producer.waiters.append(winst)
                    pending += 1
            winst.pending = pending

            if winst.start:
                producers[INTERNAL_SLOTS] = _NO_INTERNALS
            for slot, _internal in winst.facts.writes:
                producers[slot] = winst

            seq = winst.seq
            if winst.dest_external and alloc_at_dispatch:
                rf.in_flight += 1
            if winst.is_branch:
                checkpoints.take(seq)
            is_store = winst.is_store
            if is_store:
                lsq.store_dispatched(seq, winst.mem_word)
            if is_store or winst.is_load:
                self._mem_in_flight += 1
            rob.append(winst)

            if trace_log is not None:
                trace_log.append(winst)
            if pending == 0:
                self._ready_unissued += 1
                if has_on_ready:
                    self.on_ready(winst, cycle)

            buffer.popleft()
            budget -= 1
            src_budget -= winst.ext_src_ops
            dest_budget -= winst.ext_dest_ops
        if stall is not None and budget == self._alloc_width:
            # The head was refused with nothing dispatched: until another
            # stage acts it is refused again every cycle (_run_until).
            self._stall_cycle = cycle
            self._stall_accept = stall == "accept"
            self._stall_field = (
                "structure_full" if self._stall_accept else stall
            )

    # ------------------------------------------------------------------ issue
    def try_issue(
        self,
        winst: WInst,
        cycle: int,
        fu_pool: FunctionalUnitPool,
        internal_reads=None,
        internal_writes=None,
    ) -> bool:
        """Attempt to issue ``winst`` this cycle; all checks then all claims.

        Every failure classifies itself into ``self._issue_wake`` — a
        certified lower bound on the first cycle the failed check could
        pass (0 when the block is a per-cycle resource the event heap
        cannot model, -1 when the load must park on the unexecuted store
        left in ``self._issue_block_store``).  Callers use the bound to
        defer re-examination; a deferral is sound because every check
        before the claims section is side-effect-free except the staging
        register-file probe (which stays wake=0 so its stall counter
        keeps ticking exactly as before) and the LSQ conflict statistic
        (not an exported counter).
        """
        if winst.issue_cycle is not None or cycle <= winst.dispatch_cycle:
            self._issue_wake = 0
            return False

        reads = winst.arch_reads
        bypasses = 0
        internal_read_count = 0
        deps = winst.deps
        if deps:
            # ``bypass.covers(cycle, visible)`` with visible <= cycle already
            # established reduces to ``cycle - visible <= levels`` (and the
            # -1 sentinel encodes a zero-width/zero-level network); the
            # uniform-delay flag skips the dep_delay virtual call entirely on
            # cores where it is identically zero.
            bypass_life = self._bypass_life
            uniform = self._uniform_dep_delay
            for producer, internal in deps:
                if producer is None:
                    continue
                produced = producer.complete_cycle
                if produced is None:
                    self._issue_wake = 0
                    return False  # producer not yet issued
                if internal:
                    if produced > cycle:
                        self._issue_wake = produced
                        return False
                    internal_read_count += 1
                    continue
                delay = 0 if uniform else self.dep_delay(producer, winst)
                visible = produced + delay
                if visible > cycle:
                    self._issue_wake = visible
                    return False  # value not yet visible here
                if cycle - visible <= bypass_life:
                    bypasses += 1
                else:
                    wb = producer.writeback_cycle
                    if wb is not None and wb + delay <= cycle:
                        reads += 1
                    else:
                        # Off the bypass network with writeback still
                        # pending.  Once the write port is granted the
                        # writeback cycle is fixed, giving a firm wake;
                        # until then the value sits in the writeback queue,
                        # which blocks idle skipping anyway.
                        self._issue_wake = wb + delay if wb is not None else 0
                        return False

        latency = winst.latency
        is_miss = False
        if winst.is_load:
            cache_latency = self._load_latency_row[winst.seq]
            if cache_latency is None:
                cache_latency = self.l1d_latency
            lsq = self.lsq
            # Inline lsq.conflict_entry: one dict probe for the precomputed
            # youngest older same-word store (see ReplayFacts.store_conflict).
            conflict_seq = self._store_conflict_row[winst.seq]
            conflict = None
            if conflict_seq is not None:
                entry = lsq._stores.get(conflict_seq)
                if entry is not None and entry.word == winst.mem_word:
                    conflict = entry
            if conflict is None:
                memory_latency = cache_latency
            else:
                done_at = conflict.complete_cycle
                if done_at is None:
                    # The store has not even issued: no wake cycle exists
                    # yet, so park on the entry — store execution rewrites
                    # the wake to its completion cycle.
                    lsq.stats.conflicts += 1
                    self._issue_wake = -1
                    self._issue_block_store = conflict
                    return False
                if done_at > cycle:
                    lsq.stats.conflicts += 1
                    self._issue_wake = done_at
                    return False
                lsq.stats.forwards += 1
                memory_latency = lsq.forward_latency
            is_miss = memory_latency > self.l1d_latency
            if is_miss and self._outstanding_misses >= self._mshrs:
                # All miss-status holding registers busy; the earliest
                # release is the head of the miss-release heap (non-empty
                # whenever outstanding misses exist).
                releases = self._miss_releases
                self._issue_wake = releases[0][0] if releases else 0
                return False
            latency = memory_latency

        # Check-then-claim over the per-cycle meters, with the meter roll
        # and probe inlined (the method-call version is bit-identical but
        # dominates the issue path; a roll is idempotent within a cycle, so
        # rolling during a check that later fails matches the old
        # ``available()`` behavior exactly, and a claim after an all-checks
        # pass can never fail, so no denial counter is touched).
        rf = self.rf
        staging = self._rf_alloc_at_issue and winst.dest_external
        if staging and rf.in_flight >= rf.entries:
            self.stalls.regfile_entries += 1
            self._issue_wake = 0
            return False
        if fu_pool._cycle != cycle:
            fu_pool._cycle = cycle
            fu_pool._issued = 0
        if fu_pool._issued >= fu_pool.count:
            self._issue_wake = 0
            return False
        if bypasses:
            bp = self.bypass
            if bp._cycle != cycle:
                bp._cycle = cycle
                bp._used = 0
            if bp._used + bypasses > bp.width:
                self._issue_wake = 0
                return False
        if reads:
            rd = rf.read
            if rd._cycle != cycle:
                rd._cycle = cycle
                rd._used = 0
            if rd._used + reads > rd.ports:
                self._issue_wake = 0
                return False
        ir = internal_reads if internal_read_count else None
        if ir is not None:
            if ir._cycle != cycle:
                ir._cycle = cycle
                ir._used = 0
            if ir._used + internal_read_count > ir.ports:
                self._issue_wake = 0
                return False
        iw = internal_writes if winst.dest_internal else None
        if iw is not None:
            if iw._cycle != cycle:
                iw._cycle = cycle
                iw._used = 0
            if iw._used >= iw.ports:
                self._issue_wake = 0
                return False

        fu_pool._issued += 1
        fu_pool.total_issues += 1
        if staging:
            rf.in_flight += 1
        if bypasses:
            bp._used += bypasses
            bp.total_forwards += bypasses
        if reads:
            rd._used += reads
            rd.total_grants += reads
        if ir is not None:
            ir._used += internal_read_count
            ir.total_grants += internal_read_count
        if iw is not None:
            iw._used += 1
            iw.total_grants += 1

        winst.issue_cycle = cycle
        winst.complete_cycle = cycle + latency
        self._ready_unissued -= 1
        if is_miss:
            self._outstanding_misses += 1
            heapq.heappush(
                self._miss_releases, (winst.complete_cycle, winst.seq)
            )
        heapq.heappush(self._events, (winst.complete_cycle, winst.seq, winst))
        if winst.is_store:
            entry = self.lsq.store_executed(winst.seq, winst.complete_cycle)
            if entry is not None and entry.waiters:
                waiters = entry.waiters
                entry.waiters = None
                self._wake_store_waiters(waiters, winst.complete_cycle)
        self._issued_count += 1
        return True

    # --------------------------------------------------------------- complete
    def complete_stage(self, cycle: int) -> None:
        miss_releases = self._miss_releases
        while miss_releases and miss_releases[0][0] <= cycle:
            heapq.heappop(miss_releases)
            self._outstanding_misses -= 1
        events = self._events
        pending_writeback = self._pending_writeback
        has_on_ready = self._has_on_ready
        heappop = heapq.heappop
        while events and events[0][0] <= cycle:
            _, _, winst = heappop(events)
            winst.done = True
            waiters = winst.waiters
            if waiters is not None:
                winst.waiters = None
                for waiter in waiters:
                    waiter.pending -= 1
                    if waiter.pending == 0:
                        self._ready_unissued += 1
                        if has_on_ready:
                            self.on_ready(waiter, cycle)
            if winst.dest_external:
                pending_writeback.append(winst)
            else:
                winst.writeback_cycle = winst.complete_cycle
            if winst.is_branch and winst.mispredicted:
                self._fetch_blocked = False
                self._fetch_resume = cycle + self._redirect_penalty
                self.checkpoints.restore(winst.seq)

        if pending_writeback:
            # Inline of ``rf.write.acquire(cycle, 1)`` per drained entry:
            # one roll for the whole cycle, one denial when the ports run
            # out with entries still queued — counter-for-counter what the
            # per-entry acquire loop did.
            wr = self.rf.write
            if wr._cycle != cycle:
                wr._cycle = cycle
                wr._used = 0
            ports = wr.ports
            release_at_writeback = self._rf_alloc_at_issue
            while pending_writeback:
                if wr._used >= ports:
                    wr.total_denials += 1
                    break
                winst = pending_writeback.popleft()
                wr._used += 1
                wr.total_grants += 1
                winst.writeback_cycle = cycle + 1
                if release_at_writeback:
                    # Staging policy: the entry drains to the architectural
                    # backing file as soon as the value is written.
                    self.rf.release()

    # ------------------------------------------------------------------ retire
    def retire_stage(self, cycle: int) -> None:
        budget = self._issue_width
        retire_hook = self.retire_hook
        rob = self._rob
        rf = self.rf
        lsq = self.lsq
        checkpoints = self.checkpoints
        alloc_at_dispatch = not self._rf_alloc_at_issue
        # A retired instruction's producers matter only to trace records
        # (stall attribution); kept otherwise, the rename table would hold
        # every retired dependence chain alive.
        release_deps = self.trace_log is None
        retired = 0
        while budget > 0 and rob:
            winst = rob[0]
            if not winst.done or winst.complete_cycle >= cycle:
                break
            rob.popleft()
            winst.retired = True
            winst.retire_cycle = cycle
            if retire_hook is not None:
                retire_hook(winst, cycle)
            if release_deps:
                winst.deps = ()
            if winst.dest_external and alloc_at_dispatch:
                rf.release()
            if winst.is_store:
                lsq.store_retired(winst.seq)
            if winst.is_load or winst.is_store:
                self._mem_in_flight -= 1
            if winst.is_branch:
                checkpoints.release_older_than(winst.seq)
            retired += 1
            budget -= 1
        if retired:
            self._retired_count += retired
