"""The braid microarchitecture core (paper Figure 4, section 3.3).

Differences from the conventional core are confined to the execution core,
exactly as in the paper:

* **Distribute** replaces scheduler dispatch: the braid start bit (S)
  delimits braids; a whole braid is sent to one free BEU, and distribution
  stalls while no BEU is free or the braid overflows its FIFO.
* **BEUs** replace the out-of-order schedulers: each has a 2-entry in-order
  scheduling window at the head of a 32-entry FIFO and two functional units.
* Internal operands read the per-BEU internal register file (free of global
  port pressure); only external operands consult the busy-bit vector and
  consume external register file ports or the (1-level, 2-value) bypass.
* Instructions writing only internal registers never allocate an external
  register entry, and internal operands are never renamed — both effects are
  inherited from the annotation-aware base-class bookkeeping.

The issue mechanics compose the shared kernel helpers: strict windows use
:meth:`~repro.sim.core.TimingCore.issue_in_order`, the default
windowed-out-of-order mode uses
:meth:`~repro.sim.core.TimingCore.issue_skipahead`, each BEU is one window
of the kernel's active-window index, and the horizon is read off that
index (:meth:`~repro.sim.core.TimingCore.window_issue_horizon`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .beu import BraidExecutionUnit
from .config import CoreKind, MachineConfig, braid_config
from .core import TimingCore, WInst
from .registry import CoreDescriptor, register_core
from .workload import PreparedWorkload


def _inject_beu_fifo(core: "BraidCore", rng) -> Optional[str]:
    """Flip a BEU FIFO head pointer or one busy bit."""
    beus = [beu for beu in core.beus if beu.fifo]
    if not beus:
        return None
    beu = beus[rng.randrange(len(beus))]
    mode = rng.choice(("pointer", "busybit"))
    if mode == "pointer" and len(beu.fifo) > 1:
        direction = rng.choice((-1, 1))
        beu.fifo.rotate(direction)
        return f"BEU {beu.beu_id} FIFO pointer flip (rotated {direction:+d})"
    winst = beu.fifo[rng.randrange(len(beu.fifo))]
    beu.busybits.toggle(winst.seq)
    return f"BEU {beu.beu_id} busy bit toggled for seq {winst.seq}"


def _inject_partition(core: "BraidCore", rng) -> Optional[str]:
    # The braid's external/internal classification bits travel with each
    # in-flight instruction; flip one on a not-yet-issued instruction so
    # the issue and writeback stages observe the corrupted bit.
    candidates = [w for w in core._rob if w.issue_cycle is None]
    if not candidates:
        return None
    winst = candidates[rng.randrange(len(candidates))]
    if rng.random() < 0.5:
        winst.dest_external = not winst.dest_external
        return (
            f"partition external bit -> {winst.dest_external} "
            f"on seq {winst.seq}"
        )
    winst.dest_internal = not winst.dest_internal
    return (
        f"partition internal bit -> {winst.dest_internal} "
        f"on seq {winst.seq}"
    )


class BraidCore(TimingCore):
    """Timing model of the braid microarchitecture."""

    fault_structures = ("beu_fifo", "partition")
    fault_injectors = {
        "beu_fifo": _inject_beu_fifo,
        "partition": _inject_partition,
    }
    #: internal values are never checkpointed (paper section 3.4)
    checkpoints_value_entries = False

    @classmethod
    def fault_state_bits(cls, config, weights):
        return {
            # FIFO slots hold a queue tag, no wakeup CAM; plus one busy
            # bit per external register entry per BEU.
            "beu_fifo": (
                config.clusters * config.cluster_entries
                * weights["beu_fifo_entry"]
                + config.clusters * config.regfile.entries
            ),
            # Two annotation bits (external/internal destination) per
            # in-flight instruction.
            "partition": config.max_in_flight * 2,
        }

    @classmethod
    def scheduler_comparators(cls, config: MachineConfig) -> int:
        # FIFO windows: no tag broadcast; readiness checks only at the
        # window entries against the busy-bit vector.
        return 0

    @classmethod
    def wakeup_energy_entries(cls, config: MachineConfig) -> int:
        return config.beu_window  # only the BEU window entries are checked

    def __init__(self, workload: PreparedWorkload, config: MachineConfig) -> None:
        super().__init__(workload, config)
        self.beus: List[BraidExecutionUnit] = [
            BraidExecutionUnit(beu_id, config) for beu_id in range(config.clusters)
        ]
        self._open_beu: Optional[BraidExecutionUnit] = None
        self._next_beu_hint = 0
        self._fifo_capacity = config.cluster_entries
        self._queue_braids = config.beu_queue_braids
        self._exception_mode = config.beu_exception_mode
        # Exception processing issues strictly in order, one at a time.
        self._issue_window = 1 if self._exception_mode else config.beu_window
        self._strict_issue = self._exception_mode or not config.beu_window_ooo
        if config.beu_cluster_size <= 0:
            self._uniform_dep_delay = True  # dep_delay is identically 0
        #: bit *i* set while BEU *i* may accept a new braid (mirrors
        #: ``can_accept_braid``; refreshed wherever a FIFO's length changes)
        self._free_beus = self._scan_free_beus()
        self.distribute_stalls = 0
        #: per-BEU issue bookkeeping callbacks for the shared issue helpers
        self._issue_notes: List[Callable[[WInst], None]] = [
            self._make_issue_note(beu) for beu in self.beus
        ]
        self.init_window_index(len(self.beus))

    @staticmethod
    def _make_issue_note(beu: BraidExecutionUnit):
        busybits = beu.busybits
        busy = busybits._busy

        def note(winst: WInst) -> None:
            beu.instructions_issued += 1
            if winst.dest_external:
                # The busy bit clears when the value becomes ready; model
                # the event at the known completion time (inline of
                # ``busybits.mark_ready``).
                busy.discard(winst.seq)
                busybits.clear_events += 1
        return note

    # ------------------------------------------------------------- distribute
    def _scan_free_beus(self) -> int:
        """The free-BEU mask recomputed from the BEUs themselves."""
        mask = 0
        for beu in self.beus:
            if beu.can_accept_braid():
                mask |= 1 << beu.beu_id
        return mask

    def _find_free_beu(self) -> Optional[BraidExecutionUnit]:
        """Round-robin pick: the lowest free BEU at or after the hint,
        wrapping around."""
        free = self._free_beus
        if not free:
            return None
        above = free >> self._next_beu_hint << self._next_beu_hint
        pick = above or free
        index = (pick & -pick).bit_length() - 1
        self._next_beu_hint = (index + 1) % len(self.beus)
        return self.beus[index]

    def dep_delay(self, producer: WInst, consumer: WInst) -> int:
        """Cross-cluster forwarding penalty (paper section 5.2 clustering)."""
        size = self.config.beu_cluster_size
        if size <= 0 or producer.cluster < 0 or consumer.cluster < 0:
            return 0
        if producer.cluster // size == consumer.cluster // size:
            return 0
        return self.config.inter_cluster_delay

    def on_fast_forward(self) -> None:
        # A sampling gap may cut the trace mid-braid: the next window's first
        # instruction then has no start bit, so drop the open-braid pointer
        # and let it begin a fresh braid on a free BEU.  Busy bits of drained
        # values are already clear; FIFOs are empty post-drain.
        self._open_beu = None
        for beu in self.beus:
            beu.fifo.clear()
        self._free_beus = self._scan_free_beus()

    def dispatch_block_cause(self) -> str:
        return "structural_fifo"

    def scheduler_occupancy(self) -> int:
        return sum(len(beu.fifo) for beu in self.beus)

    def charge_accept_stalls(self, cycles: int) -> None:
        self.distribute_stalls += cycles  # one per refusal, on every path

    def accept(self, winst: WInst, cycle: int) -> bool:
        starts_braid = winst.start
        if self._exception_mode:
            # Exception processing (paper section 3.4): all but one BEU are
            # disabled; everything funnels through BEU 0 in order.
            beu = self.beus[0]
        elif starts_braid or self._open_beu is None:
            beu = self._find_free_beu()
            if beu is None:
                self.distribute_stalls += 1
                return False
            self._open_beu = beu
            starts_braid = True
        else:
            beu = self._open_beu
        fifo = beu.fifo
        if len(fifo) >= self._fifo_capacity:
            # A braid longer than the FIFO stalls distribution until the
            # head drains (the Figure 10 effect).  A free BEU always has
            # room, so a new braid never stalls here.
            self.distribute_stalls += 1
            return False
        if starts_braid:
            beu.start_braid()
        fifo.append(winst)
        winst.cluster = beu.beu_id
        if not self._queue_braids or len(fifo) >= self._fifo_capacity:
            self._free_beus &= ~(1 << beu.beu_id)
        # External destinations turn busy here; the issue note clears
        # them, once issue fixes the value's ready time.
        if winst.dest_external:
            beu.busybits.mark_busy(winst.seq)
        return True

    # ------------------------------------------------------------------ issue
    on_ready = TimingCore.window_ready
    issue_horizon = TimingCore.window_issue_horizon

    def issue_stage(self, cycle: int) -> None:
        window_size = self._issue_window
        strict = self._strict_issue
        queue_braids = self._queue_braids
        notes = self._issue_notes
        beus = self.beus
        due = self.due_windows(cycle)
        while due:
            low = due & -due
            due ^= low
            index = low.bit_length() - 1
            beu = beus[index]
            fifo = beu.fifo
            if not fifo:
                continue
            if strict:
                issued = self.issue_in_order(
                    fifo, index, cycle, beu.fus, window_size,
                    beu.internal_reads, beu.internal_writes, notes[index],
                )
            else:
                issued = self.issue_skipahead(
                    fifo, index, cycle, min(window_size, len(fifo)), beu.fus,
                    beu.internal_reads, beu.internal_writes, None,
                    notes[index],
                )
            # An issue frees FIFO room; without braid queueing the BEU
            # takes a new braid only once drained.
            if issued and (queue_braids or not fifo):
                self._free_beus |= low

    def core_invariants(self, cycle: int):
        if self._open_beu is not None and self._open_beu not in self.beus:
            yield "open-braid pointer references a foreign BEU"
        if self._free_beus != self._scan_free_beus():
            yield (
                f"free-BEU mask {self._free_beus:#x} disagrees with the "
                f"BEUs ({self._scan_free_beus():#x})"
            )
        capacity = self.config.cluster_entries
        total = 0
        for beu in self.beus:
            total += len(beu.fifo)
            yield from self.fifo_invariants(
                f"BEU {beu.beu_id} FIFO", beu.fifo, capacity,
                cluster=beu.beu_id,
            )
            busy_external = sum(
                1 for winst in beu.fifo if winst.dest_external
            )
            if beu.busybits.occupancy > beu.busybits.bits:
                yield (
                    f"BEU {beu.beu_id} busy-bit occupancy "
                    f"{beu.busybits.occupancy} exceeds {beu.busybits.bits} bits"
                )
            if beu.busybits.occupancy != busy_external:
                yield (
                    f"BEU {beu.beu_id} busy bits ({beu.busybits.occupancy}) "
                    f"disagree with queued external destinations "
                    f"({busy_external})"
                )
        yield from self.occupancy_sum_invariant("BEU FIFO", total)

    # ------------------------------------------------------------- statistics
    def beu_utilization(self) -> List[int]:
        """Instructions issued per BEU (for load-balance analyses)."""
        return [beu.instructions_issued for beu in self.beus]

    def annotate_result(self, result) -> None:
        result.extra["internal_rf_reads"] = float(
            sum(beu.internal_reads.total_grants for beu in self.beus)
        )
        result.extra["internal_rf_writes"] = float(
            sum(beu.internal_writes.total_grants for beu in self.beus)
        )
        result.extra["distribute_stalls"] = float(self.distribute_stalls)
        result.extra["busybit_sets"] = float(
            sum(beu.busybits.set_events for beu in self.beus)
        )


register_core(CoreDescriptor(
    kind=CoreKind.BRAID,
    key="braid",
    core_class=BraidCore,
    config_factory=braid_config,
    braided=True,
    description="braid microarchitecture (the paper's proposal)",
))
