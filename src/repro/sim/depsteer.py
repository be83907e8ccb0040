"""FIFO-based dependence-steering core (Palacharla, Jouppi & Smith).

The paper's third paradigm (Figure 13): "a simple and implementable
algorithm with a design complexity that is comparable to braids".  Dispatch
steers each instruction into one of N in-order FIFOs using the classic
heuristic: follow your producer if it is at the tail of a FIFO, start an
empty FIFO otherwise, stall if neither applies.  Only FIFO heads are
examined for issue — the shared kernel helpers
(:meth:`~repro.sim.core.TimingCore.issue_in_order` per due FIFO of the
kernel's active-window index, whose horizon is
:meth:`~repro.sim.core.TimingCore.window_issue_horizon`) — so scheduling
complexity is linear in the number of FIFOs rather than in the window
size.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from ..uarch.funit import FunctionalUnitPool
from .config import CoreKind, MachineConfig, depsteer_config
from .core import TimingCore, WInst
from .registry import CoreDescriptor, register_core
from .workload import PreparedWorkload


def _inject_fifo(core: "DependenceSteeringCore", rng) -> Optional[str]:
    """Flip one occupied steering FIFO's head pointer (a rotation)."""
    occupied = [fifo for fifo in core._fifos if fifo]
    if not occupied:
        return None
    fifo = occupied[rng.randrange(len(occupied))]
    direction = rng.choice((-1, 1))
    fifo.rotate(direction)
    return f"steering FIFO pointer bit flip (rotated {direction:+d})"


class DependenceSteeringCore(TimingCore):
    """Out-of-order performance from in-order FIFOs plus dependence steering."""

    fault_structures = ("scheduler",)
    fault_injectors = {"scheduler": _inject_fifo}

    @classmethod
    def scheduler_comparators(cls, config: MachineConfig) -> int:
        return 0  # only FIFO heads are examined; no wakeup CAM

    @classmethod
    def wakeup_energy_entries(cls, config: MachineConfig) -> int:
        return config.clusters  # one head check per FIFO per completing tag

    def __init__(self, workload: PreparedWorkload, config: MachineConfig) -> None:
        super().__init__(workload, config)
        self.fus = FunctionalUnitPool(config.functional_units)
        self._fifos: List[deque] = [deque() for _ in range(config.clusters)]
        self._cluster_entries = config.cluster_entries
        self.init_window_index(config.clusters)

    # -------------------------------------------------------------- steering
    def _steer(self, winst: WInst) -> Optional[int]:
        """Palacharla-style FIFO choice, or None to stall."""
        capacity = self._cluster_entries
        fifos = self._fifos
        # Rule 1: an in-flight producer sitting at the tail of a FIFO lets the
        # chain continue in that FIFO.
        for producer, _internal in winst.deps:
            if producer is None or producer.done or producer.issue_cycle is not None:
                continue
            fifo_index = producer.cluster
            if fifo_index < 0:
                continue
            fifo = fifos[fifo_index]
            if fifo and fifo[-1] is producer and len(fifo) < capacity:
                return fifo_index
        # Rule 2: otherwise open a new chain in an empty FIFO.
        for fifo_index, fifo in enumerate(fifos):
            if not fifo:
                return fifo_index
        return None

    def accept(self, winst: WInst, cycle: int) -> bool:
        fifo_index = self._steer(winst)
        if fifo_index is None:
            return False
        winst.cluster = fifo_index
        self._fifos[fifo_index].append(winst)
        return True

    def on_fast_forward(self) -> None:
        # Every steered chain has issued by drain time; clear the FIFOs so a
        # sampling gap cannot carry stale chains into the next window.
        for fifo in self._fifos:
            fifo.clear()

    def dispatch_block_cause(self) -> str:
        return "structural_fifo"

    def scheduler_occupancy(self) -> int:
        return sum(len(fifo) for fifo in self._fifos)

    def core_invariants(self, cycle: int):
        capacity = self.config.cluster_entries
        total = 0
        for index, fifo in enumerate(self._fifos):
            total += len(fifo)
            yield from self.fifo_invariants(
                f"FIFO {index}", fifo, capacity, cluster=index
            )
        yield from self.occupancy_sum_invariant("FIFO", total)

    # ------------------------------------------------------------------ issue
    on_ready = TimingCore.window_ready
    issue_horizon = TimingCore.window_issue_horizon

    def issue_stage(self, cycle: int) -> None:
        # Each due FIFO's head is examined once per cycle; a blocked head
        # does not stop the scan across FIFOs (only within its own chain).
        budget = self.config.issue_width
        fus = self.fus
        fifos = self._fifos
        issue_in_order = self.issue_in_order
        due = self.due_windows(cycle)
        while due:
            if budget == 0:
                self._windows_due |= due
                break
            low = due & -due
            due ^= low
            index = low.bit_length() - 1
            fifo = fifos[index]
            if not fifo:
                continue
            budget -= issue_in_order(fifo, index, cycle, fus, 1)


register_core(CoreDescriptor(
    kind=CoreKind.DEP_STEER,
    key="depsteer",
    core_class=DependenceSteeringCore,
    config_factory=depsteer_config,
    description="dependence-steering FIFOs (Palacharla et al. style)",
))
