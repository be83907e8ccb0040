"""In-order core: the paper's lower-bound paradigm (Figure 13).

One issue queue; instructions issue strictly in program order, up to the
issue width per cycle, stalling at the first instruction whose operands or
resources are not ready.  The front end, memory system, and retirement are
identical to the conventional machine.  The issue mechanics are the shared
kernel helpers (:meth:`~repro.sim.core.TimingCore.issue_in_order` and the
active-window index behind
:meth:`~repro.sim.core.TimingCore.window_issue_horizon`) applied to a
single FIFO, window 0.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..uarch.funit import FunctionalUnitPool
from .config import CoreKind, MachineConfig, inorder_config
from .core import TimingCore, WInst
from .registry import CoreDescriptor, register_core
from .workload import PreparedWorkload


def _inject_queue(core: "InOrderCore", rng) -> Optional[str]:
    """Flip the issue queue's head pointer (modeled as a rotation)."""
    queue = core._queue
    if len(queue) < 1:
        return None
    direction = rng.choice((-1, 1))
    queue.rotate(direction)
    return f"issue-queue pointer bit flip (rotated {direction:+d})"


class InOrderCore(TimingCore):
    """Strictly in-order issue at the configured width."""

    fault_structures = ("scheduler",)
    fault_injectors = {"scheduler": _inject_queue}
    #: no rename stage: architectural registers are read/written in place
    renames_registers = False
    #: recovery needs only the architectural map — no speculative values
    checkpoints_value_entries = False

    @classmethod
    def scheduler_comparators(cls, config: MachineConfig) -> int:
        return 0  # only the queue head is examined; no wakeup CAM

    @classmethod
    def wakeup_energy_entries(cls, config: MachineConfig) -> int:
        return config.clusters  # one head check per completing tag

    def __init__(self, workload: PreparedWorkload, config: MachineConfig) -> None:
        super().__init__(workload, config)
        self.fus = FunctionalUnitPool(config.functional_units)
        self._queue: deque = deque()
        self.init_window_index(1)

    def accept(self, winst: WInst, cycle: int) -> bool:
        if len(self._queue) >= self.config.window_capacity:
            return False
        self._queue.append(winst)
        winst.cluster = 0
        return True

    def on_fast_forward(self) -> None:
        # A drained pipeline has issued everything; clear defensively so a
        # sampling gap can never leak queue occupancy into the next window.
        self._queue.clear()

    def scheduler_occupancy(self) -> int:
        return len(self._queue)

    def core_invariants(self, cycle: int):
        yield from self.fifo_invariants(
            "issue queue", self._queue, self.config.window_capacity
        )
        yield from self.occupancy_sum_invariant(
            "issue queue", len(self._queue)
        )

    on_ready = TimingCore.window_ready
    issue_horizon = TimingCore.window_issue_horizon

    def issue_stage(self, cycle: int) -> None:
        if self.due_windows(cycle):
            self.issue_in_order(
                self._queue, 0, cycle, self.fus, self.config.issue_width
            )


register_core(CoreDescriptor(
    kind=CoreKind.IN_ORDER,
    key="inorder",
    core_class=InOrderCore,
    config_factory=inorder_config,
    description="strictly in-order issue (lower-bound paradigm)",
))
