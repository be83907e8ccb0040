"""CG-OoO-style block-granular coarse out-of-order core (fifth paradigm).

The design point between the in-order and full out-of-order machines
modeled after CG-OoO (coarse-grain out-of-order, PAPERS.md): scheduling
decisions are made at *block* granularity instead of per instruction.
Dispatch steers each code block — a run of instructions ending at a
branch or at :data:`_BLOCK_CAP` entries — whole into the least-occupied
block window.  Across windows execution is out of order (every window's
head region is examined each cycle, oldest-window-first); within a window
a small skip-ahead region of ``beu_window`` entries may issue out of
order, so the expensive broadcast wakeup CAM shrinks to the few examined
entries per window while most of the window is a cheap FIFO RAM.

The entire paradigm is this one file: the timing model composes the
shared kernel helpers (:meth:`~repro.sim.core.TimingCore.issue_skipahead`
with a global budget over the due windows of the kernel's active-window
index, :meth:`~repro.sim.core.TimingCore.window_issue_horizon`, the
shared FIFO invariants), the config
factory derives from the conventional machine, the fault injector and
complexity/energy declarations ride the class, and the registry entry at
the bottom makes validation, fault campaigns, observability, and both
timing kernels apply with no per-layer edits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import List, Optional

from ..uarch.funit import FunctionalUnitPool
from ..uarch.regfile import RegFileSpec
from .config import CoreKind, MachineConfig, ooo_config
from .core import TimingCore, WInst
from .registry import CoreDescriptor, register_core
from .workload import PreparedWorkload

#: block delimiter: a block ends at a branch or after this many entries
_BLOCK_CAP = 8


def blockooo_config(width: int = 8, **overrides) -> MachineConfig:
    """Block-granular coarse out-of-order machine at ``width``.

    Derived from the conventional machine with the structures CG-OoO
    shrinks: half-depth block windows (16 entries each), a 3-entry
    skip-ahead region per window in place of full-window wakeup, a
    half-size register file, and a 2-level bypass.
    """
    base = ooo_config(width)
    config = replace(
        base,
        kind=CoreKind.BLOCK_OOO,
        name=f"blockooo-{width}w",
        regfile=RegFileSpec(entries=16 * width, read_ports=2 * width,
                            write_ports=width),
        bypass_levels=2,
        cluster_entries=16,
        beu_window=3,
        max_in_flight=width * 16,
    )
    return replace(config, **overrides) if overrides else config


def _inject_block_window(core: "BlockOoOCore", rng) -> Optional[str]:
    """Flip one occupied block window's head pointer (a rotation)."""
    occupied = [window for window in core._windows if window]
    if not occupied:
        return None
    window = occupied[rng.randrange(len(occupied))]
    direction = rng.choice((-1, 1))
    window.rotate(direction)
    return f"block-window pointer bit flip (rotated {direction:+d})"


class BlockOoOCore(TimingCore):
    """Block-steered dispatch, inter-block OoO, small intra-block windows."""

    fault_structures = ("scheduler",)
    fault_injectors = {"scheduler": _inject_block_window}

    @classmethod
    def scheduler_comparators(cls, config: MachineConfig) -> int:
        # Limited wakeup: only the skip-ahead entries of each window carry
        # tag comparators; the rest of the window is FIFO RAM.
        return (
            config.clusters * config.beu_window * 2 * config.issue_width
        )

    @classmethod
    def wakeup_energy_entries(cls, config: MachineConfig) -> int:
        return config.clusters * config.beu_window

    def __init__(self, workload: PreparedWorkload, config: MachineConfig) -> None:
        super().__init__(workload, config)
        self.fus = FunctionalUnitPool(config.functional_units)
        self._windows: List[deque] = [
            deque() for _ in range(config.clusters)
        ]
        #: window receiving the currently open block (-1 between blocks)
        self._open_window = -1
        self._block_len = 0
        self.init_window_index(config.clusters)

    # -------------------------------------------------------------- dispatch
    def accept(self, winst: WInst, cycle: int) -> bool:
        windows = self._windows
        capacity = self.config.cluster_entries
        index = self._open_window
        if index < 0:
            # Steer the new block whole to the least-occupied window
            # (first-minimum tie-break, early exit on an empty window —
            # the same argmin scan the conventional core's dispatch uses).
            best = 0
            best_len = len(windows[0])
            if best_len:
                for i in range(1, len(windows)):
                    occupancy = len(windows[i])
                    if occupancy < best_len:
                        best = i
                        best_len = occupancy
                        if not occupancy:
                            break
            if best_len >= capacity:
                return False
            index = best
            self._open_window = index
            self._block_len = 0
        window = windows[index]
        if len(window) >= capacity:
            # A block outgrowing its window stalls dispatch until the
            # window head drains (the braid's Figure 10 effect, at block
            # granularity).
            return False
        window.append(winst)
        winst.cluster = index
        self._block_len += 1
        if winst.is_branch or self._block_len >= _BLOCK_CAP:
            self._open_window = -1  # block ends; the next starts fresh
        return True

    def on_fast_forward(self) -> None:
        # Post-drain every window is empty; drop the open-block pointer so
        # the next sampled window starts a fresh block on a clean core.
        for window in self._windows:
            window.clear()
        self._open_window = -1
        self._block_len = 0

    def dispatch_block_cause(self) -> str:
        return "structural_fifo"

    def scheduler_occupancy(self) -> int:
        return sum(len(window) for window in self._windows)

    def core_invariants(self, cycle: int):
        if not -1 <= self._open_window < len(self._windows):
            yield (
                f"open-block pointer {self._open_window} outside "
                f"[-1, {len(self._windows)})"
            )
        capacity = self.config.cluster_entries
        total = 0
        for index, window in enumerate(self._windows):
            total += len(window)
            yield from self.fifo_invariants(
                f"block window {index}", window, capacity, cluster=index
            )
        yield from self.occupancy_sum_invariant("block window", total)

    # ------------------------------------------------------------------ issue
    on_ready = TimingCore.window_ready
    issue_horizon = TimingCore.window_issue_horizon

    def issue_stage(self, cycle: int) -> None:
        # Oldest-window-first over the due windows; windows the budget
        # does not reach stay due for the next cycle.
        budget = self.config.issue_width
        cap = self.config.beu_window
        fus = self.fus
        windows = self._windows
        issue_skipahead = self.issue_skipahead
        due = self.due_windows(cycle)
        while due:
            if budget == 0:
                self._windows_due |= due
                break
            low = due & -due
            due ^= low
            index = low.bit_length() - 1
            window = windows[index]
            if not window:
                continue
            budget -= issue_skipahead(
                window, index, cycle, min(cap, len(window)), fus,
                max_issues=budget,
            )


register_core(CoreDescriptor(
    kind=CoreKind.BLOCK_OOO,
    key="blockooo",
    core_class=BlockOoOCore,
    config_factory=blockooo_config,
    description="block-granular coarse out-of-order (CG-OoO style)",
))
