"""The braid execution unit (paper Figure 4(b)).

Each BEU holds: a FIFO instruction queue (32 entries by default), a small
in-order scheduling window at the FIFO head (2 entries), two functional
units, a busy-bit vector tracking external value readiness, and an 8-entry
internal register file with 4 read / 2 write ports whose values die when the
braid finishes.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..uarch.busybits import BusyBitVector
from ..uarch.funit import FunctionalUnitPool
from ..uarch.regfile import PortMeter, RegFileSpec
from .config import MachineConfig


class BraidExecutionUnit:
    """One BEU: FIFO queue + in-order window + private internal state."""

    def __init__(self, beu_id: int, config: MachineConfig) -> None:
        self.beu_id = beu_id
        self.config = config
        self.fifo: deque = deque()  # not-yet-issued instructions, FIFO order
        self.fus = FunctionalUnitPool(config.beu_functional_units)
        spec: Optional[RegFileSpec] = config.internal_regfile
        if spec is None:
            spec = RegFileSpec(entries=8, read_ports=4, write_ports=2)
        self.internal_reads = PortMeter(spec.read_ports)
        self.internal_writes = PortMeter(spec.write_ports)
        self.busybits = BusyBitVector(config.regfile.entries)
        self.braids_accepted = 0
        self.instructions_issued = 0

    # --------------------------------------------------------------- capacity
    @property
    def drained(self) -> bool:
        """All accepted instructions have issued."""
        return not self.fifo

    def can_accept_braid(self) -> bool:
        """May a *new* braid be distributed to this BEU?

        Paper default: "A BEU can accept a new braid if it is not processing
        another braid" — i.e. only when drained.  The ``beu_queue_braids``
        ablation relaxes this to simple FIFO-space availability.
        """
        if self.config.beu_queue_braids:
            return len(self.fifo) < self.config.cluster_entries
        return self.drained

    def start_braid(self) -> None:
        self.braids_accepted += 1
