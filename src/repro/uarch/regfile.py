"""Register file entry and port models.

The timing cores do not store values (the functional executor did); what a
register file contributes to timing is *structural*: a bounded number of
in-flight value entries, and bounded read/write ports per cycle.

Entry model (see DESIGN.md substitutions): an entry is allocated when an
instruction with a register destination dispatches and released when it
retires — the file holds the in-flight value window, backed by an
architectural file that is not on the critical path.  This is the pressure
both paper sweeps measure (Figure 5 for the out-of-order register file,
Figure 6 for the braid external file).
"""

from __future__ import annotations

from dataclasses import dataclass


class PortMeter:
    """Per-cycle consumable ports (reads or writes)."""

    def __init__(self, ports: int) -> None:
        if ports <= 0:
            raise ValueError("a port meter needs at least one port")
        self.ports = ports
        self._cycle = -1
        self._used = 0
        self.total_grants = 0
        self.total_denials = 0

    def _roll(self, cycle: int) -> None:
        if cycle != self._cycle:
            self._cycle = cycle
            self._used = 0

    def available(self, cycle: int) -> int:
        self._roll(cycle)
        return self.ports - self._used

    def acquire(self, cycle: int, count: int = 1) -> bool:
        """Take ``count`` ports this cycle; all-or-nothing."""
        self._roll(cycle)
        if self._used + count > self.ports:
            self.total_denials += 1
            return False
        self._used += count
        self.total_grants += count
        return True


class RegisterFileModel:
    """Bounded in-flight entries plus read/write port meters."""

    def __init__(self, entries: int, read_ports: int, write_ports: int) -> None:
        if entries <= 0:
            raise ValueError("register file needs at least one entry")
        self.entries = entries
        self.read = PortMeter(read_ports)
        self.write = PortMeter(write_ports)
        self.in_flight = 0
        self.alloc_stalls = 0

    def allocate(self) -> bool:
        """Claim an entry for a new in-flight destination value."""
        if self.in_flight >= self.entries:
            self.alloc_stalls += 1
            return False
        self.in_flight += 1
        return True

    def release(self) -> None:
        """Return an entry (the producing instruction retired)."""
        if self.in_flight <= 0:
            raise RuntimeError("register file release underflow")
        self.in_flight -= 1


@dataclass(frozen=True)
class RegFileSpec:
    """Configuration triple for building a :class:`RegisterFileModel`."""

    entries: int
    read_ports: int
    write_ports: int

    def build(self) -> RegisterFileModel:
        return RegisterFileModel(self.entries, self.read_ports, self.write_ports)
