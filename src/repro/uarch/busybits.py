"""Busy-bit vector (paper section 3.3).

Each BEU holds a busy-bit vector — one bit per external register file entry,
in the style of the MIPS R10000 — that tracks whether an external value is
ready.  With an 8-entry external file the whole structure is 8 bits, and the
paper notes synchronizing it across BEUs is easy because only ~2 external
values are produced per cycle.

In the simulator the readiness information itself comes from the dependence
scoreboard; this class models the *structure*: a bounded number of busy bits
(one per tracked in-flight external value) with set/clear accounting, so
tests and complexity analyses can reason about its size and traffic.
"""

from __future__ import annotations

from typing import Dict, Set


class BusyBitVector:
    """Bounded set of busy (not-yet-ready) external value tags."""

    def __init__(self, bits: int) -> None:
        if bits <= 0:
            raise ValueError("busy-bit vector needs at least one bit")
        self.bits = bits
        self._busy: Set[int] = set()
        self.set_events = 0
        self.clear_events = 0

    def mark_busy(self, tag: int) -> bool:
        """Mark an external value outstanding; False when out of bits."""
        if len(self._busy) >= self.bits and tag not in self._busy:
            return False
        self._busy.add(tag)
        self.set_events += 1
        return True

    def mark_ready(self, tag: int) -> None:
        self._busy.discard(tag)
        self.clear_events += 1

    def toggle(self, tag: int) -> None:
        """Invert one bit (transient-fault model: a single-event upset
        either clears a busy bit early or sets a spurious one)."""
        if tag in self._busy:
            self.mark_ready(tag)
        else:
            self.mark_busy(tag)

    @property
    def occupancy(self) -> int:
        return len(self._busy)

    def snapshot(self) -> Dict[int, bool]:
        """Tag -> busy view (for tests)."""
        return {tag: True for tag in self._busy}
