"""Checkpoint management for branch recovery (paper section 3.4).

Checkpoints are created for every in-flight branch; recovering from a
misprediction restores the most recent checkpoint older than the branch.
The braid microarchitecture needs *less* checkpoint state than a
conventional core because internal register values never cross basic-block
boundaries and therefore are not checkpointed; the model exposes the state
size so analyses can quantify that saving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


@dataclass
class Checkpoint:
    """One recovery point: branch sequence number plus saved state size."""

    seq: int
    state_words: int


class CheckpointManager:
    """Bounded stack of in-flight branch checkpoints."""

    def __init__(self, capacity: int, state_words_per_checkpoint: int) -> None:
        if capacity <= 0:
            raise ValueError("checkpoint capacity must be positive")
        self.capacity = capacity
        self.state_words = state_words_per_checkpoint
        self._stack: List[Checkpoint] = []
        self.created = 0
        self.restored = 0
        self.stalls = 0

    @property
    def occupancy(self) -> int:
        return len(self._stack)

    def can_take(self) -> bool:
        return len(self._stack) < self.capacity

    def take(self, seq: int) -> bool:
        """Create a checkpoint for branch ``seq``; False when full."""
        if not self.can_take():
            self.stalls += 1
            return False
        self._stack.append(Checkpoint(seq=seq, state_words=self.state_words))
        self.created += 1
        return True

    def release_older_than(self, seq: int) -> None:
        """Branch ``seq`` retired: free its checkpoint and any older ones."""
        self._stack = [cp for cp in self._stack if cp.seq > seq]

    def restore(self, seq: int) -> Optional[Checkpoint]:
        """Misprediction at branch ``seq``: squash younger checkpoints."""
        target: Optional[Checkpoint] = None
        survivors: List[Checkpoint] = []
        for checkpoint in self._stack:
            if checkpoint.seq < seq:
                survivors.append(checkpoint)
            elif checkpoint.seq == seq:
                target = checkpoint
        self._stack = survivors
        if target is not None:
            self.restored += 1
        return target

    def seqs(self) -> tuple:
        """Branch sequence numbers of live checkpoints, oldest first."""
        return tuple(cp.seq for cp in self._stack)

    def live(self) -> List[Checkpoint]:
        """Live checkpoints, oldest first (mutable — the fault injectors
        in :mod:`repro.faults` flip tag bits on these)."""
        return list(self._stack)
