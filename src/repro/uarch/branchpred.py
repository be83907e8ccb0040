"""Branch predictors.

The paper's front end uses a perceptron predictor with a 64-bit global
history and a 512-entry weight table (Table 4).  A perfect predictor backs
the Figure 1 potential-performance study.
"""

from __future__ import annotations

from typing import Protocol


class BranchPredictor(Protocol):
    """Predict-then-update interface, driven in program (fetch) order."""

    def predict(self, pc: int) -> bool: ...

    def update(self, pc: int, taken: bool) -> None: ...


class PerfectPredictor:
    """Oracle predictor: every prediction is correct by construction."""

    is_perfect = True

    def predict(self, pc: int) -> bool:  # pragma: no cover - trivial
        return True

    def update(self, pc: int, taken: bool) -> None:  # pragma: no cover
        return None


class AlwaysTakenPredictor:
    """Static predict-taken baseline."""

    is_perfect = False

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        return None


class BimodalPredictor:
    """Classic 2-bit saturating counter table (cheap baseline)."""

    is_perfect = False

    def __init__(self, entries: int = 4096) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counters = bytearray([2]) * entries  # weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 3) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        value = self.counters[index]
        if taken:
            self.counters[index] = min(3, value + 1)
        else:
            self.counters[index] = max(0, value - 1)


#: bits per packed perceptron weight
LANE_BITS = 16
#: one full lane, and the modulus whose remainder sums a row's lanes
LANE = (1 << LANE_BITS) - 1
#: a stored weight is the signed int8 weight plus this offset: 0..255
WEIGHT_OFFSET = 128
WEIGHT_MAX = 255
#: the longest history whose lane sum stays below :data:`LANE`
MAX_HISTORY_BITS = (LANE - 1) // WEIGHT_MAX


class PerceptronPredictor:
    """Perceptron predictor (Jiménez & Lin) with the paper's configuration.

    512 perceptrons, each with a bias weight plus one weight per bit of a
    64-bit global history.  Training uses the standard threshold rule
    ``theta = floor(1.93 * h + 14)``, and every weight saturates at the
    int8 range -128..127.

    Each perceptron's history weights are packed into one int, lane ``i``
    (bits ``16i`` to ``16i + 15``) holding weight ``i`` plus 128; its bias
    is a separate signed int.  The global history (most recent outcome
    in lane 0) is a lane mask, each lane ``LANE`` where that outcome was
    taken (+1) and 0 where it was not (-1), plus the count of taken
    lanes.  DESIGN.md ("Packed perceptron") shows why predictions and
    updates are exact.
    """

    is_perfect = False

    def __init__(self, entries: int = 512, history_bits: int = 64) -> None:
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        if not 1 <= history_bits <= MAX_HISTORY_BITS:
            raise ValueError(
                f"history_bits must be 1..{MAX_HISTORY_BITS}, not "
                f"{history_bits}: a lane sum of {history_bits} weights of "
                f"up to {WEIGHT_MAX} would overflow {LANE_BITS}-bit lanes"
            )
        self.entries = entries
        self.history_bits = history_bits
        self.theta = int(1.93 * history_bits + 14)
        #: a 1 in the lowest bit of every lane
        self._ones = sum(1 << (LANE_BITS * i) for i in range(history_bits))
        self._lanes = self._ones * LANE
        self._top = LANE_BITS * (history_bits - 1)
        self.rows = [self._ones * WEIGHT_OFFSET] * entries
        self.bias = [0] * entries
        self.history = self._lanes
        self.taken_count = history_bits
        self._last_sum = 0

    def predict(self, pc: int) -> bool:
        index = (pc >> 3) & (self.entries - 1)
        row = self.rows[index]
        # w.h = (taken lanes) - (the other lanes), less the offsets: the
        # remainder mod LANE of a row is the sum of its lanes.
        total = (
            self.bias[index]
            + 2 * ((row & self.history) % LANE)
            - row % LANE
            + WEIGHT_OFFSET * (self.history_bits - 2 * self.taken_count)
        )
        self._last_sum = total
        return total >= 0

    def update(self, pc: int, taken: bool) -> None:
        index = (pc >> 3) & (self.entries - 1)
        history = self.history
        last = self._last_sum
        if (last >= 0) != taken or abs(last) <= self.theta:
            ones = self._ones
            row = self.rows[index]
            agree = history & ones
            if taken:
                up, down = agree, ones ^ agree
                self.bias[index] = min(self.bias[index] + 1, 127)
            else:
                up, down = ones ^ agree, agree
                self.bias[index] = max(self.bias[index] - 1, -128)
            # Adding 1 sets bit 8 of a lane only at 255; adding 255 sets
            # it in every lane above 0.  No lane carries into the next.
            at_max = ((row + ones) >> 8) & ones
            above_min = ((row + ones * WEIGHT_MAX) >> 8) & ones
            self.rows[index] = row + (up & ~at_max) - (down & above_min)
        self.taken_count -= (history >> self._top) & 1
        history = (history << LANE_BITS) & self._lanes
        if taken:
            history |= LANE
            self.taken_count += 1
        self.history = history


def make_predictor(kind: str) -> BranchPredictor:
    """Factory: ``perfect``, ``perceptron``, ``bimodal`` or ``taken``."""
    if kind == "perfect":
        return PerfectPredictor()
    if kind == "perceptron":
        return PerceptronPredictor()
    if kind == "bimodal":
        return BimodalPredictor()
    if kind == "taken":
        return AlwaysTakenPredictor()
    raise ValueError(f"unknown predictor kind {kind!r}")
