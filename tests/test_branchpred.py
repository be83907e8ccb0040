"""Unit tests for branch predictors."""

import random

import pytest

from repro.uarch.branchpred import (
    LANE,
    LANE_BITS,
    MAX_HISTORY_BITS,
    WEIGHT_OFFSET,
    AlwaysTakenPredictor,
    BimodalPredictor,
    PerceptronPredictor,
    PerfectPredictor,
    make_predictor,
)


def weights(predictor, index):
    """Entry ``index``'s signed weights, bias first, unpacked."""
    row = predictor.rows[index]
    return [predictor.bias[index]] + [
        ((row >> (LANE_BITS * lane)) & LANE) - WEIGHT_OFFSET
        for lane in range(predictor.history_bits)
    ]


def history(predictor):
    """The global history as +1/-1 per bit, most recent first."""
    return [
        1 if (predictor.history >> (LANE_BITS * lane)) & LANE else -1
        for lane in range(predictor.history_bits)
    ]


class ReferencePerceptron:
    """The textbook perceptron: plain lists, one loop per weight, each
    weight clipped to the int8 range."""

    def __init__(self, entries: int, history_bits: int) -> None:
        self.entries = entries
        self.theta = int(1.93 * history_bits + 14)
        self.weights = [[0] * (history_bits + 1) for _ in range(entries)]
        self.history = [1] * history_bits
        self.last_sum = 0

    def predict(self, pc: int) -> bool:
        row = self.weights[(pc >> 3) & (self.entries - 1)]
        total = row[0]
        for weight, bit in zip(row[1:], self.history):
            total += weight * bit
        self.last_sum = total
        return total >= 0

    def update(self, pc: int, taken: bool) -> None:
        row = self.weights[(pc >> 3) & (self.entries - 1)]
        outcome = 1 if taken else -1
        if (self.last_sum >= 0) != taken or abs(self.last_sum) <= self.theta:
            row[0] = max(-128, min(127, row[0] + outcome))
            for i, bit in enumerate(self.history):
                row[i + 1] = max(-128, min(127, row[i + 1] + outcome * bit))
        self.history = [outcome] + self.history[:-1]


def assert_same_state(packed, reference):
    assert history(packed) == reference.history
    assert packed.taken_count == reference.history.count(1)
    for index, row in enumerate(reference.weights):
        assert weights(packed, index) == row


def accuracy(predictor, stream):
    correct = 0
    for pc, taken in stream:
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.update(pc, taken)
    return correct / len(stream)


class TestFactory:
    @pytest.mark.parametrize(
        "kind,cls",
        [
            ("perfect", PerfectPredictor),
            ("perceptron", PerceptronPredictor),
            ("bimodal", BimodalPredictor),
            ("taken", AlwaysTakenPredictor),
        ],
    )
    def test_kinds(self, kind, cls):
        assert isinstance(make_predictor(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_predictor("psychic")


class TestBimodal:
    def test_learns_biased_branch(self):
        stream = [(0x1000, True)] * 100
        assert accuracy(BimodalPredictor(), stream) > 0.95

    def test_hysteresis_tolerates_single_flip(self):
        predictor = BimodalPredictor()
        for _ in range(10):
            predictor.predict(0x1000)
            predictor.update(0x1000, True)
        predictor.update(0x1000, False)  # one not-taken
        assert predictor.predict(0x1000) is True

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            BimodalPredictor(entries=1000)


class TestPerceptron:
    def test_paper_configuration(self):
        predictor = PerceptronPredictor()
        assert predictor.entries == 512
        assert predictor.history_bits == 64
        assert predictor.theta == int(1.93 * 64 + 14)

    def test_learns_always_taken(self):
        stream = [(0x2000, True)] * 200
        assert accuracy(PerceptronPredictor(), stream) > 0.95

    def test_learns_periodic_pattern(self):
        # T T T N repeating: bimodal cannot exceed ~75%; a history-based
        # perceptron learns it nearly perfectly after warm-up.
        pattern = [True, True, True, False] * 250
        stream = [(0x3000, taken) for taken in pattern]
        perceptron_accuracy = accuracy(PerceptronPredictor(), stream)
        assert perceptron_accuracy > 0.9

    def test_periodic_beats_bimodal(self):
        pattern = [True, True, False] * 300
        stream = [(0x3000, taken) for taken in pattern]
        assert accuracy(PerceptronPredictor(), stream) > accuracy(
            BimodalPredictor(), stream
        )

    def test_weights_saturate(self):
        predictor = PerceptronPredictor()
        for _ in range(10_000):
            predictor.predict(0x100)
            predictor.update(0x100, True)
        every = [w for index in range(predictor.entries)
                 for w in weights(predictor, index)]
        assert max(every) <= 127
        assert min(every) >= -128

    def test_history_tracks_outcomes(self):
        predictor = PerceptronPredictor()
        predictor.predict(0x10)
        predictor.update(0x10, True)
        predictor.predict(0x10)
        predictor.update(0x10, False)
        assert history(predictor)[0] == -1
        assert history(predictor)[1] == 1

    @pytest.mark.parametrize("history_bits", [0, MAX_HISTORY_BITS + 1])
    def test_rejects_a_history_whose_lane_sum_could_overflow(
        self, history_bits
    ):
        with pytest.raises(ValueError, match="history_bits"):
            PerceptronPredictor(history_bits=history_bits)

    def test_longest_history_fits_its_lanes(self):
        assert MAX_HISTORY_BITS * 255 < LANE
        PerceptronPredictor(entries=1, history_bits=MAX_HISTORY_BITS)


class TestPerceptronMatchesReference:
    """The packed perceptron predicts and trains bit for bit like the
    plain reference model."""

    @pytest.mark.parametrize(
        "entries,history_bits,seed",
        [(512, 64, 0), (16, 8, 1), (64, 16, 2), (8, 64, 3), (4, 256, 4)],
    )
    def test_random_streams(self, entries, history_bits, seed):
        rng = random.Random(seed)
        packed = PerceptronPredictor(entries, history_bits)
        reference = ReferencePerceptron(entries, history_bits)
        # Four times as many pcs as entries, so pcs alias, each biased.
        pcs = [rng.randrange(1 << 20) << 3 for _ in range(4 * entries)]
        bias = [rng.random() for _ in pcs]
        for step in range(3_000):
            slot = rng.randrange(len(pcs))
            pc, taken = pcs[slot], rng.random() < bias[slot]
            assert packed.predict(pc) == reference.predict(pc), step
            assert packed._last_sum == reference.last_sum, step
            packed.update(pc, taken)
            reference.update(pc, taken)
        assert_same_state(packed, reference)

    @pytest.mark.parametrize("history_bits", [8, 16, 64])
    def test_saturating_updates(self, history_bits):
        # Updates with no prediction before them always train (the last
        # sum stays 0).  10k in one direction drive the weights to the
        # top bound; alternating outcomes then drive every other lane to
        # the bottom one.
        packed = PerceptronPredictor(4, history_bits)
        reference = ReferencePerceptron(4, history_bits)
        phases = (
            ("taken", lambda step: True),
            ("not taken", lambda step: False),
            ("alternating", lambda step: step % 2 == 0),
        )
        for phase, outcome in phases:
            for step in range(10_000):
                packed.update(0x100, outcome(step))
                reference.update(0x100, outcome(step))
            assert_same_state(packed, reference)
            if phase == "not taken":
                assert weights(packed, 0) == [-128] + [127] * history_bits
        assert weights(packed, 0)[1:] == [-128, 127] * (history_bits // 2)
        assert packed.predict(0x100) == reference.predict(0x100)
        assert packed._last_sum == reference.last_sum


class TestPerfect:
    def test_flag(self):
        assert PerfectPredictor.is_perfect
        assert not PerceptronPredictor.is_perfect
