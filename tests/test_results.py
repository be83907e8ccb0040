"""Unit tests for simulation result containers."""

import pytest

from repro.sim.results import SimResult, StallCounters


def make(benchmark="gcc", machine="ooo-8w", cycles=1000, instructions=2500):
    return SimResult(
        benchmark=benchmark,
        machine=machine,
        cycles=cycles,
        instructions=instructions,
    )


class TestIpc:
    def test_ipc(self):
        assert make().ipc == 2.5

    def test_zero_cycles(self):
        assert make(cycles=0).ipc == 0.0

    def test_mispredict_rate(self):
        result = make()
        result.branches = 100
        result.mispredicts = 7
        assert result.mispredict_rate == pytest.approx(0.07)

    def test_mispredict_rate_no_branches(self):
        assert make().mispredict_rate == 0.0


class TestSpeedup:
    def test_speedup_over(self):
        fast = make(cycles=500)
        slow = make(cycles=1000)
        assert fast.speedup_over(slow) == pytest.approx(2.0)

    def test_rejects_cross_benchmark(self):
        with pytest.raises(ValueError, match="different benchmarks"):
            make(benchmark="gcc").speedup_over(make(benchmark="vpr"))

    def test_zero_baseline(self):
        baseline = make(cycles=0)
        assert make().speedup_over(baseline) == 0.0


class TestStallCounters:
    def test_as_dict_covers_all_fields(self):
        counters = StallCounters()
        counters.rename_width = 3
        data = counters.as_dict()
        assert data["rename_width"] == 3
        assert set(data) == {
            "fetch_buffer_empty", "alloc_width", "rename_width",
            "regfile_entries", "structure_full", "checkpoints",
            "in_flight_cap",
        }

    def test_summary_format(self):
        text = make().summary()
        assert "gcc" in text and "ooo-8w" in text and "IPC" in text


class TestCounterCoverage:
    """issued/stalls denominators: exact runs cover the whole trace,
    sampled runs cover only the measured windows."""

    def make_sampled(self):
        result = make()
        result.sampled = True
        result.sample_measured_instructions = 500
        result.issued = 600
        result.stalls.structure_full = 50
        return result

    def test_exact_counters_cover_whole_trace(self):
        result = make()
        result.issued = 3000
        assert result.counters_cover == result.instructions

    def test_sampled_counters_cover_measured_windows_only(self):
        result = self.make_sampled()
        assert result.counters_cover == 500

    def test_stall_rates_normalize_per_mode(self):
        exact = make()
        exact.stalls.structure_full = 250
        sampled = self.make_sampled()
        # 250/2500 vs 50/500: identical *rates* despite wildly different
        # raw counters — the comparison that raw mixing would get wrong.
        for result in (exact, sampled):
            rate = result.stalls.structure_full / result.counters_cover
            assert rate == pytest.approx(0.1)
