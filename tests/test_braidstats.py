"""Tests for braid statistics (paper Tables 1-3)."""

import pytest

from repro.analysis.braidstats import (
    BraidRecord,
    SuiteBraidStats,
    braid_statistics,
)
from repro.core import braidify
from repro.isa import assemble


class TestOnPaperKernel:
    def test_block_count(self, gcc_life, gcc_life_compiled):
        stats = braid_statistics(gcc_life_compiled, suite="int")
        assert stats.basic_blocks == len(gcc_life.blocks)

    def test_braid_sizes_positive(self, gcc_life_compiled):
        stats = braid_statistics(gcc_life_compiled, suite="int")
        assert all(record.size >= 1 for record in stats.records)

    def test_singles_identified(self, gcc_life_compiled):
        stats = braid_statistics(gcc_life_compiled, suite="int")
        singles = [r for r in stats.records if r.is_single]
        assert singles
        assert stats.braids_per_block() > stats.braids_per_block(
            exclude_singles=True
        )

    def test_widths_at_least_one(self, gcc_life_compiled):
        stats = braid_statistics(gcc_life_compiled, suite="int")
        for record in stats.records:
            assert record.width >= 1.0

    def test_branch_braids_flagged(self, gcc_life_compiled):
        stats = braid_statistics(gcc_life_compiled, suite="int")
        assert any(record.is_branch for record in stats.records)


class TestIOCounts:
    def test_known_block(self):
        program = assemble(
            """
            .block A
                addq r1, r2, r3    ; ext inputs r1, r2
                addq r3, r3, r4    ; internal r3
                stq r4, 0(r5)      ; ext input r5; r4 internal
            .block B
                nop
            """
        )
        compilation = braidify(program)
        stats = braid_statistics(compilation, suite="int")
        big = max(stats.records, key=lambda r: r.size)
        assert big.size == 3
        assert big.internals == 2  # r3 and r4 both die inside the braid
        assert big.external_inputs == 3  # r1, r2, r5
        assert big.external_outputs == 0

    def test_escaping_value_counts_as_output(self):
        program = assemble(
            """
            .block A
                addq r1, r2, r3
            .block B
                stq r3, 0(r1)
            """
        )
        compilation = braidify(program)
        stats = braid_statistics(compilation, suite="int")
        producer = max(stats.records, key=lambda r: r.external_outputs)
        assert producer.external_outputs == 1


class TestSuiteAggregation:
    def test_average_over_suites(self, gcc_life_compiled):
        suite = SuiteBraidStats()
        suite.rows["k1"] = braid_statistics(gcc_life_compiled, suite="int")
        suite.rows["k2"] = braid_statistics(gcc_life_compiled, suite="fp")
        overall = suite.average("braids_per_block")
        int_only = suite.average("braids_per_block", suite="int")
        assert overall == pytest.approx(int_only)
        assert suite.average("mean_size", suite="nope") == 0.0

    def test_record_is_single(self):
        assert BraidRecord(0, 1, 1.0, 0, 0, 0).is_single
        assert not BraidRecord(0, 2, 1.0, 0, 0, 0).is_single
