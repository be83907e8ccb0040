"""Integration tests: memory system behaviour as seen through workloads."""

import pytest

from repro.sim.workload import prepare_workload
from repro.uarch.cache import MemoryHierarchyConfig
from repro.workloads import build_program, kernel


def load_latencies(workload):
    """The cache latency of every load, in trace order."""
    return [latency for latency in workload.load_latency
            if latency is not None]


class TestWorkingSetEffects:
    def test_mcf_working_set_spills_past_l1(self):
        workload = prepare_workload(build_program("mcf"))
        latencies = set(load_latencies(workload))
        # L1 hits (3), L2 hits (9), and memory round trips (409) all occur.
        assert 3 in latencies
        assert any(latency > 3 for latency in latencies)

    def test_small_kernel_is_l1_resident_after_warmup(self):
        workload = prepare_workload(kernel("checksum"))
        latencies = load_latencies(workload)
        hits = sum(1 for latency in latencies if latency == 3)
        assert hits / len(latencies) > 0.5

    def test_latency_values_match_hierarchy_levels(self):
        workload = prepare_workload(build_program("equake"))
        allowed = {3, 3 + 6, 3 + 6 + 400}
        assert set(load_latencies(workload)) <= allowed


class TestCustomHierarchies:
    def test_tiny_l1_raises_miss_rate(self):
        # The generator's access window is ~256 bytes around the induction
        # index, so a 256-byte direct-mapped L1 thrashes while the default
        # 64 KB L1 captures the reuse.
        big = prepare_workload(build_program("gzip"))
        small = prepare_workload(
            build_program("gzip"),
            memory=MemoryHierarchyConfig(l1d_size=256, l1d_assoc=1),
        )
        assert small.stats.l1d_miss_rate > big.stats.l1d_miss_rate

    def test_slow_memory_increases_latencies(self):
        near = prepare_workload(
            build_program("mcf"),
            memory=MemoryHierarchyConfig(memory_latency=100),
        )
        far = prepare_workload(
            build_program("mcf"),
            memory=MemoryHierarchyConfig(memory_latency=800),
        )
        assert max(load_latencies(far)) > max(load_latencies(near))

    def test_memory_latency_propagates_to_ipc(self):
        from repro.sim import ooo_config, simulate

        near = prepare_workload(
            build_program("mcf"),
            memory=MemoryHierarchyConfig(memory_latency=50),
        )
        far = prepare_workload(
            build_program("mcf"),
            memory=MemoryHierarchyConfig(memory_latency=800),
        )
        fast = simulate(near, ooo_config(8))
        slow = simulate(far, ooo_config(8))
        assert fast.ipc > slow.ipc
