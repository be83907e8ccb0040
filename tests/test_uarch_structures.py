"""Unit tests for register files, bypass, FUs, busy bits, checkpoints, LSQ."""

import pytest

from repro.uarch.busybits import BusyBitVector
from repro.uarch.bypass import BypassNetwork
from repro.uarch.checkpoint import CheckpointManager
from repro.uarch.funit import FunctionalUnitPool
from repro.uarch.lsq import LoadStoreQueue
from repro.uarch.regfile import PortMeter, RegFileSpec, RegisterFileModel


class TestPortMeter:
    def test_grants_up_to_capacity(self):
        meter = PortMeter(2)
        assert meter.acquire(cycle=0)
        assert meter.acquire(cycle=0)
        assert not meter.acquire(cycle=0)

    def test_resets_each_cycle(self):
        meter = PortMeter(1)
        assert meter.acquire(cycle=0)
        assert meter.acquire(cycle=1)

    def test_all_or_nothing(self):
        meter = PortMeter(3)
        assert meter.acquire(cycle=0, count=2)
        assert not meter.acquire(cycle=0, count=2)
        assert meter.available(0) == 1

    def test_counts_denials(self):
        meter = PortMeter(1)
        meter.acquire(0)
        meter.acquire(0)
        assert meter.total_denials == 1

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            PortMeter(0)


class TestRegisterFileModel:
    def test_entry_accounting(self):
        rf = RegFileSpec(entries=2, read_ports=4, write_ports=2).build()
        assert rf.allocate() and rf.allocate()
        assert not rf.allocate()
        assert rf.alloc_stalls == 1
        rf.release()
        assert rf.allocate()

    def test_release_underflow(self):
        rf = RegisterFileModel(4, 2, 1)
        with pytest.raises(RuntimeError):
            rf.release()


class TestBypass:
    def test_coverage_window(self):
        bypass = BypassNetwork(levels=3, width=8)
        assert bypass.covers(cycle=5, produce_cycle=5)
        assert bypass.covers(cycle=8, produce_cycle=5)
        assert not bypass.covers(cycle=9, produce_cycle=5)
        assert not bypass.covers(cycle=4, produce_cycle=5)

    def test_zero_levels_never_cover(self):
        assert not BypassNetwork(0, 8).covers(0, 0)

    def test_bandwidth_limit(self):
        bypass = BypassNetwork(levels=1, width=2)
        assert bypass.acquire(0, 2)
        assert not bypass.acquire(0, 1)
        assert bypass.acquire(1, 1)
        assert bypass.total_denials == 1


class TestFunctionalUnits:
    def test_issue_limit_per_cycle(self):
        pool = FunctionalUnitPool(2)
        assert pool.issue(0) and pool.issue(0)
        assert not pool.issue(0)
        assert pool.issue(1)  # fully pipelined

    def test_available(self):
        pool = FunctionalUnitPool(3)
        pool.issue(7)
        assert pool.available(7) == 2


class TestBusyBits:
    def test_set_and_clear(self):
        bits = BusyBitVector(8)
        assert bits.mark_busy(1)
        assert bits.snapshot() == {1: True}
        bits.mark_ready(1)
        assert bits.snapshot() == {}

    def test_capacity(self):
        bits = BusyBitVector(2)
        assert bits.mark_busy(1) and bits.mark_busy(2)
        assert not bits.mark_busy(3)
        assert bits.mark_busy(2)  # already tracked
        bits.mark_ready(1)
        assert bits.mark_busy(3)

    def test_snapshot(self):
        bits = BusyBitVector(4)
        bits.mark_busy(9)
        assert bits.snapshot() == {9: True}


class TestCheckpoints:
    def test_capacity_and_stalls(self):
        manager = CheckpointManager(capacity=2, state_words_per_checkpoint=64)
        assert manager.take(1) and manager.take(2)
        assert not manager.take(3)
        assert manager.stalls == 1

    def test_release_older(self):
        manager = CheckpointManager(4, 64)
        manager.take(1)
        manager.take(5)
        manager.release_older_than(1)
        assert manager.occupancy == 1

    def test_restore_squashes_younger(self):
        manager = CheckpointManager(4, 64)
        for seq in (1, 5, 9):
            manager.take(seq)
        checkpoint = manager.restore(5)
        assert checkpoint is not None and checkpoint.seq == 5
        assert manager.occupancy == 1  # only seq 1 survives

    def test_state_accounting(self):
        manager = CheckpointManager(4, 10)
        manager.take(1)
        manager.take(2)
        assert [cp.state_words for cp in manager.live()] == [10, 10]


class TestLSQ:
    def test_independent_load_uses_cache_latency(self):
        lsq = LoadStoreQueue()
        assert lsq.load_latency(seq=5, word=0x100, cycle=0, cache_latency=9) == 9

    def test_conflicting_load_waits_for_store(self):
        lsq = LoadStoreQueue(forward_latency=3)
        lsq.store_dispatched(seq=1, word=0x100)
        assert lsq.load_latency(seq=2, word=0x100, cycle=0, cache_latency=9) is None
        lsq.store_executed(seq=1, cycle=4)
        assert lsq.load_latency(seq=2, word=0x100, cycle=3, cache_latency=9) is None
        assert lsq.load_latency(seq=2, word=0x100, cycle=4, cache_latency=9) == 3

    def test_only_older_stores_conflict(self):
        lsq = LoadStoreQueue()
        lsq.store_dispatched(seq=10, word=0x100)
        assert lsq.load_latency(seq=5, word=0x100, cycle=0, cache_latency=9) == 9

    def test_youngest_older_store_wins(self):
        lsq = LoadStoreQueue()
        lsq.store_dispatched(seq=1, word=0x100)
        lsq.store_dispatched(seq=3, word=0x100)
        conflict = lsq.load_conflict(seq=5, word=0x100)
        assert conflict.seq == 3

    def test_retired_store_no_longer_conflicts(self):
        lsq = LoadStoreQueue()
        lsq.store_dispatched(seq=1, word=0x100)
        lsq.store_retired(seq=1)
        assert lsq.load_latency(seq=2, word=0x100, cycle=0, cache_latency=9) == 9
        assert lsq.occupancy == 0

    def test_forward_statistics(self):
        lsq = LoadStoreQueue()
        lsq.store_dispatched(seq=1, word=0x100)
        lsq.store_executed(seq=1, cycle=0)
        lsq.load_latency(seq=2, word=0x100, cycle=1, cache_latency=9)
        assert lsq.stats.forwards == 1
