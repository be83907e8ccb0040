"""Unit tests for the braid execution unit and the distribute stage."""

import random
from dataclasses import replace

import pytest

from repro.core import braidify
from repro.sim import braid_config, prepare_workload, simulate
from repro.sim.beu import BraidExecutionUnit
from repro.sim.run import build_core
from repro.sim.sampling import SamplingConfig
from repro.validate import ValidationConfig
from repro.workloads import kernel


class _FakeInst:
    dest_external = False


class TestCapacityRules:
    def test_fresh_beu_accepts(self):
        beu = BraidExecutionUnit(0, braid_config(8))
        assert beu.can_accept_braid()
        assert beu.drained

    def test_single_braid_policy_blocks_until_drained(self):
        beu = BraidExecutionUnit(0, braid_config(8))
        beu.start_braid()
        beu.fifo.append(_FakeInst())
        assert not beu.can_accept_braid()
        beu.fifo.popleft()  # instruction issued
        assert beu.can_accept_braid()

    def test_queueing_policy_only_needs_space(self):
        config = replace(braid_config(8), beu_queue_braids=True,
                         cluster_entries=2)
        beu = BraidExecutionUnit(0, config)
        beu.fifo.append(_FakeInst())
        assert beu.can_accept_braid()
        beu.fifo.append(_FakeInst())
        assert not beu.can_accept_braid()

    def test_default_internal_regfile_spec(self):
        config = replace(braid_config(8), internal_regfile=None)
        beu = BraidExecutionUnit(0, config)
        assert beu.internal_reads.ports == 4
        assert beu.internal_writes.ports == 2


class TestDistribution:
    @pytest.fixture(scope="class")
    def core(self):
        program = kernel("gcc_life")
        compilation = braidify(program)
        workload = prepare_workload(compilation.translated)
        core = build_core(workload, braid_config(8))
        core.run()
        return core

    def test_braids_accepted_counter(self, core):
        accepted = sum(beu.braids_accepted for beu in core.beus)
        starts = sum(
            1 for d in core.workload.trace if d.inst.annot.start
        )
        assert accepted == starts

    def test_all_fifos_drain(self, core):
        for beu in core.beus:
            assert beu.drained

    def test_round_robin_spreads_braids(self, core):
        used = [beu for beu in core.beus if beu.braids_accepted > 0]
        assert len(used) >= 2

    def test_busybit_traffic_recorded(self, core):
        sets = sum(beu.busybits.set_events for beu in core.beus)
        ext_dests = sum(
            1
            for d in core.workload.trace
            if d.inst.writes() is not None and d.inst.annot.dest_external
        )
        assert sets == ext_dests


def _round_robin_scan(core, hint):
    """The distribute stage's original BEU pick: a round-robin scan of
    ``can_accept_braid`` from ``hint``.  Returns ``(beu, next hint)``."""
    count = len(core.beus)
    for offset in range(count):
        beu = core.beus[(hint + offset) % count]
        if beu.can_accept_braid():
            return beu, (beu.beu_id + 1) % count
    return None, hint


class TestFreeBeuMask:
    """The free-BEU bitmask picks exactly the BEU the round-robin scan
    picked, and stays in step with the FIFOs through whole runs."""

    @staticmethod
    def _core(**overrides):
        compilation = braidify(kernel("gcc_life"))
        workload = prepare_workload(compilation.translated)
        config = replace(braid_config(8), cluster_entries=4, **overrides)
        return build_core(workload, config)

    @pytest.mark.parametrize("queue_braids", [False, True])
    def test_pick_matches_round_robin_scan(self, queue_braids):
        core = self._core(beu_queue_braids=queue_braids)
        rng = random.Random(11)
        capacity = core.config.cluster_entries
        for step in range(400):
            if step % 50 == 49:
                core.on_fast_forward()
                assert core._free_beus == (1 << len(core.beus)) - 1
            else:
                for beu in core.beus:
                    beu.fifo.clear()
                    beu.fifo.extend(
                        _FakeInst() for _ in range(rng.randrange(capacity + 1))
                    )
                core._free_beus = core._scan_free_beus()
            hint = rng.randrange(len(core.beus))
            core._next_beu_hint = hint
            expected, next_hint = _round_robin_scan(core, hint)
            assert core._find_free_beu() is expected
            assert core._next_beu_hint == next_hint

    def test_accept_keeps_mask_in_step(self):
        for queue_braids in (False, True):
            core = self._core(beu_queue_braids=queue_braids)
            for step in range(3 * len(core.beus) * core.config.cluster_entries):
                inst = _FakeInst()
                inst.start = step % 3 == 0
                core.accept(inst, 0)
                assert core._free_beus == core._scan_free_beus()

    def test_invariant_reports_a_stale_mask(self):
        core = self._core()
        core._free_beus ^= 1 << 5
        assert any("free-BEU mask" in message
                   for message in core.core_invariants(0))

    @pytest.mark.parametrize("overrides", [
        {},
        {"beu_queue_braids": True},
        {"beu_queue_braids": True, "clusters": 2},
        {"beu_exception_mode": True},
        {"beu_window_ooo": False, "clusters": 3},
    ], ids=["default", "queue", "queue-2beu", "exception", "strict-3beu"])
    @pytest.mark.parametrize("fidelity", ["exact", "sampled"])
    def test_mask_holds_through_runs(self, overrides, fidelity, quick_context):
        """Per-cycle invariant checking, the mask check included, on
        exact runs and on sampled runs (every gap calls on_fast_forward)."""
        workload = quick_context.workload("gcc", braided=True)
        config = replace(braid_config(8), cluster_entries=4, **overrides)
        result = simulate(
            workload, config, fidelity=fidelity,
            sampling=SamplingConfig(interval=300, stride=4, warmup=100),
            validation=ValidationConfig(invariants=True),
        )
        assert result.instructions > 0
