"""Tests for prepared workloads (phase-one oracles)."""

import pickle

import pytest

from repro.sim.workload import decode_trace, prepare_workload
from repro.workloads import build_program, kernel


@pytest.fixture(scope="module")
def gcc():
    return build_program("gcc")


class TestPreparation:
    def test_trace_matches_functional_length(self, gcc):
        workload = prepare_workload(gcc)
        assert len(workload) == workload.stats.dynamic_instructions
        assert len(workload.trace) > 0

    def test_deterministic(self, gcc):
        a = prepare_workload(gcc)
        b = prepare_workload(gcc)
        assert a.mispredicted == b.mispredicted
        assert a.load_latency == b.load_latency

    def test_mispredicted_are_branches(self, gcc):
        workload = prepare_workload(gcc)
        by_seq = {d.seq: d for d in workload.trace}
        for seq in workload.mispredicted:
            assert by_seq[seq].is_branch

    def test_load_latencies_cover_all_loads(self, gcc):
        workload = prepare_workload(gcc)
        assert len(workload.load_latency) == len(workload.trace)
        assert [latency is not None for latency in workload.load_latency] \
            == [d.is_load for d in workload.trace]
        l1 = 3
        for latency in workload.load_latency:
            assert latency is None or latency >= l1

    def test_stats_populated(self, gcc):
        workload = prepare_workload(gcc)
        assert workload.stats.branches > 0
        assert 0.0 <= workload.stats.branch_accuracy <= 1.0
        assert workload.stats.mispredicts == len(workload.mispredicted)

    def test_instruction_cap(self, gcc):
        workload = prepare_workload(gcc, max_instructions=500)
        assert len(workload) == 500


class TestPerfectMode:
    def test_no_mispredictions(self, gcc):
        workload = prepare_workload(gcc, perfect=True)
        assert workload.mispredicted == set()

    def test_flat_l1_latencies(self, gcc):
        workload = prepare_workload(gcc, perfect=True)
        assert {latency for latency in workload.load_latency
                if latency is not None} <= {3}
        assert workload.ifetch_extra == [0] * len(workload.trace)


class TestPredictorChoice:
    def test_bimodal_usually_worse_or_equal(self, gcc):
        perceptron = prepare_workload(gcc, predictor="perceptron")
        taken = prepare_workload(gcc, predictor="taken")
        assert len(perceptron.mispredicted) <= len(taken.mispredicted)

    def test_kernel_loop_branches_learnable(self):
        workload = prepare_workload(kernel("daxpy"))
        # One perfectly-biased loop branch: only warm-up mispredicts.
        assert workload.stats.branch_accuracy > 0.9


class TestSerialization:
    """Workloads travel through the artifact cache and worker specs pickled."""

    def test_pickle_round_trip_preserves_oracles(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        clone = pickle.loads(pickle.dumps(workload))
        assert len(clone) == len(workload)
        assert clone.mispredicted == workload.mispredicted
        assert clone.load_latency == workload.load_latency
        assert clone.ifetch_extra == workload.ifetch_extra
        assert [d.seq for d in clone.trace] == [d.seq for d in workload.trace]

    def test_pickle_round_trip_preserves_decode(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        workload.decode()
        clone = pickle.loads(pickle.dumps(workload))
        assert clone.decoded is not None
        for ours, theirs in zip(workload.decoded, clone.decoded):
            assert ours.latency == theirs.latency
            assert ours.sources == theirs.sources
            assert ours.writes == theirs.writes

    def test_decode_trace_shares_static_facts(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        decoded = decode_trace(workload.trace)
        assert len(decoded) == len(workload.trace)
        by_static = {}
        for dyn, facts in zip(workload.trace, decoded):
            assert by_static.setdefault(id(dyn.inst), facts) is facts
        # Sharing is the point: far fewer decode objects than trace entries.
        assert len(by_static) < len(decoded)

    def test_decode_memoized_on_workload(self, gcc):
        workload = prepare_workload(gcc, max_instructions=5_000)
        assert workload.decode() is workload.decode()


class TestMemoryBehaviour:
    def test_cache_hostile_benchmark_misses_more(self):
        friendly = prepare_workload(build_program("gzip"))
        hostile = prepare_workload(build_program("mcf"))
        assert hostile.stats.l1d_miss_rate > friendly.stats.l1d_miss_rate

    def test_icache_warm_after_first_touch(self, gcc):
        workload = prepare_workload(gcc)
        # Static code is tiny vs 64KB L1I: only cold misses.
        misses = sum(1 for extra in workload.ifetch_extra if extra)
        assert misses < len(workload.trace) * 0.02
