"""Integration tests: the four timing cores on real workloads."""

import pytest

from repro.core import braidify
from repro.sim import (
    BraidCore,
    DependenceSteeringCore,
    InOrderCore,
    OutOfOrderCore,
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
    prepare_workload,
    simulate,
)
from repro.sim.run import build_core
from repro.workloads import build_program, kernel


@pytest.fixture(scope="module")
def gcc_workloads():
    program = build_program("gcc")
    compilation = braidify(program)
    return {
        "plain": prepare_workload(program),
        "braided": prepare_workload(compilation.translated),
    }


class TestBasicExecution:
    @pytest.mark.parametrize(
        "factory,key",
        [
            (ooo_config, "plain"),
            (inorder_config, "plain"),
            (depsteer_config, "plain"),
            (braid_config, "braided"),
        ],
    )
    def test_all_instructions_retire(self, gcc_workloads, factory, key):
        workload = gcc_workloads[key]
        result = simulate(workload, factory(8))
        assert result.instructions == len(workload.trace)
        assert result.cycles > 0
        assert 0.0 < result.ipc <= 8.0

    def test_build_core_dispatch(self, gcc_workloads):
        assert isinstance(
            build_core(gcc_workloads["plain"], ooo_config(8)), OutOfOrderCore
        )
        assert isinstance(
            build_core(gcc_workloads["plain"], inorder_config(8)), InOrderCore
        )
        assert isinstance(
            build_core(gcc_workloads["plain"], depsteer_config(8)),
            DependenceSteeringCore,
        )
        assert isinstance(
            build_core(gcc_workloads["braided"], braid_config(8)), BraidCore
        )

    def test_deterministic_cycle_counts(self, gcc_workloads):
        first = simulate(gcc_workloads["plain"], ooo_config(8))
        second = simulate(gcc_workloads["plain"], ooo_config(8))
        assert first.cycles == second.cycles


class TestParadigmOrdering:
    def test_inorder_is_slowest(self, gcc_workloads):
        ooo = simulate(gcc_workloads["plain"], ooo_config(8))
        inorder = simulate(gcc_workloads["plain"], inorder_config(8))
        assert inorder.ipc < ooo.ipc

    def test_braid_is_competitive_with_ooo(self, gcc_workloads):
        ooo = simulate(gcc_workloads["plain"], ooo_config(8))
        braid = simulate(gcc_workloads["braided"], braid_config(8))
        assert braid.ipc > 0.5 * ooo.ipc

    def test_braid_beats_inorder(self, gcc_workloads):
        inorder = simulate(gcc_workloads["plain"], inorder_config(8))
        braid = simulate(gcc_workloads["braided"], braid_config(8))
        assert braid.ipc > inorder.ipc

    def test_wider_ooo_is_not_slower_with_perfect_front_end(self):
        program = build_program("gcc")
        workload = prepare_workload(program, perfect=True)
        narrow = simulate(workload, ooo_config(4))
        wide = simulate(workload, ooo_config(16))
        assert wide.ipc >= narrow.ipc * 0.98


class TestBraidCoreBehaviour:
    def test_beus_share_work(self, gcc_workloads):
        core = build_core(gcc_workloads["braided"], braid_config(8))
        core.run()
        issued = core.beu_utilization()
        assert sum(issued) == len(gcc_workloads["braided"].trace)
        assert sum(1 for count in issued if count > 0) >= 4

    def test_single_beu_serializes(self, gcc_workloads):
        from dataclasses import replace

        one = simulate(
            gcc_workloads["braided"],
            replace(braid_config(8), clusters=1, name="braid-1beu"),
        )
        eight = simulate(gcc_workloads["braided"], braid_config(8))
        assert eight.ipc > 1.5 * one.ipc

    def test_tiny_fifo_still_correct(self, gcc_workloads):
        from dataclasses import replace

        result = simulate(
            gcc_workloads["braided"],
            replace(braid_config(8), cluster_entries=4, name="braid-fifo4"),
        )
        assert result.instructions == len(gcc_workloads["braided"].trace)

    def test_braid_core_runs_untranslated_code(self, gcc_workloads):
        # Untranslated code has no S bits: everything lands in one BEU.
        result = simulate(gcc_workloads["plain"], braid_config(8))
        assert result.instructions == len(gcc_workloads["plain"].trace)

    def test_shorter_pipeline_helps(self, gcc_workloads):
        from dataclasses import replace

        short = simulate(gcc_workloads["braided"], braid_config(8))
        long_front = replace(braid_config(8).front_end, depth=8, redirect=13)
        long = simulate(
            gcc_workloads["braided"],
            replace(braid_config(8), front_end=long_front, name="braid-long"),
        )
        assert short.ipc >= long.ipc


class TestPerfectFrontEnd:
    def test_perfect_is_faster(self):
        program = build_program("mcf")
        real = simulate(prepare_workload(program), ooo_config(8))
        ideal = simulate(prepare_workload(program, perfect=True), ooo_config(8))
        assert ideal.ipc > real.ipc


class TestKernels:
    @pytest.mark.parametrize("name", ("daxpy", "dot_product", "checksum"))
    def test_kernels_run_on_all_cores(self, name):
        program = kernel(name)
        compilation = braidify(program)
        plain = prepare_workload(program)
        braided = prepare_workload(compilation.translated)
        for config, workload in (
            (ooo_config(8), plain),
            (inorder_config(8), plain),
            (depsteer_config(8), plain),
            (braid_config(8), braided),
        ):
            result = simulate(workload, config)
            assert result.instructions == len(workload.trace)

    def test_pointer_chase_is_latency_bound(self):
        program = kernel("pointer_chase")
        workload = prepare_workload(program)
        result = simulate(workload, ooo_config(8))
        # Serial loads: even the aggressive machine is far from peak.
        assert result.ipc < 4.0


class TestResultFields:
    def test_result_metadata(self, gcc_workloads):
        result = simulate(gcc_workloads["plain"], ooo_config(8))
        assert result.benchmark == "gcc"
        assert result.machine == "ooo-8w"
        assert result.branches == gcc_workloads["plain"].stats.branches
        assert result.issued == result.instructions
        assert "IPC" in result.summary()

