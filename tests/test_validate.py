"""Differential validation subsystem (repro.validate).

The validation layer is itself the safety net for the timing cores, so
these tests check both directions:

* clean simulations pass — every core, exact and sampled, lockstep and
  per-cycle invariants, plus the harness ``validate`` sweep;
* injected corruption is *caught* — a tampered trace, a double-retired
  instruction, a broken structural counter, and a miscompiling
  translator each produce a precise failure, not a silent pass.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.config import (
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
)
from repro.sim.interval import IntervalConfig
from repro.sim.run import build_core, simulate
from repro.sim.sampling import SamplingConfig
from repro.validate import (
    Divergence,
    DivergenceError,
    InvariantChecker,
    InvariantViolation,
    LockstepChecker,
    ValidationConfig,
    attach_validation,
    check_now,
    fuzz_translator,
    hostile_program,
    lockstep_simulate,
    run_validation,
    validation_from_env,
)
from repro.validate.fuzzing import annotation_defects
from repro.validate.runner import CORE_FACTORIES

SAMPLING = SamplingConfig(interval=200, stride=4, warmup=64)
#: small enough that the short test traces still leave units to predict
INTERVAL = IntervalConfig(windows=4, window=200, warmup=64)

ALL_CONFIGS = [
    pytest.param(ooo_config, False, id="ooo"),
    pytest.param(inorder_config, False, id="inorder"),
    pytest.param(depsteer_config, False, id="depsteer"),
    pytest.param(braid_config, True, id="braid"),
]


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=("gcc", "mcf"),
        max_instructions=20_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


class TestConfig:
    def test_parse_modes(self):
        assert ValidationConfig.parse("") is None
        assert ValidationConfig.parse("off") is None
        assert ValidationConfig.parse("1") == ValidationConfig(invariants=True)
        assert ValidationConfig.parse("lockstep") == ValidationConfig(
            lockstep=True
        )
        assert ValidationConfig.parse("all") == ValidationConfig(
            lockstep=True, invariants=True
        )
        assert ValidationConfig.parse("lockstep,invariants") == (
            ValidationConfig(lockstep=True, invariants=True)
        )

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            ValidationConfig.parse("turbo")

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert validation_from_env() is None
        monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
        assert validation_from_env() == ValidationConfig(lockstep=True)

    def test_attach_disabled_returns_none(self, ctx):
        core = build_core(ctx.workload("gcc"), ooo_config())
        assert attach_validation(core, ctx.workload("gcc"), None) is None
        assert core.retire_hook is None and core.invariant_hook is None


class TestLockstepClean:
    @pytest.mark.parametrize("factory, braided", ALL_CONFIGS)
    def test_exact_runs_clean(self, ctx, factory, braided):
        workload = ctx.workload("gcc", braided=braided)
        result, divergences = lockstep_simulate(workload, factory())
        assert divergences == []
        assert result.instructions == len(workload.trace)

    @pytest.mark.parametrize("factory, braided", ALL_CONFIGS)
    def test_sampled_runs_clean(self, ctx, factory, braided):
        workload = ctx.workload("gcc", braided=braided)
        result, divergences = lockstep_simulate(
            workload, factory(), sampling=SAMPLING
        )
        assert divergences == []
        assert result.sampled or "sample_fallback_exact" in result.extra

    @pytest.mark.parametrize("factory, braided", ALL_CONFIGS)
    def test_interval_runs_clean(self, ctx, factory, braided):
        workload = ctx.workload("gcc", braided=braided)
        result, divergences = lockstep_simulate(
            workload, factory(), fidelity="interval", interval=INTERVAL
        )
        assert divergences == []
        assert result.fidelity == "interval"

    def test_checker_accounts_whole_trace(self, ctx):
        workload = ctx.workload("mcf")
        core = build_core(workload, ooo_config())
        checker = LockstepChecker(workload).attach(core)
        core.run()
        checker.finish(expect_full=True)
        assert checker.instructions_checked == len(workload.trace)
        assert checker.instructions_skipped == 0


class TestLockstepCatches:
    def test_tampered_trace_pc(self, ctx):
        workload = copy.deepcopy(ctx.workload("gcc"))
        workload.trace[40].pc += 4
        core = build_core(workload, ooo_config())
        LockstepChecker(workload).attach(core)
        with pytest.raises(DivergenceError) as excinfo:
            core.run()
        assert excinfo.value.divergence.field == "pc"
        assert excinfo.value.divergence.index == 40

    def test_tampered_memory_address(self, ctx):
        workload = copy.deepcopy(ctx.workload("gcc"))
        victim = next(
            d for d in workload.trace if d.mem_addr is not None
        )
        victim.mem_addr += 8
        core = build_core(workload, ooo_config())
        LockstepChecker(workload).attach(core)
        with pytest.raises(DivergenceError) as excinfo:
            core.run()
        assert excinfo.value.divergence.field == "mem_addr"

    def test_changed_semantics_is_final_state_divergence(self, ctx):
        # Same opcode, pc and outcome, but another immediate: only the
        # independent replay through apply_instruction can see it.
        workload = copy.deepcopy(ctx.workload("gcc"))
        victim = next(
            d for d in reversed(workload.trace)
            if d.inst.opcode.name in ("addqi", "lda") and d.inst.writes()
        )
        victim.inst = dataclasses.replace(victim.inst, imm=victim.inst.imm + 8)
        core = build_core(workload, ooo_config())
        checker = LockstepChecker(workload, fail_fast=False).attach(core)
        core.run()
        fields = [d.field for d in checker.finish()]
        assert fields and all(field.startswith("final_") for field in fields)

    def test_dropped_instruction_is_coverage_divergence(self, ctx):
        workload = ctx.workload("mcf")
        core = build_core(workload, ooo_config())
        checker = LockstepChecker(workload, fail_fast=False).attach(core)
        core.run()
        # Pretend the run finished one instruction early.
        checker._position -= 1
        divergences = checker.finish(expect_full=True)
        assert divergences and divergences[0].field == "coverage"

    def test_overlapping_skip_is_divergence(self, ctx):
        workload = ctx.workload("gcc")
        checker = LockstepChecker(workload, fail_fast=False)
        checker.on_skip(0, 100)
        checker.on_skip(100, 50)  # window overlap: rewinds the cursor
        assert any(d.field == "skip_overlap" for d in checker.divergences)

    def test_gapped_skip_is_divergence(self, ctx):
        workload = ctx.workload("gcc")
        checker = LockstepChecker(workload, fail_fast=False)
        checker.on_skip(10, 50)  # origin disagrees with the cursor (0)
        assert any(d.field == "skip_origin" for d in checker.divergences)

    def test_collects_all_when_not_fail_fast(self, ctx):
        workload = copy.deepcopy(ctx.workload("gcc"))
        workload.trace[5].pc += 4
        workload.trace[6].pc += 4
        core = build_core(workload, ooo_config())
        checker = LockstepChecker(workload, fail_fast=False).attach(core)
        core.run()
        fields = [d.field for d in checker.finish()]
        assert fields.count("pc") >= 2

    def test_divergence_render_mentions_everything(self):
        divergence = Divergence(
            benchmark="gcc", machine="ooo-8", cycle=17, index=3,
            field="pc", expected="0x40", actual="0x44",
        )
        text = divergence.render()
        for needle in ("gcc", "ooo-8", "17", "3", "pc", "0x40", "0x44"):
            assert needle in text


class TestInvariantsClean:
    @pytest.mark.parametrize("factory, braided", ALL_CONFIGS)
    def test_exact_runs_clean(self, ctx, factory, braided):
        workload = ctx.workload("gcc", braided=braided)
        core = build_core(workload, factory())
        checker = InvariantChecker().attach(core)
        result = core.run()
        assert checker.cycles_checked > 0
        assert result.instructions == len(workload.trace)

    @pytest.mark.parametrize("factory, braided", ALL_CONFIGS)
    def test_final_state_clean(self, ctx, factory, braided):
        workload = ctx.workload("gcc", braided=braided)
        core = build_core(workload, factory())
        core.run()
        assert check_now(core, 0) == []

    def test_instrumented_loop_is_timing_identical(self, ctx):
        workload = ctx.workload("gcc")
        plain = build_core(workload, ooo_config()).run()
        core = build_core(workload, ooo_config())
        InvariantChecker().attach(core)
        checked = core.run()
        assert checked.cycles == plain.cycles
        assert checked.stalls.as_dict() == plain.stalls.as_dict()


class TestInvariantsCatch:
    def test_corrupt_ready_accounting(self, ctx):
        core = build_core(ctx.workload("gcc"), ooo_config())
        core.run()
        core._ready_unissued += 3
        messages = check_now(core, 0)
        assert any("_ready_unissued" in message for message in messages)

    def test_corrupt_mem_accounting(self, ctx):
        core = build_core(ctx.workload("gcc"), ooo_config())
        core.run()
        core._mem_in_flight += 1
        messages = check_now(core, 0)
        assert any("_mem_in_flight" in message for message in messages)

    def test_live_corruption_raises_mid_run(self, ctx):
        workload = ctx.workload("gcc")
        core = build_core(workload, ooo_config())
        InvariantChecker().attach(core)
        original = core.retire_stage
        state = {"armed": True}

        def corrupting_retire(cycle):
            original(cycle)
            if state["armed"] and core._retired_count > 50:
                state["armed"] = False
                core._ready_unissued += 1

        core.retire_stage = corrupting_retire
        with pytest.raises(InvariantViolation) as excinfo:
            core.run()
        assert "_ready_unissued" in str(excinfo.value)
        assert excinfo.value.machine == ooo_config().name

    def test_corrupt_regfile_accounting(self, ctx):
        core = build_core(ctx.workload("gcc"), ooo_config())
        core.run()
        core.rf.in_flight += 1
        messages = check_now(core, 0)
        assert any("register file" in message for message in messages)


class TestSimulateIntegration:
    @pytest.mark.parametrize("factory, braided", ALL_CONFIGS)
    def test_explicit_validation_config(self, ctx, factory, braided):
        workload = ctx.workload("mcf", braided=braided)
        result = simulate(
            workload, factory(),
            validation=ValidationConfig(lockstep=True),
        )
        baseline = simulate(workload, factory())
        assert result.cycles == baseline.cycles

    def test_env_knob_attaches_lockstep(self, ctx, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "lockstep")
        workload = copy.deepcopy(ctx.workload("gcc"))
        workload.trace[10].pc += 4
        with pytest.raises(DivergenceError):
            simulate(workload, ooo_config())

    def test_env_knob_off_attaches_nothing(self, ctx, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "off")
        workload = copy.deepcopy(ctx.workload("gcc"))
        workload.trace[10].pc += 4  # corrupt, but nobody is checking
        result = simulate(workload, ooo_config())
        assert result.instructions == len(workload.trace)

    def test_sampled_validation_through_simulate(self, ctx):
        workload = ctx.workload("gcc")
        result = simulate(
            workload, ooo_config(), sampling=SAMPLING,
            validation=ValidationConfig(lockstep=True),
        )
        assert result.sampled or "sample_fallback_exact" in result.extra


class TestFuzzer:
    def test_hostile_programs_are_valid_and_deterministic(self):
        import random

        first = hostile_program(random.Random(7))
        second = hostile_program(random.Random(7))
        first.validate()
        assert [len(b.instructions) for b in first.blocks] == [
            len(b.instructions) for b in second.blocks
        ]

    def test_clean_translator_passes(self):
        report = fuzz_translator(samples=25, seed=1)
        assert report.passed
        assert report.samples == 25
        assert report.checks == 25
        assert "PASS" in report.render()

    def test_deterministic_for_fixed_seed(self):
        a = fuzz_translator(samples=10, seed=3)
        b = fuzz_translator(samples=10, seed=3)
        assert a.samples == b.samples and a.failures == b.failures

    def test_broken_translator_is_caught(self):
        class _Identity:
            def __init__(self, program):
                self.translated = program

        def dropping_translate(program, internal_limit=8):
            # "Miscompile": drop the last instruction of the loop body's
            # hostile block, changing observable memory.
            broken = copy.deepcopy(program)
            del broken.blocks[1].instructions[0]
            return _Identity(broken)

        report = fuzz_translator(
            samples=5, seed=0, translate=dropping_translate
        )
        assert not report.passed
        assert "FAIL" in report.render()

    def test_crashing_translator_is_a_failure(self):
        def crashing_translate(program, internal_limit=8):
            raise RuntimeError("boom")

        report = fuzz_translator(samples=3, seed=0,
                                 translate=crashing_translate)
        assert len(report.failures) == 3
        assert "RuntimeError" in report.failures[0].reason

    def test_fail_fast_stops_early(self):
        def crashing_translate(program, internal_limit=8):
            raise RuntimeError("boom")

        report = fuzz_translator(samples=50, seed=0,
                                 translate=crashing_translate,
                                 fail_fast=True)
        assert len(report.failures) == 1

    def test_unannotated_program_has_defects(self):
        import random

        program = hostile_program(random.Random(0))
        assert annotation_defects(program)  # no braid annotations at all


class TestRunner:
    def test_full_sweep_passes(self, ctx):
        report = run_validation(
            ctx, ("gcc", "mcf"), sampling=SAMPLING, fuzz_samples=5
        )
        assert report.passed
        # 2 benchmarks x 5 registered cores x (exact + sampled)
        assert len(report.outcomes) == 20
        assert all(outcome.ok for outcome in report.outcomes)
        text = report.render()
        assert "VALIDATION PASSED" in text
        assert "20/20 lockstep runs clean" in text

    def test_invariant_sweep_counts_cycles(self, ctx):
        report = run_validation(
            ctx, ("gcc",), cores=("ooo",), invariants=True, fuzz_samples=0
        )
        assert report.passed
        assert report.outcomes[0].cycles_checked > 0
        assert report.fuzz is None

    def test_divergence_is_reported_not_raised(self, ctx, monkeypatch):
        tampered = copy.deepcopy(ctx.workload("gcc"))
        tampered.trace[10].pc += 4
        monkeypatch.setattr(
            ctx, "workload", lambda name, braided=False: tampered
        )
        report = run_validation(ctx, ("gcc",), cores=("ooo",), fuzz_samples=0)
        assert not report.passed
        assert "pc" in report.outcomes[0].failure
        assert "VALIDATION FAILED" in report.render()

    def test_unknown_core_rejected(self, ctx):
        with pytest.raises(ValueError):
            run_validation(ctx, ("gcc",), cores=("ooo", "vliw"))

    def test_core_factories_cover_all_kinds(self):
        assert set(CORE_FACTORIES) == {
            "ooo", "inorder", "depsteer", "braid", "blockooo"
        }
