"""Failure paths of the ``validate`` runner, driven through the CLI.

``repro.validate.runner`` is the machinery every other safety net hangs
off, so its *failure* behaviour gets the same scrutiny as its clean
behaviour: a lockstep divergence mid-sweep, an invariant violation
mid-run, and a miscompiling translator must each surface as a FAIL line
and a non-zero exit code — never a crash, never a silent pass.
"""

from __future__ import annotations

import copy

import pytest

from repro.harness.__main__ import main
from repro.sim.run import build_core
from repro.validate.fuzzing import fuzz_translator

CLEAN_ARGS = [
    "validate", "--benchmarks", "gcc", "--cores", "ooo",
    "--no-cache", "--fuzz", "0",
]


def _tampering_build_core(offset):
    """A ``build_core`` whose core replays a subtly corrupted trace."""

    def sabotaged(workload, config):
        tampered = copy.deepcopy(workload)
        tampered.trace[offset].pc += 4
        return build_core(tampered, config)

    return sabotaged


class TestDivergencePaths:
    def test_oracle_divergence_fails_the_sweep(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.sim.run.build_core", _tampering_build_core(25)
        )
        code = main(list(CLEAN_ARGS))
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "pc" in out  # names the diverging field
        assert "VALIDATION FAILED" in out

    def test_divergence_does_not_abort_remaining_cells(
        self, capsys, monkeypatch
    ):
        calls = []
        real = build_core

        def flaky(workload, config):
            calls.append(config.name)
            if len(calls) == 1:  # only the first cell is corrupted
                return _tampering_build_core(25)(workload, config)
            return real(workload, config)

        monkeypatch.setattr("repro.sim.run.build_core", flaky)
        code = main([
            "validate", "--benchmarks", "gcc", "--cores", "ooo,inorder",
            "--no-cache", "--fuzz", "0",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "1/2 lockstep runs clean" in out

    def test_invariant_violation_mid_run_is_reported(
        self, capsys, monkeypatch
    ):
        real = build_core

        def corrupting(workload, config):
            core = real(workload, config)
            original = core.retire_stage
            state = {"armed": True}

            def retire(cycle):
                original(cycle)
                if state["armed"] and core._retired_count > 50:
                    state["armed"] = False
                    core._ready_unissued += 1

            core.retire_stage = retire
            return core

        monkeypatch.setattr("repro.sim.run.build_core", corrupting)
        code = main(list(CLEAN_ARGS) + ["--invariants"])
        out = capsys.readouterr().out
        assert code == 1
        assert "_ready_unissued" in out
        assert "VALIDATION FAILED" in out


class TestFuzzPaths:
    def test_fuzz_defects_fail_the_run(self, capsys, monkeypatch):
        def dropping_translate(program, internal_limit=8):
            class _Identity:
                def __init__(self, translated):
                    self.translated = translated

            broken = copy.deepcopy(program)
            del broken.blocks[1].instructions[0]
            return _Identity(broken)

        def broken_fuzz(samples, seed):
            return fuzz_translator(
                samples=3, seed=seed, translate=dropping_translate
            )

        monkeypatch.setattr(
            "repro.validate.runner.fuzz_translator", broken_fuzz
        )
        code = main([
            "validate", "--benchmarks", "gcc", "--cores", "ooo",
            "--no-cache", "--fuzz", "3",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "translator fuzzing: FAIL" in out
        # The lockstep sweep itself was clean; only the fuzzer failed.
        assert "1/1 lockstep runs clean" in out


class TestCleanPath:
    def test_clean_sweep_exits_zero(self, capsys):
        code = main(list(CLEAN_ARGS))
        out = capsys.readouterr().out
        assert code == 0
        assert "VALIDATION PASSED" in out
