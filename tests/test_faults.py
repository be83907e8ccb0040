"""Transient-fault injection subsystem (repro.faults).

Covers the full stack the AVF figure rests on: the retirement-hang
watchdog in the timing core, the per-structure injectors and the
four-way outcome taxonomy, campaign determinism, the crash-safe resume
journal, quarantine semantics, the AVF aggregation, and the ``faults``
CLI command.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from repro.analysis import avf_report, storage_bits
from repro.analysis.avf import StructureAVF
from repro.faults import (
    CampaignError,
    CampaignSpec,
    FaultOutcome,
    FaultSession,
    INJECTORS,
    InjectionResult,
    InjectorError,
    injectors_for,
    plan_tasks,
    run_campaign,
    run_injection,
    structures_for,
)
from repro.faults.campaign import CampaignJournal
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.config import (
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
)
from repro.sim.registry import core_registry
from repro.sim.core import SimulationHang
from repro.sim.run import MAX_CYCLES, build_core
from repro.validate.lockstep import LockstepChecker


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=("gcc",),
        max_instructions=20_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


@pytest.fixture(scope="module")
def ooo_setup(ctx):
    """Workload, hang-bounded config, and fault-free baseline cycles."""
    workload = ctx.workload("gcc")
    config = replace(ooo_config(), max_idle_cycles=2_000)
    baseline = build_core(workload, config).run().cycles
    return workload, config, baseline


class TestHangWatchdog:
    def test_wedged_core_raises_diagnostic_hang(self, ctx):
        config = replace(inorder_config(), max_idle_cycles=500)
        core = build_core(ctx.workload("gcc"), config)
        # Wedge the machine: nothing ever issues, so nothing completes
        # and retirement stops dead while fetch/dispatch fill up.
        core.issue_stage = lambda cycle: None
        with pytest.raises(SimulationHang) as excinfo:
            core.run()
        hang = excinfo.value
        assert hang.machine == config.name
        assert hang.benchmark == "gcc"
        assert hang.retired == 0
        assert hang.target == len(ctx.workload("gcc").trace)
        assert hang.idle_cycles > 500
        assert hang.in_flight["rob"] > 0
        assert "WInst" in hang.rob_head
        for needle in ("no retirement", "rob=", "ROB head"):
            assert needle in str(hang)

    def test_clean_run_passes_tight_watchdog(self, ctx):
        # A healthy core retires continuously; even a tight idle window
        # must never false-positive.
        config = replace(ooo_config(), max_idle_cycles=500)
        result = build_core(ctx.workload("gcc"), config).run()
        assert result.instructions == len(ctx.workload("gcc").trace)

    def test_watchdog_fires_in_checked_loop_too(self, ctx):
        config = replace(inorder_config(), max_idle_cycles=500)
        core = build_core(ctx.workload("gcc"), config)
        core.issue_stage = lambda cycle: None
        core.fault_hook = lambda c, cycle: None  # a hooked run
        with pytest.raises(SimulationHang):
            core.run()


class TestInjectorRegistry:
    def test_structures_match_core_paradigm(self):
        braid = structures_for(braid_config().kind)
        assert "beu_fifo" in braid and "partition" in braid
        assert "scheduler" not in braid
        for factory in (ooo_config, inorder_config, depsteer_config):
            conventional = structures_for(factory().kind)
            assert "scheduler" in conventional
            assert "beu_fifo" not in conventional
        # every braid structure resolves to an injector: commons from the
        # shared table, paradigm-specific ones from the class declaration
        assert set(braid) <= set(injectors_for(braid_config().kind))

    def test_storage_bits_cover_every_injectable_structure(self):
        for descriptor in core_registry().values():
            config = descriptor.config_factory()
            bits = storage_bits(config)
            for structure in structures_for(config.kind):
                assert bits.get(structure, 0) > 0, (config.name, structure)

    def test_unknown_structure_rejected(self):
        import random

        with pytest.raises(InjectorError):
            FaultSession("tlb", 0, random.Random(0))

    def test_kind_mismatch_rejected(self, ctx):
        import random

        core = build_core(ctx.workload("gcc"), ooo_config())
        session = FaultSession("beu_fifo", 0, random.Random(0))
        with pytest.raises(InjectorError):
            session.attach(core)


class TestRunInjection:
    # Pinned (structure, seed) cells exercising every branch of the
    # taxonomy on the gcc workload with max_idle_cycles=2000.  The
    # workload generator and injectors are deterministic, so these are
    # stable; if a simulator change legitimately shifts them, re-pin.
    TAXONOMY = [
        ("rob", 0, FaultOutcome.MASKED),
        ("rob", 1, FaultOutcome.SDC),
        ("rob", 4, FaultOutcome.HANG),
        ("regfile", 2, FaultOutcome.CRASH),
    ]

    @pytest.mark.parametrize("structure, seed, expected", TAXONOMY)
    def test_taxonomy_outcomes(self, ooo_setup, structure, seed, expected):
        workload, config, baseline = ooo_setup
        result = run_injection(workload, config, structure, seed, baseline)
        assert result.outcome is expected
        assert result.injected
        assert result.applied_cycle is not None
        assert result.detail
        if expected is FaultOutcome.MASKED:
            assert result.error is None
        else:
            assert result.error

    def test_deterministic_for_fixed_seed(self, ooo_setup):
        workload, config, baseline = ooo_setup
        first = run_injection(workload, config, "rob", 1, baseline)
        second = run_injection(workload, config, "rob", 1, baseline)
        assert first == second  # frozen dataclass: full field equality

    def test_runs_are_independent(self, ooo_setup):
        # An SDC run must not corrupt the shared workload: a fault-free
        # run afterwards still matches the baseline exactly.
        workload, config, baseline = ooo_setup
        run_injection(workload, config, "rob", 1, baseline)
        assert build_core(workload, config).run().cycles == baseline

    def test_never_live_target_is_masked_not_injected(self, ooo_setup):
        workload, config, baseline = ooo_setup
        import random

        core = build_core(workload, config)
        session = FaultSession(
            "rob", 10 ** 9, random.Random(0)
        ).attach(core)
        result = core.run()
        assert not session.injected
        assert result.cycles == baseline  # a hooked run is timing-identical

    def test_result_json_roundtrip(self, ooo_setup):
        workload, config, baseline = ooo_setup
        result = run_injection(workload, config, "rob", 4, baseline)
        assert InjectionResult.from_json(result.to_json()) == result
        assert json.dumps(result.to_json())  # JSON-serializable end to end


class ScriptedRng(random.Random):
    """An injector RNG that picks ``option`` where it is offered (else the
    first choice) and the lowest value of every range."""

    def __init__(self, option: str) -> None:
        super().__init__(0)
        self.option = option

    def choice(self, options):
        return self.option if self.option in options else options[0]

    def randrange(self, start, stop=None, step=1):
        return start if stop is not None else 0


class TestTraceRowFaults:
    """The ROB injector corrupts an in-flight instruction's row or tag;
    the trace it came from stays as it was."""

    def mid_run(self, ctx):
        workload = ctx.workload("gcc")
        core = build_core(workload, ooo_config(8))
        checker = LockstepChecker(workload, fail_fast=False).attach(core)
        cycle = core._run_until(200, 0, MAX_CYCLES)
        assert core._rob
        return workload, core, checker, cycle

    def test_payload_replacement_is_what_lockstep_reads(self, ctx):
        workload, core, checker, cycle = self.mid_run(ctx)
        detail = INJECTORS["rob"](core, ScriptedRng("payload"))
        assert detail == "rob[0] payload bit 0 of pc"
        winst = core._rob[0]
        pc = workload.trace.pc[winst.index]
        row = winst.dyn
        assert row.pc == pc ^ 1 and row.seq == winst.index
        assert workload.trace[winst.index].pc == pc  # the trace is intact
        core._run_until(len(workload.trace), cycle, MAX_CYCLES)
        divergences = checker.finish()
        assert [(d.field, d.index, d.expected, d.actual)
                for d in divergences] == \
            [("pc", winst.index, hex(pc), hex(pc ^ 1))]

    def test_seq_flip_keeps_the_row_at_the_trace_position(self, ctx):
        workload, core, _checker, _cycle = self.mid_run(ctx)
        winst = core._rob[0]
        index = winst.index
        detail = INJECTORS["rob"](core, ScriptedRng("tag"))
        assert detail == f"rob[0] seq tag bit 0 -> {index ^ 1}"
        assert winst.seq == index ^ 1 and winst.index == index
        assert winst.dyn == workload.trace[index]
        assert winst.dyn.seq == index


def _small_spec(**overrides):
    base = dict(
        benchmarks=("gcc",),
        cores=("ooo",),
        structures=("rob", "regfile"),
        runs=3,
        seed=7,
        hang_cycles=2_000,
        jobs=1,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestCampaign:
    def test_spec_validation(self):
        with pytest.raises(CampaignError):
            _small_spec(cores=("vliw",)).validate()
        with pytest.raises(CampaignError):
            _small_spec(structures=("tlb",)).validate()
        with pytest.raises(CampaignError):
            _small_spec(runs=0).validate()
        _small_spec().validate()

    def test_plan_covers_grid_in_order(self):
        spec = _small_spec()
        tasks = plan_tasks(spec)
        assert len(tasks) == 2 * spec.runs
        assert tasks[0].task_id == "gcc/ooo/rob/0"
        assert len({task.task_id for task in tasks}) == len(tasks)

    def test_campaign_classifies_everything(self, ctx, tmp_path):
        spec = _small_spec()
        report = run_campaign(
            ctx, spec, journal_path=tmp_path / "j.jsonl"
        )
        assert report.passed
        results = report.results
        assert len(results) == 2 * spec.runs
        for result in results:
            assert result.outcome in FaultOutcome
        assert "CAMPAIGN COMPLETE" in report.render()

    def test_same_seed_reports_are_bit_identical(self, ctx, tmp_path):
        spec = _small_spec()
        first = run_campaign(ctx, spec, journal_path=tmp_path / "a.jsonl")
        second = run_campaign(ctx, spec, journal_path=tmp_path / "b.jsonl")
        assert first.render() == second.render()

    def test_resume_skips_completed_tasks(self, ctx, tmp_path, monkeypatch):
        spec = _small_spec()
        journal = tmp_path / "resume.jsonl"
        full = run_campaign(ctx, spec, journal_path=journal)
        full_render = full.render()

        # Simulate a mid-campaign SIGKILL: keep the header plus the
        # first three fsynced records, tear the rest away.
        lines = journal.read_text().splitlines()
        keep = 1 + 3
        journal.write_text("\n".join(lines[:keep]) + "\n")

        executed = []
        import repro.faults.campaign as campaign_module

        real = campaign_module.run_injection

        def counting(workload, config, structure, seed, baseline_cycles,
                     max_cycles=None):
            executed.append(structure)
            return real(workload, config, structure, seed, baseline_cycles,
                        max_cycles)

        monkeypatch.setattr(campaign_module, "run_injection", counting)
        resumed = run_campaign(
            ctx, spec, journal_path=journal, resume=True
        )
        assert resumed.resumed == 3
        assert len(executed) == 2 * spec.runs - 3
        assert resumed.render() != full_render  # mentions the resume...
        assert "resumed: 3" in resumed.render()
        # ...but classifies the identical grid.
        assert resumed.results == full.results

    def test_resume_tolerates_torn_tail(self, ctx, tmp_path):
        spec = _small_spec()
        journal = tmp_path / "torn.jsonl"
        run_campaign(ctx, spec, journal_path=journal)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"task": "gcc/ooo/rob/0", "sta')  # mid-write kill
        report = run_campaign(ctx, spec, journal_path=journal, resume=True)
        assert report.passed

    def test_resume_refuses_foreign_journal(self, ctx, tmp_path):
        journal = tmp_path / "foreign.jsonl"
        run_campaign(ctx, _small_spec(), journal_path=journal)
        with pytest.raises(CampaignError) as excinfo:
            run_campaign(
                ctx, _small_spec(seed=8), journal_path=journal, resume=True
            )
        assert "different campaign" in str(excinfo.value)

    def test_without_resume_journal_is_overwritten(self, ctx, tmp_path):
        journal = tmp_path / "fresh.jsonl"
        run_campaign(ctx, _small_spec(), journal_path=journal)
        # A different grid may reuse the path when not resuming.
        report = run_campaign(ctx, _small_spec(seed=8), journal_path=journal)
        assert report.passed and report.resumed == 0

    def test_infrastructure_failure_quarantines_not_aborts(
        self, ctx, tmp_path, monkeypatch
    ):
        import repro.faults.campaign as campaign_module

        real = campaign_module.run_injection

        def flaky(workload, config, structure, seed, baseline_cycles,
                  max_cycles=None):
            if structure == "regfile":
                raise InjectorError("injector lost the structure")
            return real(workload, config, structure, seed, baseline_cycles,
                        max_cycles)

        monkeypatch.setattr(campaign_module, "run_injection", flaky)
        spec = _small_spec()
        report = run_campaign(ctx, spec, journal_path=tmp_path / "q.jsonl")
        assert not report.passed
        assert len(report.quarantined) == spec.runs
        assert len(report.results) == spec.runs  # rob cells still classified
        text = report.render()
        assert "CAMPAIGN INCOMPLETE" in text
        assert "quarantined tasks" in text
        assert "injector lost the structure" in text

    def test_journal_records_are_fsynced_json_lines(self, ctx, tmp_path):
        spec = _small_spec(runs=1)
        journal = tmp_path / "lines.jsonl"
        run_campaign(ctx, spec, journal_path=journal)
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "faults-journal"
        assert header["digest"] == spec.digest()
        records = [json.loads(line) for line in lines[1:]]
        assert {record["task"] for record in records} == {
            task.task_id for task in plan_tasks(spec)
        }

    def test_journal_header_must_parse(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CampaignError):
            CampaignJournal(path, digest="abc", resume=True)


class TestPinnedCampaign:
    """The CI smoke campaign (gcc x braid/ooo/inorder/depsteer, 8 runs
    per structure, seed 7, the ``faults`` command's 0.2 scale), pinned to
    the outcome table and per-injection records the simulator produced
    before its run loop event-skipped up to the injection cycle.  The
    loop must reproduce them exactly: same cells, same flipped bits at
    the same cycles, same error lines."""

    #: (machine, structure) -> outcome counts over the 8 runs
    TABLE = {
        ("braid-8w", "beu_fifo"): {"masked": 8},
        ("braid-8w", "branchpred"): {"masked": 8},
        ("braid-8w", "checkpoints"): {"masked": 8},
        ("braid-8w", "lsq"): {"masked": 8},
        ("braid-8w", "partition"): {"masked": 8},
        ("braid-8w", "regfile"): {"masked": 7, "hang": 1},
        ("braid-8w", "rob"): {"masked": 6, "sdc": 2},
        ("depsteer-8w", "branchpred"): {"masked": 8},
        ("depsteer-8w", "checkpoints"): {"masked": 8},
        ("depsteer-8w", "lsq"): {"masked": 8},
        ("depsteer-8w", "regfile"): {"masked": 5, "crash": 2, "hang": 1},
        ("depsteer-8w", "rob"): {"masked": 4, "sdc": 2, "hang": 2},
        ("depsteer-8w", "scheduler"): {"masked": 2, "hang": 6},
        ("inorder-8w", "branchpred"): {"masked": 8},
        ("inorder-8w", "checkpoints"): {"masked": 8},
        ("inorder-8w", "lsq"): {"masked": 8},
        ("inorder-8w", "regfile"): {"masked": 8},
        ("inorder-8w", "rob"): {"masked": 4, "sdc": 4},
        ("inorder-8w", "scheduler"): {"masked": 3, "hang": 5},
        ("ooo-8w", "branchpred"): {"masked": 8},
        ("ooo-8w", "checkpoints"): {"masked": 8},
        ("ooo-8w", "lsq"): {"masked": 8},
        ("ooo-8w", "regfile"): {"masked": 8},
        ("ooo-8w", "rob"): {"masked": 2, "sdc": 5, "crash": 1},
        ("ooo-8w", "scheduler"): {"masked": 8},
    }
    #: sha256 of the sorted-key JSON list of every InjectionResult
    RECORDS_SHA256 = (
        "7a33dd600fd95c20c6ae5d04c158ef8aa5c75f9b345f8a7b03e2026ba8d4e216"
    )

    def test_smoke_campaign_matches_pinned_outcomes(self, tmp_path):
        import hashlib
        from collections import Counter

        spec = CampaignSpec(
            benchmarks=("gcc",),
            cores=("braid", "ooo", "inorder", "depsteer"),
            runs=8, seed=7, scale=0.2, jobs=1,
        )
        context = ExperimentContext(
            benchmarks=("gcc",), scale=0.2, jobs=1,
            cache=ArtifactCache(enabled=False),
        )
        report = run_campaign(
            context, spec, journal_path=tmp_path / "campaign.jsonl"
        )
        assert report.passed
        table = {}
        for result in report.results:
            cell = (result.machine, result.structure)
            table.setdefault(cell, Counter())[result.outcome.value] += 1
        assert {cell: dict(c) for cell, c in table.items()} == self.TABLE
        rows = [result.to_json() for result in report.results]
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()
        ).hexdigest()
        assert digest == self.RECORDS_SHA256


class TestAVFAnalysis:
    def test_avf_is_non_masked_fraction(self):
        row = StructureAVF(
            machine="m", structure="rob", bits=100,
            counts={"masked": 6, "sdc": 2, "crash": 1, "hang": 1},
        )
        assert row.injections == 10
        assert row.avf == pytest.approx(0.4)
        assert row.weighted == pytest.approx(40.0)

    def test_report_aggregates_and_ranks(self):
        def result(machine, structure, outcome):
            return InjectionResult(
                benchmark="gcc", machine=machine, structure=structure,
                seed=0, outcome=FaultOutcome(outcome), injected=True,
                applied_cycle=1, detail="x",
            )

        results = (
            [result("ooo-8w", "rob", "sdc")] * 3
            + [result("ooo-8w", "rob", "masked")]
            + [result("braid-8w", "rob", "masked")] * 4
        )
        report = avf_report(
            results, {"ooo-8w": ooo_config(), "braid-8w": braid_config()}
        )
        by_key = {(r.machine, r.structure): r for r in report.rows}
        assert by_key[("ooo-8w", "rob")].avf == pytest.approx(0.75)
        assert by_key[("braid-8w", "rob")].avf == 0.0
        summary = dict(
            (machine, avf) for machine, avf, _ in report.machine_summary()
        )
        assert summary["braid-8w"] < summary["ooo-8w"]
        text = report.render()
        assert "most vulnerable structures" in text
        assert "bit-weighted machine vulnerability" in text
        assert "ooo-8w rob" in text

    def test_render_is_deterministic_under_shuffled_input(self):
        def result(machine, structure):
            return InjectionResult(
                benchmark="gcc", machine=machine, structure=structure,
                seed=0, outcome=FaultOutcome.MASKED, injected=True,
                applied_cycle=1, detail="x",
            )

        configs = {"ooo-8w": ooo_config()}
        forward = [result("ooo-8w", s) for s in ("rob", "lsq", "regfile")]
        assert (
            avf_report(forward, configs).render()
            == avf_report(list(reversed(forward)), configs).render()
        )


class TestFaultsCli:
    CLI = [
        "faults", "--benchmarks", "gcc", "--cores", "ooo",
        "--structures", "rob,regfile", "--runs", "2", "--seed", "7",
        "--scale", "0.2", "--jobs", "1", "--no-cache",
    ]

    def test_smoke_and_determinism(self, capsys, tmp_path):
        code = main_faults(self.CLI + ["--journal", str(tmp_path / "a.jsonl")])
        first = capsys.readouterr().out
        assert code == 0
        assert "CAMPAIGN COMPLETE" in first
        assert "per-structure architectural vulnerability" in first
        code = main_faults(self.CLI + ["--journal", str(tmp_path / "b.jsonl")])
        second = capsys.readouterr().out
        assert code == 0
        assert first == second

    def test_cannot_mix_with_experiments(self):
        with pytest.raises(SystemExit):
            main_faults(["faults", "T1"])

    def test_unknown_core_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main_faults([
                "faults", "--cores", "vliw", "--no-cache",
                "--journal", str(tmp_path / "x.jsonl"),
            ])


def main_faults(argv):
    from repro.harness.__main__ import main

    return main(argv)
