"""CPI stall attribution (repro.obs.cpi / Observer accounting).

Pins the two properties the observability layer stands on:

* **Accounting identity** — with the observer attached, the CPI-stack
  components sum to the simulated cycle count exactly (exact mode) or
  within rounding (sampled mode), and ``base`` accounts for exactly one
  retirement slot per instruction.
* **Non-interference** — attaching the observer never changes a single
  architectural counter: the traced run is bit-identical to the plain one.

Plus the satellite diagnostics: ``SimulationHang`` carries a
stall-attribution snapshot, and ``WInst.__repr__`` shows the lifecycle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import replace

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs import STALL_CAUSES, Observer
from repro.sim.config import (
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
)
from repro.sim.core import SimulationHang
from repro.sim.run import build_core, simulate
from repro.sim.sampling import SamplingConfig

BENCHMARKS = ("gcc", "mcf")

CORES = {
    "ooo": (ooo_config(8), False),
    "inorder": (inorder_config(8), False),
    "depsteer": (depsteer_config(8), False),
    "braid": (braid_config(8), True),
}


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=BENCHMARKS,
        max_instructions=20_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


def fingerprint(result):
    """Every architectural counter a run produces (observability excluded)."""
    extra = {
        key: value
        for key, value in result.extra.items()
        if not key.startswith("trace_")
    }
    return (
        result.cycles,
        result.instructions,
        result.issued,
        dataclasses.asdict(result.stalls),
        sorted(extra.items()),
    )


class TestExactAccounting:
    @pytest.mark.parametrize("kind", list(CORES))
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_stack_sums_to_cycles_exactly(self, ctx, kind, bench):
        config, braided = CORES[kind]
        workload = ctx.workload(bench, braided=braided)
        observe = Observer(cpi=True)
        result = simulate(workload, config, observe=observe)
        assert result.cpi_stack is not None
        assert set(result.cpi_stack) == set(STALL_CAUSES)
        # Slot fractions are k/width with width a power of two, so the
        # accumulation is exact in binary floating point: == not approx.
        assert sum(result.cpi_stack.values()) == result.cycles
        # base counts used retirement slots: one per retired instruction.
        assert (
            result.cpi_stack["base"] * config.issue_width
            == result.instructions
        )
        assert all(value >= 0 for value in result.cpi_stack.values())

    @pytest.mark.parametrize("kind", list(CORES))
    def test_observer_never_changes_the_run(self, ctx, kind):
        config, braided = CORES[kind]
        workload = ctx.workload("gcc", braided=braided)
        plain = simulate(workload, config)
        observed = simulate(
            workload, config,
            observe=Observer(trace=True, cpi=True, metrics=True),
        )
        assert fingerprint(observed) == fingerprint(plain)
        assert plain.cpi_stack is None
        assert plain.metrics is None


class TestSampledAccounting:
    @pytest.fixture(scope="class")
    def sampled_ctx(self):
        return ExperimentContext(
            benchmarks=("gcc",),
            scale=12,
            jobs=1,
            cache=ArtifactCache(enabled=False),
        )

    @pytest.mark.parametrize("kind", ("ooo", "braid"))
    def test_scaled_stack_matches_estimated_cycles(self, sampled_ctx, kind):
        config, braided = CORES[kind]
        workload = sampled_ctx.workload("gcc", braided=braided)
        sampling = SamplingConfig(stride=4)
        observe = Observer(cpi=True)
        result = simulate(
            workload, config, sampling=sampling, observe=observe
        )
        assert result.sampled, "trace too short to engage the sample plan"
        total = sum(result.cpi_stack.values())
        # Measured-window slots are scaled to the cycle estimate; only
        # float rounding separates the two.
        assert total == pytest.approx(result.cycles, abs=1.0)

    def test_sampled_run_itself_is_unchanged(self, sampled_ctx):
        config, braided = CORES["ooo"]
        workload = sampled_ctx.workload("gcc", braided=braided)
        sampling = SamplingConfig(stride=4)
        plain = simulate(workload, config, sampling=sampling)
        observed = simulate(
            workload, config, sampling=sampling, observe=Observer(cpi=True)
        )
        assert fingerprint(observed) == fingerprint(plain)


class TestSpanAccounting:
    def test_span_charges_what_single_stepping_would(self, ctx):
        """A skipped span is charged as its cycles one by one: with the
        ROB empty the label flips from branch_flush to fetch_limited at
        the fetch-resume cycle, mid-span, and the gauges are weighted by
        the span length."""
        from repro.obs.cpi import classify_cycle

        core = build_core(ctx.workload("gcc"), ooo_config(8))
        observer = Observer(cpi=True, metrics=True)
        observer.attach(core)
        core._fetch_resume = 104
        assert classify_cycle(core, 100) == "branch_flush"
        assert classify_cycle(core, 104) == "fetch_limited"
        observer._on_span(core, 100, 10, None)
        assert observer.slots["branch_flush"] == 4
        assert observer.slots["fetch_limited"] == 6
        for histogram in observer.metrics.histograms.values():
            assert histogram.total_weight == 10


class TestHangDiagnostics:
    def test_hang_carries_stall_attribution_snapshot(self, ctx):
        config = replace(inorder_config(), max_idle_cycles=500)
        core = build_core(ctx.workload("gcc"), config)
        core.issue_stage = lambda cycle: None  # wedge: nothing ever issues
        with pytest.raises(SimulationHang) as excinfo:
            core.run()
        hang = excinfo.value
        assert hang.stall_cause in STALL_CAUSES
        assert hang.stall_snapshot == {hang.stall_cause: hang.idle_cycles}
        message = str(hang)
        assert f"waiting on {hang.stall_cause}" in message
        # The pre-existing diagnostic content must survive the new format.
        for needle in ("no retirement", "rob=", "ROB head"):
            assert needle in message


class TestWInstRepr:
    def test_repr_shows_lifecycle(self, ctx):
        config, braided = CORES["ooo"]
        workload = ctx.workload("gcc", braided=braided)
        observe = Observer(trace=True, cpi=False, trace_capacity=64)
        simulate(workload, config, observe=observe)
        records = observe.trace_records()
        assert records
        winst = records[-1]
        text = repr(winst)
        assert f"seq={winst.seq}" in text
        assert winst.dyn.inst.opcode.name in text
        assert f"f={winst.fetch_cycle}" in text
        assert f"i={winst.issue_cycle}" in text
        assert f"r={winst.retire_cycle}" in text

    def test_repr_marks_unreached_stages(self, ctx):
        from repro.sim.core import WInst

        workload = ctx.workload("gcc")
        winst = WInst(
            workload.trace, 0, workload.decode()[0],
            fetch_cycle=3, dispatch_ready=3, mispredicted=False,
            mem_word=workload.replay().mem_word[0],
        )
        text = repr(winst)
        assert "d=-" in text and "i=-" in text and "r=-" in text
