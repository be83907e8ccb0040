"""The interval fidelity tier: config parsing, planning, and honesty.

The interval tier trades detail for speed: a handful of calibration
windows are simulated exactly and the GREG-style estimator predicts the
rest analytically.  These tests pin down the contract that makes the
tier usable in sweeps:

* :class:`IntervalConfig` specs round-trip and reject nonsense;
* calibration plans are deterministic and fall back to exact when the
  trace is too short to be worth predicting;
* results are bit-deterministic, carry ``fidelity="interval"``, report
  their measured error bound honestly, and ship a model-derived CPI
  stack that sums exactly to the estimated cycles.
"""

from __future__ import annotations

import math

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.config import braid_config, ooo_config
from repro.sim.interval import IntervalConfig, plan_calibration
from repro.sim.run import build_core, simulate


@pytest.fixture(scope="module")
def ctx():
    # scale=8 keeps runtime modest while leaving the traces (~30-40k
    # instructions) long enough that the calibration planner engages
    # instead of falling back to exact.
    return ExperimentContext(
        benchmarks=("gcc", "mcf"),
        scale=8,
        max_instructions=200_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


class TestIntervalConfig:
    def test_spec_round_trips(self):
        config = IntervalConfig(
            windows=9, window=300, warmup=64, seed=3, error_bound_pct=15.0
        )
        assert IntervalConfig.parse(config.spec()) == config

    @pytest.mark.parametrize("text", ("", "1", "on", "default", "TRUE"))
    def test_default_spellings(self, text):
        assert IntervalConfig.parse(text) == IntervalConfig()

    def test_bound_maps_to_error_bound_pct(self):
        assert IntervalConfig.parse("bound=2.5").error_bound_pct == 2.5

    @pytest.mark.parametrize(
        "text", ("windows", "stride=4", "windows=x", "bound=low")
    )
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            IntervalConfig.parse(text)

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"windows": 1},
            {"window": 0},
            {"warmup": -1},
            {"seed": -1},
            {"error_bound_pct": 0.0},
        ),
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntervalConfig(**kwargs)

    def test_cache_token_distinguishes_configs(self):
        base = IntervalConfig()
        assert base.cache_token() != IntervalConfig(seed=1).cache_token()
        assert base.cache_token() == IntervalConfig().cache_token()


class TestPlanCalibration:
    def test_short_trace_declines(self):
        # 12 default windows over <= 12 units: nothing left to predict.
        config = IntervalConfig()
        assert plan_calibration(config.windows * config.window, config) is None

    def test_plan_is_deterministic(self):
        config = IntervalConfig()
        assert plan_calibration(100_000, config) == (
            plan_calibration(100_000, config)
        )

    def test_plan_anchors_first_and_last_units(self):
        config = IntervalConfig()
        plan = plan_calibration(100_000, config)
        units, chosen = plan.units, plan.chosen
        assert plan.certain == ()
        assert chosen[0] == 0
        assert chosen[-1] == len(units) - 1
        assert units[0][0] == 0
        assert units[-1][1] == 100_000
        # Lattice covers the trace contiguously.
        for (_, end), (start, _) in zip(units, units[1:]):
            assert end == start

    def test_seed_moves_interior_picks_only(self):
        total = 200_000
        base = plan_calibration(total, IntervalConfig(seed=0)).chosen
        moved = plan_calibration(total, IntervalConfig(seed=7)).chosen
        assert base[0] == moved[0] == 0
        assert base[-1] == moved[-1]
        assert base != moved  # interior scatter responds to the seed


class TestSimulateInterval:
    def test_deterministic(self, ctx):
        workload = ctx.workload("gcc")
        first = simulate(workload, ooo_config(), fidelity="interval")
        second = simulate(workload, ooo_config(), fidelity="interval")
        assert first.cycles == second.cycles
        assert first.extra == second.extra

    def test_result_shape(self, ctx):
        workload = ctx.workload("gcc")
        result = simulate(workload, ooo_config(), fidelity="interval")
        assert result.fidelity == "interval"
        assert result.sampled
        assert result.instructions == len(workload.trace)
        assert result.extra["interval_error_bound_pct"] > 0
        assert 0.0 < result.extra["sample_detail_fraction"] < 1.0

    def test_short_trace_falls_back_to_exact(self, ctx):
        small = ExperimentContext(
            benchmarks=("gcc",),
            max_instructions=2_000,
            jobs=1,
            cache=ArtifactCache(enabled=False),
        )
        workload = small.workload("gcc")
        result = simulate(workload, ooo_config(), fidelity="interval")
        assert result.extra.get("interval_fallback_exact") == 1.0
        exact = build_core(workload, ooo_config()).run()
        assert result.cycles == exact.cycles

    @pytest.mark.parametrize(
        "name, factory, braided",
        [("gcc", ooo_config, False), ("mcf", braid_config, True)],
    )
    def test_error_within_stated_bound(self, ctx, name, factory, braided):
        """The honesty contract: actual IPC error <= the stated bound."""
        workload = ctx.workload(name, braided=braided)
        exact = build_core(workload, factory()).run()
        result = simulate(workload, factory(), fidelity="interval")
        error_pct = 100.0 * abs(result.cycles - exact.cycles) / exact.cycles
        assert error_pct <= result.extra["interval_error_bound_pct"], (
            f"{name}: {error_pct:.2f}% error exceeds stated "
            f"{result.extra['interval_error_bound_pct']:.2f}% bound"
        )

    def test_model_cpi_stack_sums_to_cycles(self, ctx):
        workload = ctx.workload("gcc")
        result = simulate(workload, ooo_config(), fidelity="interval")
        assert result.cpi_stack, "interval run should ship a model CPI stack"
        assert all(value >= 0.0 for value in result.cpi_stack.values())
        assert math.isclose(
            sum(result.cpi_stack.values()), result.cycles, rel_tol=1e-9
        )

    def test_simulate_dispatches_interval(self, ctx):
        workload = ctx.workload("gcc")
        direct = simulate(workload, ooo_config(), fidelity="interval")
        routed = simulate(workload, ooo_config(), interval=IntervalConfig())
        assert routed.fidelity == "interval"
        assert routed.cycles == direct.cycles

    def test_simulate_rejects_unknown_fidelity(self, ctx):
        workload = ctx.workload("gcc")
        with pytest.raises(ValueError, match="unknown fidelity"):
            simulate(workload, ooo_config(), fidelity="approximate")

    def test_fidelity_labels(self, ctx):
        workload = ctx.workload("gcc")
        assert simulate(workload, ooo_config()).fidelity == "exact"
        assert (
            simulate(workload, ooo_config(), fidelity="sampled").fidelity
            == "sampled"
        )
