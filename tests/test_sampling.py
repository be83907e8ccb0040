"""Interval-sampled timing simulation: accuracy, determinism, fallbacks.

The sampler is an estimator, so these tests pin down its contract rather
than exact cycle counts:

* the sampled IPC stays within the documented error budget of the exact
  IPC on a long trace (cheap configuration of the bench setup);
* a fixed :class:`SamplingConfig` is bit-deterministic;
* traces too short to sample fall back to exact simulation, flagged in
  ``extra`` — and exact mode itself is untouched by the sampling code;
* sample plans are structurally sound (ordered, disjoint, covering).
"""

from __future__ import annotations

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.sim.config import braid_config, ooo_config
from repro.sim.run import simulate
from repro.sim.sampling import (
    MIN_SAMPLED_INTERVALS,
    SamplingConfig,
    detect_anchors,
    plan_windows,
)

#: Cheap shrink of the bench configuration (scale 64, stride 16): enough
#: outer iterations that anchored sampling engages, small enough for CI.
SCALE = 12.0
SAMPLING = SamplingConfig(stride=4)


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=("gcc", "swim"),
        scale=SCALE,
        max_instructions=500_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


class TestConfig:
    def test_spec_round_trip(self):
        config = SamplingConfig(interval=300, stride=7, warmup=128, seed=3)
        assert SamplingConfig.parse(config.spec()) == config

    def test_parse_default_aliases(self):
        assert SamplingConfig.parse("default") == SamplingConfig()
        assert SamplingConfig.parse("1") == SamplingConfig()

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            SamplingConfig.parse("stride=fast")
        with pytest.raises(ValueError):
            SamplingConfig.parse("cadence=5")
        with pytest.raises(ValueError):
            SamplingConfig.parse("stride=0")
        with pytest.raises(ValueError, match="duplicate key 'stride'"):
            SamplingConfig.parse("stride=3,stride=7")

    def test_cache_token_distinguishes_configs(self):
        assert (
            SamplingConfig(stride=4).cache_token()
            != SamplingConfig(stride=8).cache_token()
        )


class TestPlan:
    def test_anchored_plan_structure(self, ctx):
        workload = ctx.workload("gcc")
        assert detect_anchors(workload.trace) is not None
        plan = plan_windows(workload.trace, SAMPLING)
        assert plan is not None
        total = len(workload.trace)
        assert len(plan.chosen) >= MIN_SAMPLED_INTERVALS
        starts = [start for start, _ in plan.units]
        assert starts == sorted(starts)
        for start, end in plan.units:
            assert 0 <= start < end <= total
        assert len(plan.detail_starts) == len(plan.chosen)
        for i, index in enumerate(plan.chosen):
            detail = plan.detail_starts[i]
            measure_start, measure_end = plan.units[index]
            assert detail <= measure_start < measure_end

    def test_lattice_fallback_without_anchors(self):
        class Straight:
            def __init__(self, block):
                self.block = block

        trace = [Straight(block) for block in range(40_000)]
        assert detect_anchors(trace) is None
        plan = plan_windows(trace, SamplingConfig())
        assert plan is not None and len(plan.chosen) >= MIN_SAMPLED_INTERVALS

    def test_short_trace_has_no_plan(self, ctx):
        workload = ctx.workload("gcc")
        assert plan_windows(workload.trace[:2_000], SamplingConfig()) is None


class TestEstimate:
    @pytest.mark.parametrize("name,config,braided", [
        ("gcc", ooo_config(8), False),
        ("gcc", braid_config(8), True),
        ("swim", ooo_config(8), False),
    ])
    def test_error_within_budget(self, ctx, name, config, braided):
        workload = ctx.workload(name, braided=braided)
        exact = simulate(workload, config)
        sampled = simulate(workload, config, sampling=SAMPLING)
        assert sampled.sampled and not sampled.extra.get("sample_fallback_exact")
        error = abs(sampled.ipc - exact.ipc) / exact.ipc
        assert error <= 0.02, (
            f"sampled IPC off by {100 * error:.2f}% on {name} "
            f"(exact {exact.ipc:.4f}, sampled {sampled.ipc:.4f})"
        )
        # Warmup overhead dominates at this small test scale; the bench-scale
        # detail fraction (~0.16, i.e. the >=4x speedup) lives in bench_speed.
        assert sampled.extra["sample_detail_fraction"] < 0.8

    def test_deterministic(self, ctx):
        workload = ctx.workload("gcc")
        a = simulate(workload, ooo_config(8), sampling=SAMPLING)
        b = simulate(workload, ooo_config(8), sampling=SAMPLING)
        assert a.cycles == b.cycles
        assert a.ipc_stderr == b.ipc_stderr
        assert a.extra == b.extra

    def test_stderr_populated(self, ctx):
        workload = ctx.workload("gcc")
        sampled = simulate(workload, ooo_config(8), sampling=SAMPLING)
        assert sampled.ipc_stderr >= 0.0
        assert sampled.ipc_ci95 == pytest.approx(1.96 * sampled.ipc_stderr)

    def test_exact_mode_untouched_by_sampling_import(self, ctx):
        workload = ctx.workload("swim")
        assert (
            simulate(workload, ooo_config(8)).cycles
            == simulate(workload, ooo_config(8), sampling=None).cycles
        )

    def test_short_trace_falls_back_to_exact(self):
        ctx = ExperimentContext(
            benchmarks=("gcc",), scale=0.5, jobs=1,
            cache=ArtifactCache(enabled=False),
        )
        workload = ctx.workload("gcc")
        exact = simulate(workload, ooo_config(8))
        sampled = simulate(workload, ooo_config(8), sampling=SamplingConfig())
        assert sampled.extra.get("sample_fallback_exact") == 1.0
        assert sampled.cycles == exact.cycles
        assert sampled.ipc_stderr == 0.0
