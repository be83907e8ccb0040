"""Harness telemetry: metrics histograms, JSONL run logs, profiling.

The metrics layer must be *accounting-complete* (histogram weights cover
every simulated cycle, occupancies never exceed their structural bounds),
the run log must be concurrency-safe and opt-out-able, and the profiling
helpers must be zero-cost outside ``profiling_into``.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs import (
    BoundedHistogram,
    Observer,
    RunLog,
    aggregate_profiles,
    maybe_profiled,
    profiling_into,
)
from repro.obs.runlog import ENV_RUNLOG
from repro.sim.config import braid_config, ooo_config
from repro.sim.run import simulate

from tests.test_parallel_hardened import needs_fork


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        benchmarks=("gcc",),
        max_instructions=20_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


class TestBoundedHistogram:
    def test_buckets_overflow_and_moments(self):
        hist = BoundedHistogram(bound=4)
        hist.add(0, weight=3)
        hist.add(2)
        hist.add(9, weight=2)  # beyond the bound
        assert hist.counts[0] == 3 and hist.counts[2] == 1
        assert hist.overflow == 2
        assert hist.total_weight == 6
        assert hist.max_value == 9
        assert hist.mean == pytest.approx((0 * 3 + 2 + 9 * 2) / 6)
        summary = hist.summary()
        assert summary["weight"] == 6.0
        assert summary["max"] == 9.0
        assert summary["overflow"] == 2.0

    def test_percentiles_walk_the_buckets(self):
        hist = BoundedHistogram(bound=10)
        for value in (1, 1, 1, 5, 9):
            hist.add(value)
        assert hist.percentile(0.5) == 1
        assert hist.percentile(0.95) == 9


class TestSimulationMetrics:
    @pytest.mark.parametrize(
        "config,braided",
        [(ooo_config(8), False), (braid_config(8), True)],
        ids=["ooo", "braid"],
    )
    def test_occupancy_weights_cover_every_cycle(self, ctx, config, braided):
        workload = ctx.workload("gcc", braided=braided)
        observe = Observer(cpi=True, metrics=True)
        result = simulate(workload, config, observe=observe)
        assert result.metrics is not None
        for name in (
            "rob_occupancy", "fetch_buffer_occupancy", "lsq_occupancy",
            "scheduler_occupancy", "issue_slots",
        ):
            hist = observe.metrics.histograms[name]
            # Every simulated cycle contributes exactly one (weighted)
            # observation — including the cycles of skipped spans.
            assert hist.total_weight == result.cycles, name
            assert hist.overflow == 0, name
        rob = observe.metrics.histograms["rob_occupancy"]
        assert rob.max_value <= config.max_in_flight
        issue = observe.metrics.histograms["issue_slots"]
        # Issue slots used across all cycles = total issued instructions.
        assert issue.weighted_sum == result.issued


class TestRunLog:
    def test_cells_are_logged_once_per_fresh_run(self, tmp_path, monkeypatch):
        log_path = tmp_path / "runlog.jsonl"
        monkeypatch.setenv(ENV_RUNLOG, str(log_path))
        context = ExperimentContext(
            benchmarks=("gcc",),
            max_instructions=5_000,
            jobs=1,
            cache=ArtifactCache(enabled=False),
        )
        context.run("gcc", ooo_config(8))
        events = RunLog(log_path).read()
        assert len(events) == 1
        event = events[0]
        assert event["event"] == "cell"
        assert event["benchmark"] == "gcc"
        assert event["machine"] == ooo_config(8).name
        assert event["cycles"] > 0 and event["instructions"] > 0
        assert event["seconds"] >= 0
        assert "pid" in event and "ts" in event
        assert event["result_cache_hit"] is False
        assert event["cpi"] is False
        # Memoized repeats must not add lines.
        context.run("gcc", ooo_config(8))
        assert len(RunLog(log_path).read()) == 1
        # the same point with a CPI stack is its own cell
        context.run("gcc", ooo_config(8), cpi=True)
        assert [event["cpi"] for event in RunLog(log_path).read()] == [
            False, True,
        ]

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(ENV_RUNLOG, "off")
        log = RunLog.from_env(cache=None)
        assert not log.enabled
        log.log(event="ignored")  # must be a no-op, not an error

    def test_default_lands_next_to_the_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_RUNLOG, raising=False)
        cache = ArtifactCache(root=tmp_path / "cache", enabled=True)
        log = RunLog.from_env(cache)
        assert log.enabled
        assert log.path == tmp_path / "cache" / "runlog.jsonl"
        disabled = RunLog.from_env(ArtifactCache(enabled=False))
        assert not disabled.enabled

    def test_torn_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runlog.jsonl"
        log = RunLog(path)
        log.log(event="good")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "torn"')  # no newline, no close brace
        events = log.read()
        assert [event["event"] for event in events] == ["good"]


class TestProfiling:
    def test_disabled_is_a_straight_call(self, tmp_path):
        assert maybe_profiled(lambda: 41 + 1) == 42
        with profiling_into(tmp_path):
            pass
        assert maybe_profiled(lambda: 41 + 1) == 42
        assert not list(tmp_path.glob("*.prof"))

    def test_profiles_are_dumped_and_aggregated(self, tmp_path):
        with profiling_into(tmp_path):
            assert maybe_profiled(lambda: sum(range(1000))) == 499500
            assert maybe_profiled(lambda: sorted(range(100))) is not None
        profs = list(tmp_path.glob("*.prof"))
        assert len(profs) == 2
        assert all(f"-{os.getpid()}-" in p.name for p in profs)
        report = aggregate_profiles(tmp_path, top=5)
        assert "2 sample file(s)" in report
        assert "cumulative" in report

    @needs_fork
    def test_forked_workers_inherit_the_setting(self, tmp_path):
        with profiling_into(tmp_path):
            child = multiprocessing.get_context("fork").Process(
                target=maybe_profiled, args=(lambda: sum(range(10)),),
            )
            child.start()
            child.join(timeout=30)
        assert child.exitcode == 0
        profs = list(tmp_path.glob("*.prof"))
        assert len(profs) == 1 and f"-{child.pid}-" in profs[0].name

    def test_aggregate_with_no_data(self, tmp_path):
        assert "no profile data" in aggregate_profiles(tmp_path)
