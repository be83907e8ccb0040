"""Tests for the experiment harness (context, experiments, reporting)."""

import os
from dataclasses import asdict

import pytest

from repro.harness import (
    ALL_EXPERIMENTS, ArtifactCache, ExperimentContext, SweepPoint,
)
from repro.harness.context import WorkloadNeed, fill_workload_cache
from repro.harness.experiments import (
    fig11_braid_window,
    fig13_paradigms,
    fig14_equal_fus,
    sampling_validation,
    tab1_braids_per_block,
)
from repro.harness.reporting import ExperimentResult
from repro.obs.runlog import RunLog
from repro.sim import braid_config, inorder_config, ooo_config
from repro.sim.sampling import SamplingConfig
from repro.workloads import (
    ALL_BENCHMARKS,
    QUICK_BENCHMARKS,
    select_benchmarks,
)
from tests.test_service_supervisor import (
    batch_config, needs_two_workers, submit,
)


class TestContext:
    def test_program_cached(self, quick_context):
        assert quick_context.program("gcc") is quick_context.program("gcc")

    def test_compilation_cached_per_limit(self, quick_context):
        a = quick_context.compilation("gcc")
        b = quick_context.compilation("gcc", internal_limit=8)
        c = quick_context.compilation("gcc", internal_limit=4)
        assert a is b and a is not c

    def test_workload_variants_distinct(self, quick_context):
        plain = quick_context.workload("gcc")
        braided = quick_context.workload("gcc", braided=True)
        perfect = quick_context.workload("gcc", perfect=True)
        assert plain is not braided and plain is not perfect
        assert perfect.mispredicted == set()

    def test_run_produces_result(self, quick_context):
        from repro.sim import ooo_config

        result = quick_context.run("gcc", ooo_config(8))
        assert result.benchmark == "gcc"
        assert result.ipc > 0

    def test_suite_of(self, quick_context):
        assert quick_context.suite_of("gcc") == "int"
        assert quick_context.suite_of("swim") == "fp"


class TestEnvSelection:
    """The one benchmark-selection parser every selection flag uses; the
    environment no longer selects anything."""

    def test_default_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCHMARKS", "quick")
        assert select_benchmarks(None, "full") == ALL_BENCHMARKS
        assert select_benchmarks("  ", "full") == ALL_BENCHMARKS
        assert ExperimentContext(
            cache=ArtifactCache(enabled=False)
        ).benchmarks == ALL_BENCHMARKS

    def test_quick(self):
        assert select_benchmarks("quick", "full") == QUICK_BENCHMARKS
        assert select_benchmarks(None, "quick") == QUICK_BENCHMARKS

    def test_explicit_list(self):
        assert select_benchmarks("gcc, swim", "full") == ("gcc", "swim")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="quake3"):
            select_benchmarks("gcc, quake3", "full")
        with pytest.raises(ValueError):
            select_benchmarks(",", "full")

    def test_suite_selectors(self):
        from repro.workloads.profiles import FP_BENCHMARKS, INT_BENCHMARKS

        assert select_benchmarks("int", "full") == INT_BENCHMARKS
        assert select_benchmarks("fp", "full") == FP_BENCHMARKS


class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        key = cache.compilation_key("gcc", 1.0, 8)
        assert cache.get(key) is None
        cache.put(key, {"payload": 42})
        assert cache.get(key) == {"payload": 42}
        assert cache.hits == 1 and cache.misses == 1

    def test_corrupt_entry_evicted(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        key = cache.workload_key("gcc", 1.0, False, False, 8, "perceptron", 100)
        cache.put(key, [1, 2, 3])
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()

    def test_truncated_pickle_warns_and_is_counted(self, tmp_path, capsys):
        cache = ArtifactCache(root=tmp_path)
        key = cache.workload_key("gcc", 1.0, False, False, 8, "perceptron", 100)
        cache.put(key, list(range(1000)))
        path = cache.path_for(key)
        # A crashed writer's torso: valid pickle prefix, missing tail.
        path.write_bytes(path.read_bytes()[:20])
        assert cache.get(key) is None
        assert not path.exists()
        assert cache.corruptions == 1
        assert cache.stats()["corruptions"] == 1
        warning = capsys.readouterr().err
        assert "warning" in warning and path.name in warning
        # The slot heals: the next put/get round-trips cleanly.
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"
        assert cache.corruptions == 1

    def test_plain_miss_is_not_a_corruption(self, tmp_path, capsys):
        cache = ArtifactCache(root=tmp_path)
        assert cache.get(cache.compilation_key("gcc", 1.0, 8)) is None
        assert cache.corruptions == 0
        assert capsys.readouterr().err == ""

    def test_disabled_cache_is_inert(self, tmp_path):
        cache = ArtifactCache(root=tmp_path, enabled=False)
        key = cache.compilation_key("gcc", 1.0, 8)
        cache.put(key, "value")
        assert cache.get(key) is None
        assert list(tmp_path.iterdir()) == []

    def test_keys_embed_format_version(self):
        from repro.harness import CACHE_FORMAT_VERSION

        key = ArtifactCache.compilation_key("gcc", 1.0, 8)
        assert CACHE_FORMAT_VERSION in key

    def test_orphaned_tmp_files_swept_on_open(self, tmp_path):
        import os

        from repro.harness.artifacts import _ORPHAN_TMP_AGE_SECONDS

        stale = tmp_path / "dead-writer.pkl.tmp"
        stale.write_bytes(b"torso")
        old = stale.stat().st_mtime - _ORPHAN_TMP_AGE_SECONDS - 60
        os.utime(stale, (old, old))
        fresh = tmp_path / "live-writer.pkl.tmp"
        fresh.write_bytes(b"in progress")
        entry = tmp_path / "kept.pkl"
        entry.write_bytes(b"entry")

        cache = ArtifactCache(root=tmp_path)
        assert not stale.exists()  # the killed writer's orphan is gone
        assert fresh.exists()  # a concurrent writer's file is left alone
        assert entry.exists()
        assert cache.tmp_swept == 1
        assert cache.stats()["tmp_swept"] == 1

    def test_disabled_cache_does_not_sweep(self, tmp_path):
        import os

        from repro.harness.artifacts import _ORPHAN_TMP_AGE_SECONDS

        stale = tmp_path / "dead-writer.pkl.tmp"
        stale.write_bytes(b"torso")
        old = stale.stat().st_mtime - _ORPHAN_TMP_AGE_SECONDS - 60
        os.utime(stale, (old, old))
        cache = ArtifactCache(root=tmp_path, enabled=False)
        assert stale.exists()
        assert cache.tmp_swept == 0

    @staticmethod
    def _stale_layout(monkeypatch, cls, dropped):
        """Pickle ``cls`` without field ``dropped``: an older layout."""
        monkeypatch.setattr(cls, "__getstate__", lambda self: {
            name: value for name, value in self.__dict__.items()
            if name != dropped
        })

    def _assert_quarantined(self, cache, key, capsys):
        assert cache.corruptions == 1 and cache.quarantined == 1
        assert (cache.root / "quarantine" / cache.path_for(key).name).exists()
        assert "quarantining corrupt cache entry" in capsys.readouterr().err

    def test_wrong_shape_compilation_is_quarantined_and_rebuilt(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.core.pipeline import BraidCompilation

        def context(cache):
            return ExperimentContext(benchmarks=("gcc",), jobs=1, cache=cache)

        reference = context(ArtifactCache(enabled=False)).compilation("gcc")
        cache = ArtifactCache(root=tmp_path)
        session = context(cache)
        key = cache.compilation_key("gcc", session.scale, 8)
        with monkeypatch.context() as patch:
            self._stale_layout(patch, BraidCompilation, "compaction")
            cache.put(key, reference)

        rebuilt = session.compilation("gcc")
        self._assert_quarantined(cache, key, capsys)
        assert rebuilt.translated.render() == reference.translated.render()
        assert rebuilt.total_braids == reference.total_braids
        # The slot healed: it now holds an entry of the current layout.
        healed = ArtifactCache(root=tmp_path).get(key)
        assert healed.translated.render() == reference.translated.render()

    def test_wrong_shape_result_is_quarantined_and_recomputed(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.sim.config import ooo_config
        from repro.sim.results import SimResult

        def context(cache):
            return ExperimentContext(benchmarks=("gcc",), max_instructions=5_000,
                                     jobs=1, cache=cache, result_cache=True)

        config = ooo_config(8)
        reference = context(ArtifactCache(enabled=False)).run("gcc", config)
        cache = ArtifactCache(root=tmp_path)
        session = context(cache)
        key = cache.result_key("gcc", session.scale, False, False, 8,
                               session.predictor, session.max_instructions,
                               config, (session.fidelity, None))
        with monkeypatch.context() as patch:
            self._stale_layout(patch, SimResult, "fidelity")
            cache.put(key, reference)

        recomputed = session.run("gcc", config)
        self._assert_quarantined(cache, key, capsys)
        assert recomputed == reference
        assert ArtifactCache(root=tmp_path).get(key) == reference

    def test_context_reloads_workload_from_disk(self, tmp_path):
        warm = ExperimentContext(
            benchmarks=("gcc",), max_instructions=5_000, jobs=1,
            cache=ArtifactCache(root=tmp_path),
        )
        warm.workload("gcc")
        cold = ExperimentContext(
            benchmarks=("gcc",), max_instructions=5_000, jobs=1,
            cache=ArtifactCache(root=tmp_path),
        )
        reloaded = cold.workload("gcc")
        assert cold.cache.hits == 1
        assert len(reloaded.trace) == len(warm.workload("gcc").trace)


class TestCacheManagement:
    def _fill(self, cache, count):
        for index in range(count):
            cache.put(cache.compilation_key(f"bench{index}", 1.0, 8), index)

    def test_stats_report_entries_and_kinds(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        self._fill(cache, 3)
        stats = cache.stats()
        assert stats["entries"] == 3 and stats["bytes"] > 0
        assert stats["by_kind"]["compilation"]["entries"] == 3

    def test_clear_removes_everything(self, tmp_path):
        cache = ArtifactCache(root=tmp_path)
        self._fill(cache, 3)
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0

    def test_enforce_limit_evicts_oldest_first(self, tmp_path):
        import os

        cache = ArtifactCache(root=tmp_path)
        keys = [cache.compilation_key(f"bench{i}", 1.0, 8) for i in range(3)]
        for stamp, key in enumerate(keys):
            cache.put(key, "x" * 256)
            os.utime(cache.path_for(key), (stamp, stamp))
        entry_size = cache.path_for(keys[0]).stat().st_size
        cache.enforce_limit(entry_size * 2)
        assert cache.get(keys[0]) is None  # oldest mtime evicted
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None

    def test_get_refreshes_mtime_for_lru(self, tmp_path):
        import os

        cache = ArtifactCache(root=tmp_path)
        key = cache.compilation_key("gcc", 1.0, 8)
        cache.put(key, "payload")
        os.utime(cache.path_for(key), (1, 1))
        cache.get(key)
        assert cache.path_for(key).stat().st_mtime > 1

    def test_limit_from_env(self, monkeypatch):
        from repro.harness.artifacts import cache_limit_from_env

        monkeypatch.delenv("REPRO_CACHE_LIMIT_MB", raising=False)
        assert cache_limit_from_env() is None
        monkeypatch.setenv("REPRO_CACHE_LIMIT_MB", "100")
        assert cache_limit_from_env() == 100 * 1024 * 1024
        monkeypatch.setenv("REPRO_CACHE_LIMIT_MB", "lots")
        with pytest.raises(ValueError, match="REPRO_CACHE_LIMIT_MB"):
            cache_limit_from_env()


class TestResultCache:
    def test_opt_in_round_trip(self, tmp_path):
        from repro.sim import ooo_config

        def context():
            return ExperimentContext(
                benchmarks=("gcc",), max_instructions=5_000, jobs=1,
                cache=ArtifactCache(root=tmp_path), result_cache=True,
            )

        first = context().run("gcc", ooo_config(8))
        cold = context()
        again = cold.run("gcc", ooo_config(8))
        assert again.cycles == first.cycles
        assert any(
            path.name.startswith("result-") for path in tmp_path.iterdir()
        )

    def test_off_by_default(self, tmp_path):
        from repro.sim import ooo_config

        ctx = ExperimentContext(
            benchmarks=("gcc",), max_instructions=5_000, jobs=1,
            cache=ArtifactCache(root=tmp_path),
        )
        assert ctx.result_cache is False
        ctx.run("gcc", ooo_config(8))
        assert not any(
            path.name.startswith("result-") for path in tmp_path.iterdir()
        )

    def test_key_distinguishes_sampling(self):
        from repro.sim import ooo_config
        from repro.sim.sampling import SamplingConfig

        def key(tier_token):
            return ArtifactCache.result_key(
                "gcc", 1.0, False, False, 8, "perceptron", 100,
                ooo_config(8), tier_token,
            )

        exact = key(("exact", None))
        sampled = key(("sampled", SamplingConfig().cache_token()))
        restrided = key(("sampled", SamplingConfig(stride=4).cache_token()))
        assert len({exact, sampled, restrided}) == 3


class TestEffectiveJobs:
    def test_clamps_to_pending(self):
        from repro.harness.parallel import effective_jobs

        assert effective_jobs(8, 0) == 1
        assert effective_jobs(1, 100) == 1

    def test_single_cpu_serializes(self, monkeypatch):
        import os

        from repro.harness import parallel

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert parallel.effective_jobs(4, 10) == 1

    def test_multi_cpu_keeps_pool(self, monkeypatch):
        import os

        from repro.harness import parallel

        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert parallel.effective_jobs(4, 10) == 4
        assert parallel.effective_jobs(8, 3) == 3

    def test_clamps_to_cpu_count(self, monkeypatch):
        import os

        from repro.harness import parallel

        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert parallel.effective_jobs(16, 100) == 4


class TestNonForkFallback:
    def test_spawn_only_platform_runs_serially(self, monkeypatch, capsys):
        """Without the fork start method the sweep degrades to serial —
        loudly, and with results identical to the pool path."""
        import multiprocessing

        from repro.harness import SweepPoint, parallel
        from repro.sim import inorder_config, ooo_config

        real_get_context = multiprocessing.get_context

        def forkless_get_context(method=None):
            if method == "fork":
                raise ValueError("cannot find context for 'fork'")
            return real_get_context(method)

        monkeypatch.setattr(
            multiprocessing, "get_context", forkless_get_context
        )
        monkeypatch.setattr(parallel, "_NOTED", set())
        context = ExperimentContext(
            benchmarks=("gcc",), max_instructions=20_000, jobs=2,
            cache=ArtifactCache(enabled=False),
        )
        points = [
            SweepPoint("gcc", ooo_config(8)),
            SweepPoint("gcc", inorder_config(8)),
        ]
        results = [
            group[0] for group in parallel.run_point_groups_parallel(
                context, [(point,) for point in points], jobs=2
            )
        ]
        note = capsys.readouterr().err
        assert "fork start method unavailable" in note
        assert [r.machine for r in results] == [
            ooo_config(8).name, inorder_config(8).name,
        ]
        # Same results the serial in-process path produces (memoized now).
        assert results[0].cycles == context.run("gcc", ooo_config(8)).cycles

    def test_note_logged_once(self, monkeypatch, capsys):
        from repro.harness import parallel

        monkeypatch.setattr(parallel, "_NOTED", set())
        parallel._note_once("same message")
        parallel._note_once("same message")
        assert capsys.readouterr().err.count("same message") == 1


class TestRunMany:
    def test_run_many_memoizes_and_dedups(self, quick_context):
        from repro.harness import SweepPoint
        from repro.sim import ooo_config

        point = SweepPoint("gcc", ooo_config(8))
        results = quick_context.run_many([point, point])
        assert results[point] is quick_context.run("gcc", ooo_config(8))


class TestSweepPrepare:
    """A forked sweep gets phase one the way the service does: the
    pre-pass fills the artifact cache, workers load what they run, and
    the sweep's own context holds no workload."""

    POINTS = [
        SweepPoint(bench, config, braided=braided)
        for bench in ("gcc", "mcf")
        for config, braided in (
            (ooo_config(8), False), (inorder_config(8), False),
            (braid_config(8), True),
        )
    ]

    @pytest.fixture
    def cold(self, tmp_path, monkeypatch):
        """A fresh directory for the caches, with the run log in it."""
        monkeypatch.setenv("REPRO_RUNLOG", str(tmp_path / "runlog.jsonl"))
        return tmp_path

    @staticmethod
    def sweep(cache, jobs, benchmarks=("gcc", "mcf"), points=POINTS):
        context = ExperimentContext(
            benchmarks=benchmarks, scale=0.05, max_instructions=3000,
            jobs=jobs, cache=cache,
        )
        results = context.run_many(points)
        return context, [asdict(results[point]) for point in points]

    @staticmethod
    def prepare_events(root):
        return [event for event in RunLog(root / "runlog.jsonl").read()
                if event["event"] == "prepare"]

    @needs_two_workers
    def test_forked_sweep_loads_phase_one_from_the_cache(self, cold,
                                                         monkeypatch):
        _, serial = self.sweep(ArtifactCache(enabled=False), jobs=1)
        context, forked = self.sweep(ArtifactCache(root=cold / "cache"), 2)
        assert forked == serial
        assert context._workloads == {}
        assert len(list((cold / "cache").glob("workload-*"))) == 4
        (event,) = self.prepare_events(cold)
        assert event["needed"] == event["computed"] == 4

        _, warm = self.sweep(ArtifactCache(root=cold / "cache"), 2)
        assert warm == serial
        _, second = self.prepare_events(cold)
        assert (second["cached"], second["computed"]) == (4, 0)

        # no cache to carry phase one: the worker that runs a workload's
        # group builds it, once, and the parent builds none
        from repro.harness import context as context_module

        builds = cold / "builds"
        real = context_module.prepare_workload

        def prepare_workload(*args, **kwargs):
            with builds.open("a") as log:
                log.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(context_module, "prepare_workload",
                            prepare_workload)
        context, uncached = self.sweep(ArtifactCache(enabled=False), 2)
        assert uncached == serial
        assert context._workloads == {}
        pids = builds.read_text().split()
        assert len(pids) == 4 and str(os.getpid()) not in pids
        assert len(self.prepare_events(cold)) == 2

    @needs_two_workers
    def test_pre_pass_prints_no_clamp_note(self, cold, monkeypatch, capfd):
        """One benchmark is one pre-pass task, but the sweep and the
        service fleets still get the two workers asked for."""
        from repro.harness import parallel
        from repro.service import JobStore
        from repro.service import jobs as jobs_module
        from repro.service.supervisor import serve

        monkeypatch.setattr(parallel, "_NOTED", set())
        monkeypatch.setattr(jobs_module, "_EXEC_STATE", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cold / "service-cache"))
        self.sweep(ArtifactCache(root=cold / "cache"), 2, ("gcc",),
                   self.POINTS[:3])
        store = JobStore(cold / "store")
        submit(store, "simulate", {"benchmark": "gcc", "core": "braid"})
        serve(store, batch_config(jobs=2))
        store.close()
        # more workers asked for than there are tasks or CPUs
        fill_workload_cache(ArtifactCache(root=cold / "direct"), [
            WorkloadNeed(0.05, 3000, bench, braided=False)
            for bench in ("gcc", "mcf")
        ], jobs=8)
        assert "clamping" not in capfd.readouterr().err
        assert [event["computed"] for event in self.prepare_events(cold)] == [
            2, 1, 2,
        ]


class TestOneBatch:
    """Every figure cell goes through ``run_many``, and a harness session
    runs the points of all its figures as one batch."""

    @staticmethod
    def small_context(**kwargs):
        return ExperimentContext(
            benchmarks=("gcc",), scale=0.05, max_instructions=3000, jobs=1,
            **kwargs,
        )

    def test_sampling_validation_reuses_exact_points(self):
        """SV's exact points on an exact context are F13's 8-wide points."""
        ctx = self.small_context(cache=ArtifactCache(enabled=False))
        fig13_paradigms(ctx)
        sampling_validation(ctx)
        # F13 asks for 12 columns and each one's baseline: 12 coalesce
        assert ctx.telemetry.counters == {"run_many.deduped": 12,
                                          "run_many.memoized": 4}

    def test_sampling_validation_uses_the_result_cache(self, tmp_path,
                                                       monkeypatch):
        runlog = RunLog(tmp_path / "runlog.jsonl")
        monkeypatch.setenv("REPRO_RUNLOG", str(runlog.path))

        def render():
            return sampling_validation(self.small_context(
                cache=ArtifactCache(root=tmp_path / "cache"),
                sampling=SamplingConfig(stride=4), result_cache=True,
            )).render()

        first = render()
        assert list((tmp_path / "cache").glob("result-*"))
        logged = len(runlog.read())
        assert render() == first
        cells = [event for event in runlog.read()[logged:]
                 if event["event"] == "cell"]
        assert cells and all(event["result_cache_hit"] for event in cells)

    @needs_two_workers
    def test_session_runs_one_fleet(self, tmp_path, monkeypatch, capsys):
        from repro.harness import context as context_module
        from repro.harness.__main__ import main

        calls = {"fleet": [], "pre-pass": 0}
        fleet = context_module.run_point_groups_parallel
        fill = context_module.fill_workload_cache

        def run_point_groups_parallel(context, groups, jobs):
            calls["fleet"].append([point for group in groups
                                   for point in group])
            return fleet(context, groups, jobs)

        def fill_workload_cache(*args):
            calls["pre-pass"] += 1
            return fill(*args)

        monkeypatch.setattr(context_module, "run_point_groups_parallel",
                            run_point_groups_parallel)
        monkeypatch.setattr(context_module, "fill_workload_cache",
                            fill_workload_cache)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

        def session(jobs):
            assert main(["F9", "SV", "CS", "--benchmarks", "gcc,mcf",
                         "--scale", "0.05", "--jobs", str(jobs)]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not (line.startswith("   [") and line.endswith("s]"))]

        forked = session(2)
        (points,) = calls["fleet"]
        assert calls["pre-pass"] == 1
        # F9's, SV's and CS's points all ran on the one fleet
        assert {point.fidelity for point in points} == {None, "sampled"}
        assert any(point.cpi for point in points)
        assert session(1) == forked
        assert len(calls["fleet"]) == 1


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        expected = {
            "F1", "VC", "T1", "T2", "T3", "F5", "F6", "F7", "F8", "F9",
            "F10", "F11", "F12", "F13", "F14", "D1", "A1", "A2", "SV",
            "CS",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_tab1_shape(self, quick_context):
        result = tab1_braids_per_block(quick_context)
        assert set(result.rows) == set(quick_context.benchmarks)
        assert result.columns == ["braids/bb", "excl-single"]
        for row in result.rows.values():
            assert row["braids/bb"] >= row["excl-single"]

    def test_fig11_normalized_to_ooo(self, quick_context):
        result = fig11_braid_window(quick_context, windows=(1, 2))
        for row in result.rows.values():
            assert row["1"] <= row["2"] * 1.05  # monotone (small tolerance)

    def test_fig14_default_is_unity(self, quick_context):
        result = fig14_equal_fus(quick_context)
        for row in result.rows.values():
            assert row["8x2"] == 1.0


class TestReporting:
    def make_result(self):
        result = ExperimentResult(
            experiment_id="X",
            title="test",
            paper_expectation="n/a",
            columns=["a", "b"],
            rows={"bench1": {"a": 2.0, "b": 4.0}, "bench2": {"a": 1.0, "b": 3.0}},
        )
        return result

    def test_column_average(self):
        result = self.make_result()
        assert result.column_average("a") == pytest.approx(1.5)

    def test_column_geomean(self):
        result = self.make_result()
        assert result.column_geomean("a") == pytest.approx(2 ** 0.5)

    def test_finalize_averages(self):
        result = self.make_result()
        result.finalize_averages()
        assert result.averages["b"] == pytest.approx(3.5)

    def test_render_contains_everything(self):
        result = self.make_result()
        result.finalize_averages()
        result.notes.append("shape only")
        text = result.render()
        assert "== X: test" in text
        assert "bench1" in text and "average" in text
        assert "note: shape only" in text

    def test_render_handles_missing_cells(self):
        result = self.make_result()
        del result.rows["bench2"]["b"]
        assert "bench2" in result.render()
