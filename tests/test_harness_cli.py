"""Tests for the command-line experiment runner."""

from types import SimpleNamespace

import pytest

from repro.harness.__main__ import main
from repro.workloads.profiles import FP_BENCHMARKS, INT_BENCHMARKS


class TestCli:
    def test_runs_one_experiment(self, capsys):
        assert main(["T1", "--benchmarks", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "T1: braids per basic block" in out
        assert "gcc" in out

    def test_multiple_experiments(self, capsys):
        assert main(["T2", "T3", "--benchmarks", "gcc"]) == 0
        out = capsys.readouterr().out
        assert "T2" in out and "T3" in out

    def test_quick_selector(self, capsys):
        assert main(["T1", "--benchmarks", "quick"]) == 0
        out = capsys.readouterr().out
        assert "equake" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["F99", "--benchmarks", "gcc"])

    def test_scale_flag(self, capsys):
        assert main(["T1", "--benchmarks", "gcc", "--scale", "0.5"]) == 0

    def test_sample_spec_rejected_when_malformed(self):
        with pytest.raises(SystemExit):
            main(["T1", "--benchmarks", "gcc", "--sample", "stride=fast"])
        with pytest.raises(SystemExit):
            main(["T1", "--benchmarks", "gcc", "--sample", "cadence=5"])

    def test_sample_flag_threads_through(self, capsys):
        # T1 is a static-analysis table, so this exercises only the
        # plumbing: --sample parses and the context accepts it.
        assert main(["T1", "--benchmarks", "gcc", "--sample"]) == 0
        assert main(
            ["T1", "--benchmarks", "gcc", "--sample", "stride=4,seed=2"]
        ) == 0


SUITES = [("int", INT_BENCHMARKS), ("fp", FP_BENCHMARKS)]


def _passing_report():
    return SimpleNamespace(render=lambda: "report", passed=True)


class TestBenchmarkSelection:
    """Every command parses ``--benchmarks`` with one grammar."""

    @pytest.mark.parametrize("selector, suite", SUITES)
    def test_experiments_take_suite_selectors(self, capsys, selector,
                                              suite):
        assert main(["T1", "--benchmarks", selector, "--scale", "0.1",
                     "--no-cache"]) == 0
        rows = {line.split()[0]
                for line in capsys.readouterr().out.splitlines()
                if line.strip()}
        assert rows >= set(suite)
        assert not rows & (set(INT_BENCHMARKS + FP_BENCHMARKS) - set(suite))

    @pytest.mark.parametrize("selector, suite", SUITES)
    def test_validate_takes_suite_selectors(self, monkeypatch, selector,
                                            suite):
        seen = []

        def validation(context, benchmarks, **kwargs):
            seen.append(tuple(benchmarks))
            return _passing_report()

        monkeypatch.setattr("repro.validate.run_validation", validation)
        assert main(["validate", "--benchmarks", selector, "--no-cache",
                     "--fuzz", "0"]) == 0
        assert seen == [suite]

    @pytest.mark.parametrize("selector, suite", SUITES)
    def test_faults_take_suite_selectors(self, monkeypatch, selector,
                                         suite):
        seen = []

        def campaign(context, spec, **kwargs):
            seen.append(spec.benchmarks)
            return _passing_report()

        monkeypatch.setattr("repro.faults.run_campaign", campaign)
        assert main(["faults", "--benchmarks", selector, "--no-cache"]) == 0
        assert seen == [suite]

    @pytest.mark.parametrize("command", ["T1", "validate", "faults"])
    def test_unknown_benchmark_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--benchmarks", "gcc,nosuch", "--no-cache"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "nosuch" in err


class TestCacheCommands:
    def test_cache_info_reports(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache-info"]) == 0
        out = capsys.readouterr().out
        assert "cache root:" in out and str(tmp_path) in out

    def test_cache_clear_empties_root(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.harness.artifacts import ArtifactCache

        cache = ArtifactCache(root=tmp_path)
        cache.put(cache.compilation_key("gcc", 1.0, 8), "payload")
        assert main(["cache-clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.pkl"))

    def test_cache_commands_cannot_mix_with_experiments(self):
        with pytest.raises(SystemExit):
            main(["cache-info", "T1"])

    def test_cache_commands_cover_the_run_log(self, capsys, tmp_path,
                                              monkeypatch):
        # The run log RunLog.from_env keeps beside the cache is no cache
        # entry, but cache-info reports it and cache-clear removes it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RUNLOG", raising=False)
        from repro.harness.artifacts import ArtifactCache
        from repro.obs.runlog import RunLog

        cache = ArtifactCache(root=tmp_path)
        runlog = RunLog.from_env(cache)
        for cell in range(5000):
            runlog.log(event="cell", cell=cell)
        size = runlog.path.stat().st_size
        assert size > 100_000
        assert main(["cache-info"]) == 0
        out = capsys.readouterr().out
        assert f"run log:     {size / 1e6:.1f} MB" in out
        assert str(runlog.path) in out
        assert main(["cache-clear"]) == 0
        assert "removed the run log" in capsys.readouterr().out
        assert not runlog.path.exists()

    def test_cache_commands_cover_the_rotated_run_log(self, capsys, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RUNLOG", raising=False)
        from repro.harness.artifacts import ArtifactCache
        from repro.obs import runlog as runlog_module

        monkeypatch.setattr(runlog_module, "RUNLOG_MAX_BYTES", 20_000)
        runlog = runlog_module.RunLog.from_env(ArtifactCache(root=tmp_path))
        for cell in range(500):
            runlog.log(event="cell", cell=cell)
        previous = runlog_module.rotated_path(runlog.path)
        assert previous.exists()
        assert main(["cache-info"]) == 0
        out = capsys.readouterr().out
        assert str(runlog.path) in out and str(previous) in out
        assert main(["cache-clear"]) == 0
        assert capsys.readouterr().out.count("removed the run log") == 2
        assert not runlog.path.exists() and not previous.exists()


COMMANDS = ("experiments", "validate", "faults", "trace", "cache-info",
            "cache-clear", "submit", "serve", "status", "events", "metrics")


class TestGrammar:
    """One parser: each command takes only the flags its handler reads."""

    @pytest.mark.parametrize("argv", [
        ["T1", "--runs", "8"],
        ["faults", "--sample"],
        ["validate", "--jobs", "2"],
        ["trace", "--profile"],
        ["cache-info", "--jobs", "4"],
        ["status", "--benchmarks", "gcc"],
        ["T1", "--journal", "x.jsonl"],
        ["faults", "--result-cache"],
        ["trace", "--benchmarks", "gcc"],
        ["cache-clear", "--no-cache"],
        ["submit", "simulate", "--scale", "0.5"],
    ], ids=" ".join)
    def test_another_commands_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_command_has_help(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: python -m repro.harness {command}" in (
            capsys.readouterr().out
        )

    def test_top_level_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command in COMMANDS:
            assert f"    {command} " in out, command

    def test_experiment_ids_are_the_default_command(self, capsys):
        assert main(["experiments", "T1", "--benchmarks", "gcc"]) == 0
        named = capsys.readouterr().out
        assert main(["T1", "--benchmarks", "gcc"]) == 0
        bare = capsys.readouterr().out
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("   [")]
        assert strip(named) == strip(bare) and "T1:" in bare


class TestValidateCommand:
    def test_validate_passes_on_clean_cores(self, capsys):
        code = main([
            "validate", "--benchmarks", "gcc,mcf", "--no-cache",
            "--fuzz", "10",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "VALIDATION PASSED" in out
        # 2 benchmarks x 5 registered cores
        assert "10/10 lockstep runs clean" in out
        assert "translator fuzzing: PASS" in out

    def test_validate_core_selection(self, capsys):
        code = main([
            "validate", "--benchmarks", "gcc", "--cores", "ooo,braid",
            "--no-cache", "--fuzz", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 lockstep runs clean" in out
        assert "inorder" not in out

    def test_validate_sampled_and_invariants(self, capsys):
        code = main([
            "validate", "--benchmarks", "gcc", "--cores", "ooo",
            "--sample", "interval=200,stride=4,warmup=64",
            "--invariants", "--no-cache", "--fuzz", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact" in out and "sampled" in out
        assert "cycles checked" in out

    def test_validate_interval_tier(self, capsys):
        code = main([
            "validate", "--benchmarks", "gcc", "--cores", "ooo",
            "--interval", "windows=4,window=200,warmup=64",
            "--no-cache", "--fuzz", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "exact" in out and "interval" in out
        assert "skipped" in out  # the calibration windows left gaps
        assert "2/2 lockstep runs clean" in out

    def test_validate_rejects_unknown_core(self):
        with pytest.raises(SystemExit):
            main(["validate", "--cores", "vliw", "--no-cache", "--fuzz", "0"])

    def test_validate_cannot_mix_with_experiments(self):
        with pytest.raises(SystemExit):
            main(["validate", "T1"])


class TestServiceCommands:
    """submit/serve/status route through the harness entry point."""

    def _submit(self, store, extra=()):
        return main([
            "submit", "simulate", "benchmark=gcc", "core=braid",
            "scale=0.05", "max_instructions=3000",
            "--store", str(store), *extra,
        ])

    def test_submit_serve_status_round_trip(self, capsys, tmp_path):
        store = tmp_path / "svc"
        assert self._submit(store) == 0
        out = capsys.readouterr().out
        assert out.startswith("queued as j000001-")
        job_id = out.split()[-1]

        # An identical request from another client dedups.
        assert self._submit(store, ("--client", "other")) == 0
        assert "coalesced onto " + job_id in capsys.readouterr().out

        assert main([
            "serve", "--store", str(store), "--drain-when-idle",
            "--timeout", "60",
        ]) == 0
        assert "1 done, 0 failed, 1 coalesced" in capsys.readouterr().out

        assert main(["status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert job_id in out and "done" in out

        assert main(["status", "--store", str(store), "--job", job_id]) == 0
        out = capsys.readouterr().out
        assert '"status": "done"' in out and '"cycles"' in out

    def test_submit_rejects_bad_params(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["submit", "simulate", "benchmark=gcc",
                  "core=not-a-core", "--store", str(tmp_path / "s")])
        with pytest.raises(SystemExit):
            main(["submit", "simulate", "no-equals-sign",
                  "--store", str(tmp_path / "s")])

    def test_submit_enforces_quota(self, capsys, tmp_path):
        store = tmp_path / "svc"
        assert self._submit(store, ("--quota", "1")) == 0
        capsys.readouterr()
        code = main([
            "submit", "simulate", "benchmark=mcf", "core=braid",
            "scale=0.05", "max_instructions=3000",
            "--store", str(store), "--quota", "1",
        ])
        assert code == 1
        assert "quota" in capsys.readouterr().err
