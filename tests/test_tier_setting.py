"""The one tier setting: :func:`repro.sim.run.resolve_tier` and every
run path that honours it.

The rule is a table (explicit fidelity wins; otherwise the tier whose
tuning was given; both tunings is an error; neither is exact).  The
regression tests pin that the context resolves it once and that the
paths that used to infer the tier on their own — the CS experiment and
the ``trace`` command — now run the tier the context was built with,
and that no environment variable can change it.
"""

from __future__ import annotations

import pytest

import repro.harness.context as context_module
import repro.sim.run as run_module
from repro.harness.__main__ import main
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.harness.experiments import cpi_stack_experiment
from repro.sim.config import ooo_config
from repro.sim.interval import IntervalConfig
from repro.sim.run import resolve_tier
from repro.sim.sampling import SamplingConfig

SAMPLING = SamplingConfig(stride=4)
INTERVAL = IntervalConfig(windows=4, window=200)

#: at scale 2 gcc's trace is long enough for the interval planner to
#: engage (at scale 1 it falls back to an exact run)
SCALE = 2


@pytest.mark.parametrize(
    "fidelity, sampling, interval, expected",
    [
        # an explicit fidelity wins; other tiers' tuning is ignored
        ("exact", SAMPLING, INTERVAL, ("exact", None)),
        ("sampled", SAMPLING, INTERVAL, ("sampled", SAMPLING)),
        ("sampled", None, INTERVAL, ("sampled", SamplingConfig())),
        ("interval", SAMPLING, INTERVAL, ("interval", INTERVAL)),
        ("interval", SAMPLING, None, ("interval", IntervalConfig())),
        # no fidelity: the tier whose tuning was given
        (None, SAMPLING, None, ("sampled", SAMPLING)),
        (None, None, INTERVAL, ("interval", INTERVAL)),
        # neither: exact
        (None, None, None, ("exact", None)),
    ],
)
def test_resolve_tier_table(fidelity, sampling, interval, expected):
    assert resolve_tier(fidelity, sampling, interval) == expected


def test_both_tunings_without_fidelity_raise():
    with pytest.raises(ValueError, match="name the tier"):
        resolve_tier(None, SAMPLING, INTERVAL)


def _context(**tier) -> ExperimentContext:
    return ExperimentContext(
        benchmarks=("gcc",), scale=SCALE, jobs=1,
        cache=ArtifactCache(enabled=False), **tier,
    )


@pytest.fixture
def ran_fidelities(monkeypatch):
    """The ``fidelity`` label of every result :func:`simulate` returns,
    called as ``repro.sim.run.simulate`` or through the name the
    experiment context runs it by."""
    seen = []
    real = run_module.simulate

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        seen.append(result.fidelity)
        return result

    monkeypatch.setattr(run_module, "simulate", spy)
    monkeypatch.setattr(context_module, "simulate", spy)
    return seen


class TestContext:
    @pytest.mark.parametrize(
        "tier, expected",
        [
            (dict(fidelity="interval"), ("interval", None, IntervalConfig())),
            (dict(fidelity="exact", sampling=SAMPLING), ("exact", None, None)),
            (dict(interval=INTERVAL), ("interval", None, INTERVAL)),
        ],
    )
    def test_resolves_once(self, tier, expected):
        ctx = _context(**tier)
        assert (ctx.fidelity, ctx.sampling, ctx.interval) == expected

    def test_both_tunings_rejected(self):
        with pytest.raises(ValueError):
            _context(sampling=SAMPLING, interval=INTERVAL)

    def test_environment_cannot_change_the_tier(self, monkeypatch):
        # the removed environment twins of the tier and result-cache flags
        for suffix, value in (
            ("SAMPLE", "stride=4"), ("FIDELITY", "interval"),
            ("INTERVAL", "windows=4"), ("RESULT_CACHE", "1"),
        ):
            monkeypatch.setenv("REPRO_" + suffix, value)
        ctx = _context()
        assert (ctx.fidelity, ctx.sampling, ctx.interval) == (
            "exact", None, None,
        )
        assert ctx.result_cache is False
        assert ctx.run("gcc", ooo_config(8)).fidelity == "exact"


def test_cpi_stacks_run_the_context_tier(ran_fidelities):
    cpi_stack_experiment(_context(fidelity="interval"))
    assert ran_fidelities and set(ran_fidelities) == {"interval"}


def test_trace_command_honours_fidelity(ran_fidelities, tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main([
        "trace", "--bench", "gcc", "--core", "ooo", "--scale", str(SCALE),
        "--fidelity", "interval", "--no-cache", "--out", str(out),
    ]) == 0
    assert ran_fidelities == ["interval"]
    assert out.exists()


def test_cli_rejects_both_tunings_without_fidelity():
    with pytest.raises(SystemExit):
        main(["T1", "--benchmarks", "gcc", "--sample", "--interval"])
