"""The speed gate in ``bench_speed.py``, over canned perfbench results.

No test here starts perfbench: the guards are pure functions of a parsed
result, and ``--update`` is driven with the runner replaced.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_speed",
                                              ROOT / "bench_speed.py")
bench_speed = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_speed)

KINDS = ("ooo", "inorder", "depsteer", "braid", "blockooo")
RATE = 100_000.0
RECORDED = {kind: {"insts_per_s": RATE} for kind in KINDS}


def result(correct=True, rates=None, costs=None):
    """A perfbench last line: every kind at ``RATE`` and 20% observer cost
    unless ``rates``/``costs`` say otherwise."""
    rates = {**{kind: RATE for kind in KINDS}, **(rates or {})}
    costs = {**{kind: 20.0 for kind in KINDS}, **(costs or {})}
    metrics = {"obs.observer_cost_pct": {"value": 20.0, "unit": "%"}}
    for kind, rate in rates.items():
        if rate is not None:
            metrics[f"sim.{kind}.insts_per_s"] = {"value": rate,
                                                  "unit": "insts/s"}
            metrics[f"sim.{kind}.ns_per_cycle"] = {"value": 9000.0,
                                                   "unit": "ns"}
        metrics[f"obs.{kind}.observer_cost_pct"] = {"value": costs[kind],
                                                    "unit": "%"}
    return {"correct": correct, "attempted": 203,
            "failed": 0 if correct else 1, "metrics": metrics}


def report(run_id="20260101T000000-abcdef12"):
    return {"stamp": {"run_id": run_id, "commit": "c0ffee",
                      "source_sha256": "5" * 64},
            "host_speed": 0.712345, "units": 1}


def gate(last, code=0, recorded=RECORDED):
    return bench_speed.gate(code, last, recorded, KINDS)


def test_check_passes():
    assert gate(result()) == []


def test_throughput_floor_fails_alone():
    problems = gate(result(rates={"braid": 0.79 * RATE}))
    assert len(problems) == 1
    assert problems[0].startswith("braid:") and "recorded" in problems[0]
    assert gate(result(rates={"braid": 0.81 * RATE})) == []


def test_seed_floor_fails_alone():
    seed = bench_speed.SEED_BASELINE["ooo"]
    low = 0.96 * seed
    recorded = {**RECORDED, "ooo": {"insts_per_s": low}}
    problems = gate(result(rates={"ooo": low}), recorded=recorded)
    assert len(problems) == 1
    assert problems[0].startswith("ooo:") and "seed" in problems[0]


def test_observer_budget_fails_alone():
    problems = gate(result(costs={"depsteer": 70.5}))
    assert len(problems) == 1
    assert problems[0].startswith("depsteer:") and "observer" in problems[0]
    assert gate(result(costs={"depsteer": 70.0})) == []


@pytest.mark.parametrize("absent", (None, 0.0), ids=("absent", "zero"))
def test_missing_kind_fails(absent):
    problems = gate(result(rates={"blockooo": absent}))
    assert problems == ["blockooo: missing from the perfbench result"]


def test_kind_without_recorded_floor_fails():
    recorded = {kind: entry for kind, entry in RECORDED.items()
                if kind != "inorder"}
    assert gate(result(), recorded=recorded) == [
        "inorder: no recorded throughput"
    ]


def test_incorrect_result_fails():
    problems = gate(result(correct=False), code=1)
    assert len(problems) == 1 and "correct: False" in problems[0]


@pytest.mark.parametrize("last", (None, result()), ids=("no-line", "line"))
def test_nonzero_exit_fails(last):
    problems = gate(last, code=2)
    assert len(problems) == 1 and "exited 2" in problems[0]


def test_no_recorded_floors_skips_only_that_guard():
    assert bench_speed.gate(0, result(), None, KINDS) == []
    problems = bench_speed.gate(0, result(costs={"ooo": 90.0}), None, KINDS)
    assert len(problems) == 1 and "observer" in problems[0]


def test_update_rewrites_only_the_kernel_sections(tmp_path, monkeypatch):
    old = {
        "seed_baseline": dict(bench_speed.SEED_BASELINE),
        "throughput": {"stamp": report("old")["stamp"],
                       "cores": {kind: {"insts_per_s": 1} for kind in KINDS}},
        "obs_overhead": {"cores": {}},
        "f9_quick_sweep": {"sweep_cold_s": 3.5, "sweep_warm_s": 1.25},
        "fidelity_tiers": {"scale": 64.0, "exact_seconds": 242.072,
                           "points": {"mcf/ooo": {"exact_ipc": 1.2345,
                                                  "interval_error_pct": 0.1}}},
    }
    output = tmp_path / "BENCH_SPEED.json"
    output.write_text(json.dumps(old, indent=2) + "\n")
    calls = []

    def fake_run(workload, seconds, trace):
        calls.append((workload, seconds, trace))
        return 0, result(), report(), ""

    monkeypatch.setattr(bench_speed, "run_perfbench", fake_run)
    code = bench_speed.main(["--check", "--update",
                             "--output", str(output)])
    assert code == 0
    assert calls == [("long_trace", bench_speed.CHECK_SECONDS, 1)]
    text = output.read_text()
    new = json.loads(text)
    assert set(new) == set(old)
    for key in ("seed_baseline", "f9_quick_sweep"):
        assert new[key] == old[key]
    # the last section, byte for byte as the file held it
    tail = json.dumps(old, indent=2).split('"fidelity_tiers"')[1]
    assert text.split('"fidelity_tiers"')[1] == tail + "\n"
    assert new["throughput"]["cores"]["ooo"] == {"insts_per_s": 100000,
                                                 "ns_per_cycle": 9000.0}
    assert new["throughput"]["stamp"] == {
        "run_id": "20260101T000000-abcdef12", "commit": "c0ffee",
        "source_sha256": "5" * 64, "host_speed": 0.712, "rounds": 1,
    }
    assert new["obs_overhead"]["cores"]["blockooo"] == {
        "observer_cost_pct": 20.0, "hooks_off_vs_seed": None,
    }

    # the check against the floors just written passes
    assert bench_speed.main(["--check", "--output", str(output)]) == 0


def test_check_exit_codes(tmp_path, monkeypatch, capsys):
    output = tmp_path / "BENCH_SPEED.json"
    recorded = {"throughput": {"cores": RECORDED}}
    output.write_text(json.dumps(recorded))
    runs = iter([(0, result(), report(), ""),
                 (0, result(rates={"ooo": 0.5 * RATE}), report(), ""),
                 (1, None, None, "Traceback: boom\n")])
    calls = []

    def fake_run(*args):
        calls.append(args)
        return next(runs)

    monkeypatch.setattr(bench_speed, "run_perfbench", fake_run)
    argv = ["--check", "--output", str(output)]
    assert bench_speed.main(argv) == 0
    assert "OK:" in capsys.readouterr().out
    assert bench_speed.main(argv) == 1
    assert "ooo:" in capsys.readouterr().err
    assert bench_speed.main(argv) == 1
    assert "boom" in capsys.readouterr().err
    assert json.loads(output.read_text()) == recorded
    # a full-length check: perfbench runs long enough for several rounds
    assert set(calls) == {("long_trace", bench_speed.CHECK_SECONDS, 1)}
