"""Runs and phase one pause the cyclic collector, so both must stay acyclic.

Every tier runs inside :func:`repro.sim.gcpause.collector_paused`, and so
do phase one (``prepare_workload``, ``PreparedWorkload.decode`` and
``PreparedWorkload.replay``) and artifact-cache loads, so memory they
allocate is freed by reference counting alone.  That is safe only while
each leaves no reference cycles behind.  Here every registered core runs
every tier (plus a lockstep-checked and a fault-injected run) with the
collector off, at two trace lengths, and ``gc.collect()`` afterwards must
find nothing at either: no count that could grow with the number of
simulated instructions.  Phase one, braid compilation and an artifact
put/get round trip must likewise find nothing, on the quick benchmarks
in original and braided form.

A run that raises part-way (a hang, a divergence) is not covered: its
in-flight producers still list their waiting consumers, which point
back through their dependences.  Those few hundred objects are freed by
the first collection after the scope re-enables the collector.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import replace

import pytest

from repro.core import braidify
from repro.faults.inject import run_injection
from repro.faults.model import FaultOutcome
from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs import Observer
from repro.sim.core import SimulationError
from repro.sim.interval import IntervalConfig
from repro.sim.registry import core_registry
from repro.sim.run import collector_paused, simulate
from repro.sim.sampling import SamplingConfig
from repro.sim.workload import prepare_workload
from repro.validate import ValidationConfig
from repro.workloads import QUICK_BENCHMARKS, build_program

REGISTRY = core_registry()
LENGTHS = (1_500, 3_000)
#: small windows, so both lengths plan real windows (no exact fallback)
SAMPLING = SamplingConfig(interval=200, stride=3, warmup=100)
INTERVAL = IntervalConfig(windows=4, window=200, warmup=100)


@functools.lru_cache(maxsize=None)
def workload(length: int, braided: bool):
    context = ExperimentContext(
        benchmarks=("gcc",),
        max_instructions=length,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )
    prepared = context.workload("gcc", braided=braided)
    prepared.decode()
    prepared.replay()
    return prepared


def runs(prepared, config):
    """Each way a run is made, as a zero-argument callable."""
    return {
        "exact": lambda: simulate(prepared, config, fidelity="exact"),
        "sampled": lambda: simulate(
            prepared, config, fidelity="sampled", sampling=SAMPLING
        ),
        "interval": lambda: simulate(
            prepared, config, fidelity="interval", interval=INTERVAL
        ),
        "observed": lambda: simulate(
            prepared, config,
            observe=Observer(trace=True, cpi=True, metrics=True),
        ),
        "lockstep": lambda: simulate(
            prepared, config,
            validation=ValidationConfig(lockstep=True, invariants=True),
        ),
        # A predictor bit flip perturbs timing only, so the injected run
        # completes under its lockstep checker.
        "fault": lambda: run_injection(
            prepared, config, "branchpred", seed=3, baseline_cycles=2_000
        ),
    }


def garbage_after(work):
    """What one ``work()`` made with the collector off returned, and the
    objects only the cyclic collector can free after it."""
    gc.collect()
    gc.disable()
    try:
        outcome = work()
        found = gc.collect()
    finally:
        gc.enable()
    return outcome, found


def assert_ran_in_full(outcome) -> None:
    if hasattr(outcome, "outcome"):
        assert outcome.injected and outcome.outcome is FaultOutcome.MASKED
    else:
        assert not outcome.extra.get("sample_fallback_exact")
        assert not outcome.extra.get("interval_fallback_exact")


@pytest.mark.parametrize("key", list(REGISTRY))
def test_runs_leave_no_cycles(key):
    descriptor = REGISTRY[key]
    config = descriptor.config_factory(8)
    counts = {}
    for length in LENGTHS:
        modes = runs(workload(length, descriptor.braided), config)
        for mode, run in modes.items():
            outcome, counts[(mode, length)] = garbage_after(run)
            assert_ran_in_full(outcome)
    for mode in modes:
        short, long = (counts[(mode, length)] for length in LENGTHS)
        assert short == long == 0, (
            f"{key}/{mode}: gc.collect() found {short} objects after "
            f"{LENGTHS[0]} instructions and {long} after {LENGTHS[1]}"
        )


@pytest.mark.parametrize("name", QUICK_BENCHMARKS)
def test_phase_one_leaves_no_cycles(name, tmp_path):
    cache = ArtifactCache(root=tmp_path)

    def phase_one():
        program = build_program(name)
        forms = {"original": program, "braided": braidify(program).translated}
        for form, source in forms.items():
            prepared = prepare_workload(source)
            prepared.decode()
            prepared.replay()
            key = ("workload", name, form)
            cache.put(key, prepared)
            loaded = cache.get(key)
            assert loaded.mispredicted == prepared.mispredicted
            loaded.replay()
        return cache.hits

    hits, found = garbage_after(phase_one)
    assert hits == 2
    assert found == 0, (
        f"{name}: gc.collect() found {found} objects after phase one"
    )


class TestCollectorRestored:
    def test_after_a_normal_run(self):
        assert gc.isenabled()
        simulate(workload(LENGTHS[0], False), REGISTRY["ooo"].config_factory(8))
        assert gc.isenabled()

    def test_after_a_run_that_raises(self):
        config = replace(REGISTRY["braid"].config_factory(8), max_idle_cycles=1)
        assert gc.isenabled()
        with pytest.raises(SimulationError):
            simulate(workload(LENGTHS[0], True), config, max_cycles=10)
        assert gc.isenabled()

    def test_stays_off_when_the_caller_had_it_off(self):
        gc.disable()
        try:
            simulate(
                workload(LENGTHS[0], False),
                REGISTRY["inorder"].config_factory(8),
            )
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_scope_pauses_and_restores(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
