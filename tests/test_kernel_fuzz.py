"""Config-fuzzed kernel equivalence: the event kernel on random machines.

The event kernel skips idle spans and dispatch-stall spans (charging the
stall counters of a skipped span in bulk) and issues only from the due
windows of the active-window index.  Both are exact only if every
structure publishes its next event correctly, and the tight corners —
a ROB, LSQ or window a few entries deep, one-entry FIFOs, exception-mode
braids — are where a missed publisher shows.  For random legal
``MachineConfig``s of every registered core, with small structures so
stall spans are common, the event kernel must equal the ticked reference
(``event_kernel = False``, which single-steps and scans every window) on
every counter and every ``extra`` statistic; with a full ``Observer``
attached, the CPI stack, the histograms and the trace ring must match
too.  Hypothesis runs derandomized, so the examples are the same on
every run.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.obs import Observer
from repro.sim.core import SimulationError
from repro.sim.registry import core_registry
from repro.sim.run import build_core

REGISTRY = core_registry()
BENCHMARKS = ("gcc", "mcf")
#: a wedged config fails the same way on both kernels, quickly
IDLE_LIMIT = 4_000

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

@functools.lru_cache(maxsize=None)
def context() -> ExperimentContext:
    return ExperimentContext(
        benchmarks=BENCHMARKS,
        max_instructions=1_500,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


def workload(name: str, braided: bool):
    return context().workload(name, braided=braided)


@st.composite
def machines(draw, key: str):
    descriptor = REGISTRY[key]
    base = descriptor.config_factory(draw(st.sampled_from((2, 4, 8))))
    config = replace(
        base,
        max_in_flight=draw(st.integers(8, 64)),
        lsq_entries=draw(st.integers(2, 16)),
        cluster_entries=draw(st.integers(1, 8)),
        beu_window=draw(st.integers(1, 4)),
        beu_exception_mode=draw(st.booleans()),
        beu_queue_braids=draw(st.booleans()),
        rf_alloc_at_issue=draw(st.booleans()),
        max_idle_cycles=IDLE_LIMIT,
    )
    return config


def run(key: str, name: str, config, ticked: bool, observed: bool):
    """Everything one run produces, or the error it ended with."""
    core = build_core(workload(name, REGISTRY[key].braided), config)
    if ticked:
        core.event_kernel = False
    observer = None
    if observed:
        observer = Observer(trace=True, cpi=True, metrics=True)
        observer.attach(core)
    try:
        result = core.run()
    except SimulationError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    if observer is None:
        return dataclasses.asdict(result)
    observer.finalize(result)
    record = dataclasses.asdict(result)
    record["trace_ring"] = repr(observer.trace_records())
    return record


def counters(record):
    return {
        key: value for key, value in record.items()
        if key not in ("cpi_stack", "metrics", "trace_ring", "extra")
    } | {
        "extra": {
            key: value for key, value in record.get("extra", {}).items()
            if not key.startswith("trace_")
        }
    }


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_event_kernel_matches_ticked_on_random_configs(key):
    @_SETTINGS
    @given(machines(key), st.sampled_from(BENCHMARKS))
    def check(config, name):
        fast = run(key, name, config, ticked=False, observed=False)
        slow = run(key, name, config, ticked=True, observed=False)
        assert fast == slow, f"{key} diverged on {config}"

    check()


@pytest.mark.parametrize("key", sorted(REGISTRY))
def test_observed_runs_match_ticked_on_random_configs(key):
    @_SETTINGS
    @given(machines(key), st.sampled_from(BENCHMARKS))
    def check(config, name):
        fast = run(key, name, config, ticked=False, observed=True)
        slow = run(key, name, config, ticked=True, observed=True)
        assert fast == slow, f"observed {key} diverged on {config}"
        if "error" not in fast:
            plain = run(key, name, config, ticked=False, observed=False)
            assert counters(fast) == counters(plain)

    check()
