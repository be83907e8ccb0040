"""Tests of the benchmark's statistics, failure accounting and inputs.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from common import (  # noqa: E402
    MIN_BEYOND, REFERENCE_SECONDS, Accounting, Deadline, HostClock,
    WorkerSamples, median, percentile, unfinished_jobs,
)


def test_median_always_reported():
    assert percentile([5.0], 50) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    # p90 by nearest rank: rank ceil(0.9 n); samples beyond = n - rank
    assert percentile(list(range(99)), 90) is None  # 99 - 90 = 9 beyond
    assert percentile(list(range(100)), 90) == 89.0  # 100 - 90 = 10 beyond
    assert percentile(list(range(137)), 90) == 123.0
    assert percentile(list(range(999)), 99) is None
    assert percentile(list(range(1000)), 99) == 989.0


def test_tail_percentile_beyond_count_is_the_rule():
    for n in range(1, 400):
        values = list(range(n))
        value = percentile(values, 90)
        if value is None:
            assert n < 100
            continue
        beyond = sum(1 for v in values if v > value)
        assert beyond >= MIN_BEYOND


def test_empty_samples():
    assert percentile([], 50) is None
    assert percentile([], 90) is None


def test_unfinished_jobs_count_as_failed():
    assert unfinished_jobs(["done", "done"]) == 0
    assert unfinished_jobs(["done", "failed", "queued", "running"]) == 3


def test_accounting_fraction_and_checks():
    acct = Accounting()
    acct.attempt(8)
    assert acct.check(True, "fine")
    assert not acct.check(False, "mismatch")
    assert (acct.attempted, acct.failed) == (10, 1)
    assert acct.failed_frac == 0.1
    assert acct.problems == ["mismatch"]


def test_nothing_attempted_is_a_total_failure():
    assert Accounting().failed_frac == 1.0


def test_deadline_runs_at_least_the_minimum():
    deadline = Deadline(0.0, minimum=2)
    runs = 0
    while deadline.another():
        deadline.record(0.01)
        runs += 1
    assert runs == 2


def test_deadline_stops_when_the_next_unit_would_overrun():
    deadline = Deadline(100.0)
    deadline.record(60.0)
    deadline.started -= 60.0
    assert not deadline.another()
    deadline = Deadline(100.0)
    deadline.record(30.0)
    deadline.started -= 30.0
    assert deadline.another()


def test_inputs_are_keyed_by_seed():
    import long_trace
    import service_batch
    import sweep_cold

    assert long_trace.inputs_sha256(0) == long_trace.inputs_sha256(0)
    assert long_trace.inputs_sha256(0) != long_trace.inputs_sha256(1)
    assert sweep_cold.make_inputs(4) == sweep_cold.make_inputs(4)
    assert sweep_cold.make_inputs(4)[1] != sweep_cold.make_inputs(5)[1]
    assert service_batch.make_batch(2) == service_batch.make_batch(2)
    assert service_batch.make_batch(2) != service_batch.make_batch(3)


def test_sweep_subset_takes_one_benchmark_per_stratum():
    import sweep_cold

    for seed in range(20):
        names = sweep_cold.subset(seed)
        assert len(names) == len(sweep_cold.STRATA)
        for stratum in sweep_cold.STRATA:
            assert len(set(stratum) & set(names)) == 1


def test_service_batch_mix():
    import service_batch

    batch = service_batch.make_batch(0)
    kinds = [kind for kind, _, _ in batch]
    distinct = {(kind, repr(sorted(params.items())))
                for kind, params, _ in batch}
    assert len(batch) - len(distinct) == service_batch.DUPLICATES
    assert len(distinct) >= 100
    assert kinds.count("faults") == len(service_batch.FAULT_BENCHMARKS)
    assert kinds.count("sweep") == service_batch.SWEEPS
    assert {client for _, _, client in batch} == {
        f"client-{i}" for i in range(service_batch.CLIENTS)}


def test_host_clock_factor_is_reference_over_median_sample():
    assert HostClock.factor(REFERENCE_SECONDS) == 1.0
    assert HostClock.factor(2 * REFERENCE_SECONDS) == 0.5
    # the median resists one sample taken while the host stalled
    assert HostClock.factor(REFERENCE_SECONDS, REFERENCE_SECONDS,
                            50 * REFERENCE_SECONDS) == 1.0


def test_host_clock_measure_scales_raw_time():
    clock = HostClock()
    result, adjusted, raw = clock.measure(sum, [1, 2, 3])
    assert result == 6
    assert raw > 0
    assert adjusted == raw * HostClock.factor(clock.samples[-2],
                                              clock.samples[-1])


def test_worker_samples_read_back_by_window(tmp_path):
    import time

    samples = WorkerSamples(tmp_path / "clock", interval=0.0)
    start = time.monotonic_ns()
    with samples.install(os.path, "basename"):
        assert os.path.basename("/a/b") == "b"
        assert os.path.basename("/a/c") == "c"
    end = time.monotonic_ns()
    assert os.path.basename.__name__ == "basename"  # restored
    assert len(samples.between(start, end)) == 2
    assert samples.between(end + 1, end + 2) == []


def test_interval_miss_allowance_matches_a_95_percent_bound():
    import long_trace

    assert long_trace.max_bound_misses(20) == 3
    assert long_trace.max_bound_misses(40) == 5
    assert long_trace.max_bound_misses(1) == 1


def test_long_service_jobs_are_spread_evenly():
    import service_batch

    for seed in range(5):
        batch = service_batch.make_batch(seed)
        positions = [index for index, (kind, _, _) in enumerate(batch)
                     if kind != "simulate"]
        assert len(positions) == (service_batch.SWEEPS
                                  + len(service_batch.FAULT_BENCHMARKS))
        gaps = {b - a for a, b in zip(positions, positions[1:])}
        assert gaps == {(len(batch) - len(positions)) // len(positions) + 1}
