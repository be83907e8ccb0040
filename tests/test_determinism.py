"""Determinism of the sweep engine: parallel and cached runs are bit-identical.

The parallel sweep engine and the persistent artifact cache are pure
plumbing — they must never change a single cycle or stall counter.  These
tests pin that down for every registered timing-core kind over the quick
suite:

* ``run_many`` with a worker pool reproduces the serial results exactly;
* workloads rehydrated from the disk cache simulate identically to freshly
  prepared ones;
* configs run back to back on one shared prepared workload match
  standalone runs on every fidelity tier.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.harness.artifacts import ArtifactCache
from repro.harness.context import ExperimentContext
from repro.harness.sweep import SweepPoint
from repro.sim.interval import IntervalConfig
from repro.sim.registry import core_registry
from repro.sim.run import FIDELITIES, simulate

QUICK = ("gcc", "mcf", "swim", "equake")

# every registered paradigm — a new core inherits these guards for free
CORES = {
    key: (descriptor.config_factory(8), descriptor.braided)
    for key, descriptor in core_registry().items()
}


def fingerprint(result):
    """Every architectural counter a run produces."""
    return (
        result.cycles,
        result.instructions,
        result.issued,
        dataclasses.asdict(result.stalls),
        sorted(result.extra.items()),
    )


def fresh_context(jobs: int = 1, cache: ArtifactCache = None) -> ExperimentContext:
    return ExperimentContext(
        benchmarks=QUICK,
        jobs=jobs,
        cache=cache if cache is not None else ArtifactCache(enabled=False),
    )


def all_points():
    return [
        SweepPoint(name, config, braided=braided)
        for _, (config, braided) in CORES.items()
        for name in QUICK
    ]


@pytest.fixture(scope="module")
def serial_fingerprints():
    """Ground truth: every (core kind, benchmark) simulated in-process."""
    ctx = fresh_context()
    return {
        (kind, name): fingerprint(ctx.run(name, config, braided=braided))
        for kind, (config, braided) in CORES.items()
        for name in QUICK
    }


@pytest.fixture(scope="module")
def parallel_results():
    """The same sweep dispatched through the jobs=2 worker pool.

    Calls :func:`run_point_groups_parallel` directly, one point per
    group: ``run_many`` would route around the pool on single-CPU hosts
    (see ``effective_jobs``), and this test exists precisely to exercise
    the pool path.
    """
    from repro.harness.parallel import run_point_groups_parallel

    ctx = fresh_context(jobs=2)
    points = all_points()
    groups = run_point_groups_parallel(ctx, [(p,) for p in points], 2)
    return dict(zip(points, (group[0] for group in groups)))


@pytest.fixture(scope="module")
def cached_fingerprints(tmp_path_factory):
    """The same sweep with every workload rehydrated from the disk cache."""
    root = tmp_path_factory.mktemp("repro-artifact-cache")
    warm = fresh_context(cache=ArtifactCache(root=root))
    for name in QUICK:
        for braided in (False, True):
            warm.workload(name, braided=braided)
    cold = fresh_context(cache=ArtifactCache(root=root))
    fingerprints = {
        (kind, name): fingerprint(cold.run(name, config, braided=braided))
        for kind, (config, braided) in CORES.items()
        for name in QUICK
    }
    assert cold.cache.hits > 0 and cold.cache.misses == 0, (
        "cached context should have loaded every workload from disk"
    )
    return fingerprints


@pytest.mark.parametrize("kind", list(CORES))
def test_parallel_matches_serial(kind, serial_fingerprints, parallel_results):
    config, braided = CORES[kind]
    for name in QUICK:
        point = SweepPoint(name, config, braided=braided)
        assert fingerprint(parallel_results[point]) == (
            serial_fingerprints[(kind, name)]
        ), f"parallel run diverged on {name}/{kind}"


@pytest.mark.parametrize("kind", list(CORES))
def test_cached_matches_fresh(kind, serial_fingerprints, cached_fingerprints):
    for name in QUICK:
        assert cached_fingerprints[(kind, name)] == (
            serial_fingerprints[(kind, name)]
        ), f"cached workload diverged on {name}/{kind}"


def test_run_many_memoizes(serial_fingerprints):
    """A repeated point is simulated once and served from the memo after."""
    ctx = fresh_context()
    points = all_points()
    first = ctx.run_many(points)
    again = ctx.run_many(points)
    for point in points:
        assert first[point] is again[point]


def test_run_many_counts_deduped_points():
    """Intra-batch duplicates are collapsed and counted in telemetry."""
    ctx = fresh_context()
    config, braided = CORES["inorder"]
    point = SweepPoint("swim", config, braided=braided)
    results = ctx.run_many([point, point, point])
    assert results[point].instructions > 0
    assert ctx.telemetry.counters.get("run_many.deduped") == 2
    ctx.run_many([point])
    assert ctx.telemetry.counters.get("run_many.memoized") == 1


class TestSharedWorkload:
    """Many configs on one prepared workload change nothing.

    A sweep replays one workload against many machine configs, and the
    config-invariant facts (:meth:`PreparedWorkload.decode`,
    :meth:`PreparedWorkload.replay`) are cached on the workload object,
    so every config after the first reuses them.  Each run must still be
    bit-identical to a standalone run on a freshly prepared workload, on
    every fidelity tier.
    """

    #: small enough that the short default-scale trace still calibrates
    TIERS = {
        "exact": {},
        "sampled": {},
        "interval": {"interval": IntervalConfig(windows=4, window=200)},
    }

    @staticmethod
    def _shared_vs_standalone(kinds, braided, fidelity, tier):
        shared = fresh_context().workload("gcc", braided=braided)
        together = [
            simulate(shared, CORES[kind][0], fidelity=fidelity, **tier)
            for kind in kinds
        ]
        alone = [
            simulate(
                fresh_context().workload("gcc", braided=braided),
                CORES[kind][0], fidelity=fidelity, **tier,
            )
            for kind in kinds
        ]
        assert all(result.fidelity == fidelity for result in together)
        assert [dataclasses.asdict(result) for result in together] == [
            dataclasses.asdict(result) for result in alone
        ]

    @pytest.mark.parametrize("fidelity", FIDELITIES)
    def test_configs_match_standalone(self, fidelity):
        kinds = [kind for kind, (_, braided) in CORES.items() if not braided]
        self._shared_vs_standalone(
            kinds, False, fidelity, self.TIERS[fidelity]
        )

    def test_braided_configs_match_standalone(self):
        kinds = [kind for kind, (_, braided) in CORES.items() if braided]
        self._shared_vs_standalone(kinds, True, "exact", {})


class TestEventKernelEquivalence:
    """The skip-to-next-event scheduler is a pure speed layer.

    ``TimingCore.event_kernel`` switches between the classic every-cycle
    tick loop and the next-event skip loop.  The two must be bit-identical
    on every core kind — plain runs, hooked (observer-attached) runs, and
    the resumable drain / fast-forward / re-run windows the sampled and
    interval engines compose.
    """

    MAX_CYCLES = 1_000_000

    @pytest.fixture(scope="class")
    def small_ctx(self):
        return ExperimentContext(
            benchmarks=("gcc", "mcf"),
            max_instructions=20_000,
            jobs=1,
            cache=ArtifactCache(enabled=False),
        )

    @staticmethod
    def _ticked(monkeypatch):
        from repro.sim.core import TimingCore

        monkeypatch.setattr(TimingCore, "event_kernel", False)

    @pytest.mark.parametrize("kind", list(CORES))
    @pytest.mark.parametrize("name", ("gcc", "mcf"))
    def test_plain_run_matches_ticked(self, kind, name, small_ctx, monkeypatch):
        from repro.sim.run import build_core

        config, braided = CORES[kind]
        workload = small_ctx.workload(name, braided=braided)
        fast = fingerprint(build_core(workload, config).run())
        with monkeypatch.context() as patched:
            self._ticked(patched)
            slow = fingerprint(build_core(workload, config).run())
        assert fast == slow, f"event kernel diverged on {name}/{kind}"

    @pytest.mark.parametrize("kind", list(CORES))
    def test_hooked_run_matches_ticked(self, kind, small_ctx, monkeypatch):
        """With hooks attached the event kernel still skips (charging
        each skipped span through the observer's span hook) — and still
        agrees with the ticked loop."""
        from repro.obs.observer import Observer
        from repro.sim.run import build_core

        config, braided = CORES[kind]
        workload = small_ctx.workload("mcf", braided=braided)

        def hooked_run():
            core = build_core(workload, config)
            observer = Observer(cpi=True)
            observer.attach(core)
            result = core.run()
            observer.finalize(result)
            return fingerprint(result), result.cpi_stack

        fast = hooked_run()
        with monkeypatch.context() as patched:
            self._ticked(patched)
            slow = hooked_run()
        assert fast == slow, f"hooked event kernel diverged on {kind}"

    @pytest.mark.parametrize("kind", list(CORES))
    def test_resume_windows_match_ticked(self, kind, small_ctx, monkeypatch):
        """Drain / fast-forward / re-run windows agree across kernels."""
        from repro.sim.run import build_core

        config, braided = CORES[kind]
        workload = small_ctx.workload("gcc", braided=braided)
        total = len(workload.trace)
        mid = total // 2

        def windowed_run():
            core = build_core(workload, config)
            core._fetch_limit = 200
            cycle = core._run_until(200, 0, self.MAX_CYCLES)
            cycle = core.drain_in_flight(cycle)
            core.fast_forward(mid, cycle)
            origin = core._retired_count - mid
            core._fetch_limit = total
            cycle = core._run_until(
                origin + min(total, mid + 400), cycle, self.MAX_CYCLES
            )
            cycle = core.drain_in_flight(cycle)
            return (
                cycle,
                core._retired_count - origin,
                dataclasses.asdict(core.stalls),
            )

        fast = windowed_run()
        with monkeypatch.context() as patched:
            self._ticked(patched)
            slow = windowed_run()
        assert fast == slow, f"windowed event kernel diverged on {kind}"
