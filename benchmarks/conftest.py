"""Shared fixtures for the benchmark harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper: it
runs the corresponding experiment from :mod:`repro.harness`, prints the
rendered table (rows per benchmark, columns per sweep point — the same
series the paper reports), and asserts the paper's qualitative shape.

Options (pass them with a ``benchmarks/`` path so pytest loads this file)::

    pytest benchmarks/ --benchmark-only --repro-benchmarks quick

* ``--repro-benchmarks`` — ``full`` (the default), ``quick`` (the
  four-program subset), ``int`` / ``fp``, or a comma-separated list;
* ``--repro-scale`` — benchmark dynamic-length multiplier (default 1.0).
"""

from __future__ import annotations

import pytest

from repro.harness import ExperimentContext
from repro.workloads import select_benchmarks


def pytest_addoption(parser):
    group = parser.getgroup("repro", "paper figure suite")
    group.addoption(
        "--repro-benchmarks", default="full", metavar="SELECTION",
        help="benchmarks to run: full, quick, int, fp, or a "
             "comma-separated list (default: full)",
    )
    group.addoption(
        "--repro-scale", type=float, default=1.0, metavar="FACTOR",
        help="benchmark dynamic-length multiplier (default 1.0)",
    )


_BENCHMARKS = pytest.StashKey[tuple]()


def pytest_configure(config):
    # Parsed at startup, so a bad selection is a usage error.
    try:
        config.stash[_BENCHMARKS] = select_benchmarks(
            config.getoption("repro_benchmarks"), "full"
        )
    except ValueError as error:
        raise pytest.UsageError(f"--repro-benchmarks: {error}") from None


@pytest.fixture(scope="session")
def ctx(pytestconfig):
    """One shared experiment context: programs/compilations/workloads are
    prepared once and reused by every sweep point."""
    return ExperimentContext(
        benchmarks=pytestconfig.stash[_BENCHMARKS],
        scale=pytestconfig.getoption("repro_scale"),
    )


@pytest.fixture
def run_experiment(benchmark, ctx):
    """Run an experiment exactly once under pytest-benchmark and print it."""

    def runner(experiment, *args, **kwargs):
        result = benchmark.pedantic(
            lambda: experiment(ctx, *args, **kwargs), rounds=1, iterations=1
        )
        print()
        print(result.render())
        return result

    return runner
