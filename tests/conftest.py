"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core import braidify
from repro.harness import ExperimentContext
from repro.isa import assemble
from repro.workloads import build_program, kernel


@pytest.fixture(scope="session", autouse=True)
def hermetic_artifact_cache(tmp_path_factory):
    """Point the default artifact cache (and the run log beside it) and
    the default job store at a session temp directory, so no test reads or
    writes the user's ``~/.cache/repro``.  A test that sets either variable
    itself (with ``monkeypatch``) still wins for its own duration."""
    root = tmp_path_factory.mktemp("repro-home")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(root / "cache"))
        patch.setenv("REPRO_SERVICE_DIR", str(root / "service"))
        yield


@pytest.fixture(scope="session")
def gcc_life():
    """The paper's Figure 2 kernel."""
    return kernel("gcc_life")


@pytest.fixture(scope="session")
def gcc_life_compiled(gcc_life):
    return braidify(gcc_life)


@pytest.fixture(scope="session")
def small_program():
    """A tiny two-block loop used by unit tests."""
    return assemble(
        """
        .program tiny
        .block ENTRY
            addq r31, #5, r1
            addq r31, #0, r2
        .block LOOP
            addq r2, r1, r3
            stq  r3, 0(r1)
            addqi r2, #1, r2
            cmplt r2, r1, r4
            bne  r4, LOOP
        .block DONE
            nop
        """
    )


@pytest.fixture(scope="session")
def gcc_program():
    """The synthetic gcc benchmark (small but full-featured)."""
    return build_program("gcc")


@pytest.fixture(scope="session")
def quick_context():
    """Experiment context over two fast benchmarks (hermetic: in-process,
    no persistent artifact cache)."""
    from repro.harness import ArtifactCache

    return ExperimentContext(
        benchmarks=("gcc", "mcf"),
        max_instructions=20_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )
