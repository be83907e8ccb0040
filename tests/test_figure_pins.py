"""Pinned sweep figures: every timing figure's table and point set.

Each sweep figure (F1, F5-F14, D1, A1, A2) runs on the quick four at
scale 0.2 with a 20 000-instruction cap, in-process and without the
artifact cache.  For each one this stores:

* ``render`` — the sha256 of :meth:`ExperimentResult.render`, so every
  cell value, average, column and note is pinned byte for byte;
* ``points`` — the sorted, distinct ``benchmark/config name/braided/
  perfect/internal_limit`` sweep points the figure handed to
  :meth:`ExperimentContext.run_many`, so a figure rewrite cannot move a
  cache key or a run-log cell while keeping its table.

If a change legitimately moves a figure, re-pin with
``PYTHONPATH=src python tests/test_figure_pins.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.harness import ALL_EXPERIMENTS, ArtifactCache, ExperimentContext
from repro.workloads import QUICK_BENCHMARKS

PINNED_PATH = Path(__file__).resolve().parent / "data" / "figure_pins.json"
FIGURES = ("F1", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13",
           "F14", "D1", "A1", "A2")


class RecordingContext(ExperimentContext):
    """A context that remembers every point passed to ``run_many``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.requested = set()

    def run_many(self, points):
        points = list(points)
        self.requested.update(
            (p.benchmark, p.config.name, p.braided, p.perfect,
             p.internal_limit)
            for p in points
        )
        return super().run_many(points)


def pin_context() -> RecordingContext:
    return RecordingContext(
        benchmarks=QUICK_BENCHMARKS,
        scale=0.2,
        max_instructions=20_000,
        jobs=1,
        cache=ArtifactCache(enabled=False),
    )


def figure_pin(ctx: RecordingContext, experiment_id: str) -> Dict[str, object]:
    ctx.requested.clear()
    text = ALL_EXPERIMENTS[experiment_id](ctx).render()
    return {
        "render": hashlib.sha256(text.encode()).hexdigest(),
        "points": ["/".join(map(str, point))
                   for point in sorted(ctx.requested)],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED_PATH.read_text())


@pytest.fixture(scope="module")
def shared_context():
    """One context for every figure: phase one runs once per workload."""
    return pin_context()


@pytest.mark.parametrize("experiment_id", FIGURES)
def test_figure_matches_pin(pinned, shared_context, experiment_id):
    fresh = figure_pin(shared_context, experiment_id)
    assert fresh["points"] == pinned[experiment_id]["points"]
    assert fresh["render"] == pinned[experiment_id]["render"]


def test_every_sweep_figure_is_pinned(pinned):
    assert sorted(pinned) == sorted(FIGURES)


if __name__ == "__main__":
    PINNED_PATH.parent.mkdir(exist_ok=True)
    ctx = pin_context()
    pins = {experiment_id: figure_pin(ctx, experiment_id)
            for experiment_id in FIGURES}
    PINNED_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH}")
