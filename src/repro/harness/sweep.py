"""Declarative sweep points: the unit of work every figure is made of.

A paper figure is a grid of timing simulations: rows are benchmarks, columns
are machine-configuration sweep values, and each cell is the IPC of one
``(benchmark, config, braided, perfect, internal_limit)`` point, often
normalized to another point (the paper's 8-wide out-of-order baseline, or
the leftmost column).  Expressing figures as :class:`Cell` grids instead of
nested ``ctx.run`` loops lets one driver — :func:`sweep_experiment` — batch
every point of a figure through :meth:`ExperimentContext.run_many`, which
deduplicates shared points and fans the rest out over the worker fleet
(:func:`~repro.harness.parallel.run_tasks_hardened`, the same one fault
campaigns and the service use).  No figure carries its own parallelism or
caching code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..sim.config import MachineConfig
from .reporting import ExperimentResult, normalize_rows


@dataclass(frozen=True)
class SweepPoint:
    """One timing simulation: a benchmark replayed on one machine config."""

    benchmark: str
    config: MachineConfig
    braided: bool = False
    perfect: bool = False
    internal_limit: int = 8


@dataclass(frozen=True)
class Cell:
    """One figure cell: a sweep point, optionally normalized to a baseline.

    ``value = IPC(point)`` or ``IPC(point) / IPC(baseline)`` when a baseline
    point is given.  Baselines are ordinary sweep points, so a baseline
    shared by many cells (or many figures) is simulated exactly once.
    """

    row: str
    column: str
    point: SweepPoint
    baseline: Optional[SweepPoint] = None


def sweep_experiment(
    ctx,
    *,
    experiment_id: str,
    title: str,
    paper_expectation: str,
    columns: Sequence[str],
    cells: Iterable[Cell],
    normalize_to: Optional[str] = None,
) -> ExperimentResult:
    """Run a figure expressed as a cell grid and render it as a result.

    All distinct points behind ``cells`` (baselines included) are handed to
    ``ctx.run_many`` in one batch — the single place where memoization, the
    persistent artifact cache, and the multiprocessing pool apply.
    """
    cells = list(cells)
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_expectation=paper_expectation,
        columns=list(columns),
    )
    points: List[SweepPoint] = []
    for cell in cells:
        points.append(cell.point)
        if cell.baseline is not None:
            points.append(cell.baseline)
    results = ctx.run_many(points)
    sampled = [r for r in results.values() if r.sampled]
    if sampled:
        worst_ci = max(
            r.ipc_ci95 / r.ipc if r.ipc else 0.0 for r in sampled
        )
        result.notes.append(
            f"{len(sampled)}/{len(results)} points interval-sampled; "
            f"worst IPC 95% CI ±{100 * worst_ci:.2f}%"
        )
    for cell in cells:
        value = results[cell.point].ipc
        if cell.baseline is not None:
            base = results[cell.baseline].ipc
            value = value / base if base else 0.0
        result.rows.setdefault(cell.row, {})[cell.column] = value
    if normalize_to is not None:
        normalize_rows(result, normalize_to)
    result.finalize_averages()
    return result
