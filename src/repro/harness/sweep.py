"""Declarative sweeps: a timing figure is a column table and one baseline.

A paper figure is a grid of timing simulations: rows are benchmarks,
columns are machine-configuration sweep values, and each cell is the IPC of
one :class:`SweepPoint`, usually divided by the IPC of its row's baseline
(the paper's 8-wide out-of-order point, or a column of the figure such as
the leftmost).  A figure therefore declares only its *column table* —
column label → the :class:`SweepPoint` fields other than the benchmark —
and its baseline; :func:`sweep_experiment` builds the benchmark × column
grid, batches every point through :meth:`ExperimentContext.run_many`
(which deduplicates shared points and fans the rest out over the worker
fleet, :func:`~repro.harness.parallel.run_tasks_hardened`), and divides.
No figure carries its own loop, parallelism or caching code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Union

from ..sim.config import MachineConfig
from .reporting import ExperimentResult


@dataclass(frozen=True)
class SweepPoint:
    """One timing simulation: a benchmark replayed on one machine config."""

    benchmark: str
    config: MachineConfig
    braided: bool = False
    perfect: bool = False
    internal_limit: int = 8


#: one column of a figure: the keyword arguments of :class:`SweepPoint`
#: other than ``benchmark`` (``config`` and any of its flags)
Column = Mapping[str, Any]


def sweep_experiment(
    ctx,
    *,
    experiment_id: str,
    title: str,
    paper_expectation: str,
    columns: Mapping[str, Column],
    baseline: Union[str, Column, None] = None,
) -> ExperimentResult:
    """Run a figure's column table over ``ctx.benchmarks`` and render it.

    Each cell is the IPC of its column's point on its row's benchmark,
    divided by the IPC of the row's ``baseline`` point: a column label of
    the table, or a column of its own (simulated but not shown).  Without
    a baseline cells are raw IPC.  Every point (baselines included) goes
    to ``ctx.run_many`` in one batch — the single place where
    memoization, the persistent artifact cache, and the worker pool apply.
    """
    base = columns[baseline] if isinstance(baseline, str) else baseline
    grid = [
        (
            name,
            {label: SweepPoint(name, **column)
             for label, column in columns.items()},
            None if base is None else SweepPoint(name, **base),
        )
        for name in ctx.benchmarks
    ]
    # Each cell's point, then its row's baseline: run order and run log
    # follow the table, row by row.
    results = ctx.run_many([
        point
        for _, cells, base_point in grid
        for cell in cells.values()
        for point in (cell, base_point)
        if point is not None
    ])
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_expectation=paper_expectation,
        columns=list(columns),
    )
    sampled = [r for r in results.values() if r.sampled]
    if sampled:
        worst_ci = max(
            r.ipc_ci95 / r.ipc if r.ipc else 0.0 for r in sampled
        )
        result.notes.append(
            f"{len(sampled)}/{len(results)} points interval-sampled; "
            f"worst IPC 95% CI ±{100 * worst_ci:.2f}%"
        )
    for name, cells, base_point in grid:
        row = result.rows[name] = {}
        for label, point in cells.items():
            value = results[point].ipc
            if base_point is not None:
                base_ipc = results[base_point].ipc
                value = value / base_ipc if base_ipc else 0.0
            row[label] = value
    result.finalize_averages()
    return result
