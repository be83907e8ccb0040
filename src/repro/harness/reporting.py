"""Experiment result containers and table rendering."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class ExperimentResult:
    """One regenerated table or figure.

    ``rows`` maps benchmark -> {column label -> value}; ``averages`` holds
    the suite-level summary the paper quotes in its prose.
    """

    experiment_id: str
    title: str
    paper_expectation: str
    columns: List[str]
    rows: Dict[str, Dict[str, float]] = field(default_factory=dict)
    averages: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: columns are additive components of one quantity per row (CPI stacks);
    #: the bar renderer then stacks segments instead of grouping bars
    stacked: bool = False

    def column_average(self, column: str) -> float:
        values = [row[column] for row in self.rows.values() if column in row]
        return sum(values) / len(values) if values else 0.0

    def column_geomean(self, column: str) -> float:
        values = [
            row[column]
            for row in self.rows.values()
            if column in row and row[column] > 0
        ]
        if not values:
            return 0.0
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def finalize_averages(self, geometric: bool = False) -> None:
        for column in self.columns:
            self.averages[column] = (
                self.column_geomean(column) if geometric
                else self.column_average(column)
            )

    # -------------------------------------------------------------- rendering
    def render(self, precision: int = 2, width: Optional[int] = None) -> str:
        """ASCII table in the style of the paper's figures."""
        name_width = max(
            [len("benchmark")] + [len(name) for name in self.rows]
        ) + 1
        col_width = max([7] + [len(c) + 1 for c in self.columns])

        def fmt(value: float) -> str:
            return f"{value:{col_width}.{precision}f}"

        lines = [
            f"== {self.experiment_id}: {self.title}",
            f"   paper: {self.paper_expectation}",
        ]
        header = "benchmark".ljust(name_width) + "".join(
            column.rjust(col_width) for column in self.columns
        )
        lines.append(header)
        lines.append("-" * len(header))
        for name, row in self.rows.items():
            cells = "".join(
                fmt(row[column]) if column in row else " " * col_width
                for column in self.columns
            )
            lines.append(name.ljust(name_width) + cells)
        if self.averages:
            lines.append("-" * len(header))
            cells = "".join(
                fmt(self.averages.get(column, float("nan")))
                for column in self.columns
            )
            lines.append("average".ljust(name_width) + cells)
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)

