"""Simulation results and stall accounting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class StallCounters:
    """Why dispatch could not make progress, counted per blocked cycle-slot."""

    fetch_buffer_empty: int = 0
    alloc_width: int = 0
    rename_width: int = 0
    regfile_entries: int = 0
    structure_full: int = 0
    checkpoints: int = 0
    in_flight_cap: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class SimResult:
    """Outcome of one timing simulation.

    Exact runs report measured totals.  Interval-sampled runs
    (:mod:`repro.sim.sampling`) report *estimated* ``cycles`` extrapolated
    from the measured windows, flag themselves with ``sampled``, and carry
    the estimate's uncertainty in ``cycles_stderr``; ``issued`` and
    ``stalls`` then cover only the measured windows
    (``sample_measured_instructions`` of the ``instructions`` total).
    """

    benchmark: str
    machine: str
    cycles: int
    instructions: int
    #: dynamic branches and how many were mispredicted
    branches: int = 0
    mispredicts: int = 0
    #: issue-slot utilisation
    issued: int = 0
    stalls: StallCounters = field(default_factory=StallCounters)
    extra: Dict[str, float] = field(default_factory=dict)
    #: interval sampling: estimate provenance and uncertainty
    sampled: bool = False
    #: which fidelity tier produced this result: ``exact`` (every
    #: instruction simulated), ``sampled`` (every stride-th unit
    #: measured, rest extrapolated), or ``interval`` (a few calibration
    #: windows measured, rest predicted analytically)
    fidelity: str = "exact"
    sample_intervals: int = 0
    sample_measured_instructions: int = 0
    sample_detail_instructions: int = 0
    #: standard error of the extrapolated cycle count (0.0 for exact runs)
    cycles_stderr: float = 0.0
    #: observability (populated only when an Observer was attached):
    #: per-cause cycle components summing to ``cycles`` (see repro.obs.cpi)
    cpi_stack: Optional[Dict[str, float]] = None
    #: telemetry summary from repro.obs.metrics (histogram digests)
    metrics: Optional[Dict[str, Any]] = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def counters_cover(self) -> int:
        """Instructions the ``issued``/``stalls`` counters actually cover.

        Exact runs count every retired instruction; sampled runs count only
        the measured windows.  Any consumer that mixes ``issued``/``stalls``
        with ``instructions`` (a trace total) must normalize through this
        denominator — comparing a sampled run's window-only counters against
        an exact run's totals is meaningless otherwise.
        """
        if self.sampled:
            return self.sample_measured_instructions
        return self.instructions

    @property
    def ipc_stderr(self) -> float:
        """Standard error of the IPC estimate (0.0 for exact runs).

        First-order propagation through ``ipc = instructions / cycles``:
        ``se(ipc) = instructions * se(cycles) / cycles**2``.
        """
        if not self.cycles:
            return 0.0
        return self.instructions * self.cycles_stderr / (self.cycles ** 2)

    @property
    def ipc_ci95(self) -> float:
        """Half-width of the normal-approximation 95% CI on IPC."""
        return 1.96 * self.ipc_stderr

    @property
    def mispredict_rate(self) -> float:
        return self.mispredicts / self.branches if self.branches else 0.0

    def summary(self) -> str:
        text = (
            f"{self.benchmark:12s} {self.machine:14s} "
            f"IPC={self.ipc:5.2f} cycles={self.cycles:8d} "
            f"instructions={self.instructions:8d}"
        )
        if self.sampled:
            text += (
                f" (sampled: {self.sample_intervals} intervals, "
                f"IPC ±{self.ipc_ci95:.3f})"
            )
        return text
