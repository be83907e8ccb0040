"""The observability front door: one object wiring all three layers.

``Observer`` attaches to a :class:`~repro.sim.core.TimingCore` through the
same hook mechanism the invariant checker and fault injector use
(``core.trace_hook`` and ``core.span_hook``), so observability is a pure
add-on: attached or not, the run is bit-identical to the seed
simulator.

Layers (independently switchable):

* ``cpi`` — per-cycle retirement-slot accounting into the
  :data:`~repro.obs.cpi.STALL_CAUSES` taxonomy.  Exact identity: the
  components sum to the simulated cycle count (slot fractions are k/width
  with width a power of two, hence exact in binary floating point).
* ``trace`` — installs a :class:`~repro.obs.tracing.RingLog` as
  ``core.trace_log`` so dispatched instructions are recorded for the
  Konata / Chrome exporters.
* ``metrics`` — bounded occupancy histograms (ROB, fetch buffer, LSQ,
  scheduler) and issue-slot utilization via
  :class:`~repro.obs.metrics.MetricsRegistry`.

Event-skip interaction: hooked runs event-skip like unhooked ones.
``_on_cycle`` fires after every executed cycle; before each skipped span
the core calls ``_on_span`` (``core.span_hook``) with the span's first
cycle, its length and the stall counter each of its cycles charged (a
dispatch refusing the same head, or None for an idle span).  The machine
is frozen across the span and nothing retires or issues, so one
classification (two if the span crosses the fetch-resume cycle) and one
set of gauge readings, weighted by the span length, charge exactly what
single-stepping would have charged.

Sampling interaction: :func:`~repro.sim.sampling.drive_windows` calls
:meth:`Observer.skip_to` after each fast-forward to resynchronize counter
snapshots (drain/fast-forward mutate state outside hooked execution), and
:meth:`Observer.finalize` scales measured-window slot counts up to the
estimated total cycle count when the result is sampled.
"""

from __future__ import annotations

from typing import Dict, Optional

from .cpi import STALL_CAUSES, classify_cycle, empty_stack
from .metrics import MetricsRegistry
from .tracing import RingLog, retired_records


class Observer:
    """Attachable pipeline observer: CPI stack, trace ring, telemetry."""

    def __init__(
        self,
        trace: bool = False,
        cpi: bool = True,
        metrics: bool = False,
        trace_capacity: int = 65536,
    ) -> None:
        self.trace = trace
        self.cpi = cpi
        self.metrics_enabled = metrics
        self.trace_capacity = trace_capacity
        self.core = None
        self.ring: Optional[RingLog] = None
        self.slots: Dict[str, float] = empty_stack()
        self.metrics = MetricsRegistry()
        self._width = 1
        self._last_retired = 0
        self._last_issued = 0
        self._last_rob_cap = 0
        self._last_struct = 0
        #: pre-resolved ``Histogram.add`` bound methods, avoiding the
        #: name-keyed registry lookups on the per-cycle path
        self._hist_add: Dict[str, object] = {}

    # ------------------------------------------------------------------ wiring
    def attach(self, core) -> None:
        """Install hooks on ``core`` (before ``run`` / first window)."""
        self.core = core
        self._width = max(1, core.config.issue_width)
        core.trace_hook = self._on_cycle
        core.span_hook = self._on_span
        if self.trace:
            self.ring = RingLog(self.trace_capacity)
            core.trace_log = self.ring
        if self.metrics_enabled:
            config = core.config
            self.metrics.histogram("rob_occupancy", config.max_in_flight)
            self.metrics.histogram(
                "fetch_buffer_occupancy", config.front_end.fetch_buffer
            )
            self.metrics.histogram("lsq_occupancy", config.lsq_entries)
            self.metrics.histogram(
                "scheduler_occupancy", config.max_in_flight
            )
            self.metrics.histogram("issue_slots", self._width)
            self._hist_add = {
                name: histogram.add
                for name, histogram in self.metrics.histograms.items()
            }
        self._resync()

    def _resync(self) -> None:
        """Align counter snapshots with the core's current state."""
        core = self.core
        self._last_retired = core._retired_count
        self._last_issued = core._issued_count
        self._last_rob_cap = core.stalls.in_flight_cap
        self._last_struct = core.stalls.structure_full

    def skip_to(self, cycle: int) -> None:
        """Resynchronize after a sampling drain + fast-forward.

        Drain cycles execute unhooked and fast-forward rewrites machine
        state wholesale; neither belongs to a measured window, so the
        observer simply realigns its snapshots at the next window's start.
        """
        self._resync()

    # -------------------------------------------------------------- collection
    def _readings(self, issued_delta: int) -> Dict[str, int]:
        core = self.core
        return {
            "rob_occupancy": len(core._rob),
            "fetch_buffer_occupancy": len(core._fetch_buffer),
            "lsq_occupancy": core._mem_in_flight,
            "scheduler_occupancy": core.scheduler_occupancy(),
            "issue_slots": issued_delta,
        }

    def _on_cycle(self, core, cycle: int) -> None:
        """Per-cycle hook: charge one executed cycle.

        Fires once per executed cycle, so everything here is written for
        that path: snapshot loads hoisted once, no dict built per cycle,
        and ``classify_cycle`` invoked only for cycles with empty slots.
        """
        retired = core._retired_count
        issued = core._issued_count
        stalls = core.stalls
        rob_cap = stalls.in_flight_cap
        struct = stalls.structure_full
        if self.cpi:
            width = self._width
            slots = self.slots
            retired_delta = retired - self._last_retired
            slots["base"] += retired_delta / width
            empty = width - retired_delta
            if empty > 0:
                cause = classify_cycle(
                    core, cycle,
                    rob_cap - self._last_rob_cap,
                    struct - self._last_struct,
                )
                slots[cause] += empty / width
        if self.metrics_enabled:
            readings = self._readings(issued - self._last_issued)
            hist_add = self._hist_add
            for name, value in readings.items():
                hist_add[name](value, 1)

        self._last_retired = retired
        self._last_issued = issued
        self._last_rob_cap = rob_cap
        self._last_struct = struct

    def _on_span(self, core, first: int, length: int,
                 stall: Optional[str]) -> None:
        """Span hook: charge ``length`` skipped cycles from ``first`` on.

        Every cycle of the span retires and issues nothing, so its full
        width goes to one cause and its gauges read the frozen state.
        ``classify_cycle`` depends on the cycle only through the
        fetch-resume comparison, so at most two classifications (before
        and from ``_fetch_resume``) cover the span.  The span's stall
        charges (one ``stall`` per cycle) were already added to the
        core's counters; the snapshots absorb them so the next executed
        cycle sees only its own.
        """
        end = first + length
        stalls = core.stalls
        if self.cpi:
            rob_cap = 1 if stall == "in_flight_cap" else 0
            struct = 1 if stall == "structure_full" else 0
            slots = self.slots
            split = min(max(core._fetch_resume, first), end)
            if split > first:
                slots[classify_cycle(core, first, rob_cap, struct)] += (
                    split - first
                )
            if split < end:
                slots[classify_cycle(core, split, rob_cap, struct)] += (
                    end - split
                )
        if self.metrics_enabled:
            hist_add = self._hist_add
            for name, value in self._readings(0).items():
                hist_add[name](value, length)
        self._last_rob_cap = stalls.in_flight_cap
        self._last_struct = stalls.structure_full

    # --------------------------------------------------------------- reporting
    def cpi_totals(self) -> Dict[str, float]:
        """Snapshot of the slot accumulators (for sampling-window diffs)."""
        return dict(self.slots)

    def trace_records(self):
        """Retired instructions currently held by the trace ring."""
        if self.ring is None:
            return []
        return retired_records(self.ring)

    def finalize(self, result, cpi_slots: Optional[Dict[str, float]] = None) -> None:
        """Publish collected data onto a :class:`SimResult`."""
        if self.cpi:
            slots = dict(cpi_slots) if cpi_slots is not None else dict(self.slots)
            if result.sampled:
                total = sum(slots.values())
                if total > 0:
                    scale = result.cycles / total
                    slots = {
                        cause: value * scale for cause, value in slots.items()
                    }
            result.cpi_stack = {cause: slots.get(cause, 0.0) for cause in STALL_CAUSES}
        if self.metrics_enabled:
            result.metrics = self.metrics.summary()
        if self.ring is not None:
            result.extra["trace_events"] = float(len(self.ring))
            result.extra["trace_dropped"] = float(self.ring.dropped)
