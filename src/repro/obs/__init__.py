"""Observability layer: tracing, CPI stall attribution, telemetry records.

Everything here is opt-in and rides on the hook mechanism of
:class:`~repro.sim.core.TimingCore` (``trace_hook`` on executed cycles and
``span_hook`` on skipped spans, next to ``invariant_hook`` and
``fault_hook``); with every knob off the timing loop calls no hook and is
bit-identical to the seed.  :mod:`~repro.obs.runlog` holds the records
every layer shares (stamp, atomic writer, snapshots, run log); the
package imports nothing outside itself.
"""

from .cpi import STALL_CAUSES, classify_cycle, classify_stall, empty_stack
from .metrics import BoundedHistogram, MetricsRegistry
from .observer import Observer
from .profiling import aggregate_profiles, maybe_profiled, profiling_into
from .runlog import (ENV_RUNLOG, RunLog, event_stamp, read_snapshot,
                     write_atomic, write_snapshot)
from .tracing import (
    RingLog,
    chrome_schema_errors,
    export_chrome,
    export_konata,
    issue_stall_cause,
    retired_records,
)

__all__ = [
    "STALL_CAUSES",
    "classify_cycle",
    "classify_stall",
    "empty_stack",
    "BoundedHistogram",
    "MetricsRegistry",
    "Observer",
    "aggregate_profiles",
    "maybe_profiled",
    "profiling_into",
    "ENV_RUNLOG",
    "RunLog",
    "event_stamp",
    "read_snapshot",
    "write_atomic",
    "write_snapshot",
    "RingLog",
    "chrome_schema_errors",
    "export_chrome",
    "export_konata",
    "issue_stall_cause",
    "retired_records",
]
