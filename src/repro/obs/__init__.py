"""Observability layer: tracing, CPI stall attribution, harness telemetry.

Everything here is opt-in and rides on the hook mechanism of
:class:`~repro.sim.core.TimingCore` (``trace_hook`` on executed cycles and
``span_hook`` on skipped spans, next to ``invariant_hook`` and
``fault_hook``); with every knob off the timing loop calls no hook and is
bit-identical to the seed.
"""

from .cpi import STALL_CAUSES, classify_cycle, classify_stall, empty_stack
from .metrics import BoundedHistogram, MetricsRegistry
from .observer import Observer
from .profiling import aggregate_profiles, maybe_profiled, profiling_into
from .runlog import ENV_RUNLOG, RunLog
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
    "RingLog",
    "chrome_schema_errors",
    "export_chrome",
    "export_konata",
    "issue_stall_cause",
    "retired_records",
]
