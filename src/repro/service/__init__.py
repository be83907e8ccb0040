"""Durable simulation service: job store, supervisor, chaos harness.

The harness can already sweep, sample, validate, and inject faults; this
package turns it into something you can *operate*: a crash-safe on-disk
job queue (:mod:`~repro.service.jobstore`), a supervisor that schedules
queued jobs onto the hardened worker fleet with classified retries,
fair-share quotas, and graceful drain (:mod:`~repro.service.supervisor`),
and a deterministic infrastructure-fault injector that proves the
recovery invariants hold (:mod:`~repro.service.chaos`).

The design mirrors the paper's own argument: resilience comes from
small, independently recoverable units over simple in-order state — an
append-only fsynced journal and atomic-rename files — rather than one
monolithic process that must never die.  SIGKILL the supervisor
mid-campaign, restart it, and the service resumes from the journal with
no lost or duplicated results, bit-identical to an uninterrupted run.

Any number of :class:`JobStore` handles may share one store: every
handle reads the journal through the one incremental
:class:`JsonlJournal` reader, and every mutation runs under the
journal's writer lock, so a ``submit`` made while ``serve`` runs is
picked up by that supervisor.

Observability (:mod:`~repro.service.telemetry`) speaks the one
telemetry vocabulary of :mod:`repro.obs.runlog`: every journal event
carries the ``ts``/``mono``/``pid`` stamp the state fold ignores,
workers publish stamped heartbeat snapshots the watchdog and the live
``status --follow`` table read back, and the supervisor publishes one
registry as ``metrics.prom`` and a ``health.json`` snapshot as jobs
settle.

Light modules (:mod:`~repro.service.retry`, :mod:`~repro.service.journal`,
:mod:`~repro.service.jobstore`, :mod:`~repro.service.chaos`,
:mod:`~repro.service.telemetry`) are imported eagerly and load nothing
of the harness or the simulator — a job's result rides in its journaled
``done`` event, so the store needs no result cache; the supervisor and
executors — which pull in the whole harness — load lazily on first
attribute access, which also lets ``repro.harness.parallel`` import
:class:`RetryPolicy` without a cycle.
"""

from __future__ import annotations

from .chaos import ChaosSpec
from .journal import JournalError, JsonlJournal
from .jobstore import (
    JobRecord,
    JobRequest,
    JobStore,
    QuotaExceeded,
    ServiceError,
    request_key,
)
from .retry import RetryPolicy
from .telemetry import ProgressPublisher, job_timeline, service_registry

__all__ = [
    "ChaosSpec",
    "JournalError",
    "JsonlJournal",
    "JobRecord",
    "JobRequest",
    "JobStore",
    "ProgressPublisher",
    "QuotaExceeded",
    "RetryPolicy",
    "ServiceError",
    "Supervisor",
    "ServiceConfig",
    "job_timeline",
    "request_key",
    "service_registry",
]

_LAZY = {
    "Supervisor": ("supervisor", "Supervisor"),
    "ServiceConfig": ("supervisor", "ServiceConfig"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attribute)
