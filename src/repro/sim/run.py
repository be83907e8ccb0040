"""One-call simulation entry points, and the run setup every tier shares."""

from __future__ import annotations

import os
from typing import Optional

from .config import MachineConfig
from .core import TimingCore
from .registry import descriptor_for
from .results import SimResult
from .workload import PreparedWorkload

_ENV_VALIDATE = "REPRO_VALIDATE"

#: cycle budget of one run, on every tier
MAX_CYCLES = 100_000_000

#: the fidelity ladder, most to least detailed
FIDELITIES = ("exact", "sampled", "interval")

#: ``extra`` flag an estimating tier sets when its trace is too short to
#: plan and it ran exactly instead
_FALLBACK_EXTRA = {
    "sampled": "sample_fallback_exact",
    "interval": "interval_fallback_exact",
}


def build_core(workload: PreparedWorkload, config: MachineConfig) -> TimingCore:
    """Instantiate the timing core registered for ``config.kind``."""
    return descriptor_for(config.kind).core_class(workload, config)


def _env_validation():
    """Resolve ``REPRO_VALIDATE`` lazily — and pay nothing when unset.

    The common path is one dict lookup; :mod:`repro.validate` is only
    imported when the variable actually requests checking.
    """
    if not os.environ.get(_ENV_VALIDATE, "").strip():
        return None
    from ..validate import validation_from_env

    return validation_from_env()


def simulate(
    workload: PreparedWorkload,
    config: MachineConfig,
    max_cycles: int = MAX_CYCLES,
    sampling=None,
    validation=None,
    observe=None,
    fidelity: Optional[str] = None,
    interval=None,
    progress=None,
) -> SimResult:
    """Run ``workload`` on the machine described by ``config``.

    ``fidelity`` picks the tier explicitly: ``"exact"`` simulates every
    instruction (and ignores ``sampling``), ``"sampled"`` measures every
    stride-th unit (``sampling``, a
    :class:`~repro.sim.sampling.SamplingConfig`, or the defaults),
    ``"interval"`` measures only a few calibration windows and predicts
    the rest analytically (``interval``, an
    :class:`~repro.sim.interval.IntervalConfig`, or the defaults).
    ``None`` (the default) keeps the legacy rule: sampled when
    ``sampling`` is given, exact otherwise.

    ``validation`` (a :class:`~repro.validate.ValidationConfig`) attaches
    lockstep and/or invariant checkers to the run; the default consults
    ``REPRO_VALIDATE`` and attaches nothing when it is unset, so ordinary
    runs pay no validation cost.  Divergences raise
    :class:`~repro.validate.DivergenceError` /
    :class:`~repro.validate.InvariantViolation`.

    ``observe`` (a :class:`~repro.obs.Observer`) attaches the observability
    layer — CPI stall attribution, pipeline tracing, telemetry — and
    publishes its data onto the returned result.  ``None`` (the default)
    keeps the timing loop on the unhooked fast path.

    ``progress`` (a callable, see :meth:`TimingCore.run
    <repro.sim.core.TimingCore.run>`) receives periodic
    ``(retired, total, cycle)`` callbacks whenever the whole trace runs
    in detail — the service's worker heartbeats ride it.  Sampled and
    interval plans run their own window schedules and ignore it.
    """
    if validation is None:
        validation = _env_validation()
    checkers = None
    if validation is not None and validation.enabled:
        from ..validate import attach_validation

        def checkers(core):
            return attach_validation(core, workload, validation)

    return run_tier(
        workload, config, fidelity, sampling, interval, max_cycles,
        checkers=checkers, observe=observe, progress=progress,
    )


def run_tier(
    workload: PreparedWorkload,
    config: MachineConfig,
    fidelity: Optional[str] = None,
    sampling=None,
    interval=None,
    max_cycles: int = MAX_CYCLES,
    checkers=None,
    observe=None,
    progress=None,
) -> SimResult:
    """The run setup behind every tier (see :func:`simulate`).

    Plans the tier, builds the core, attaches the checkers and then the
    observer, and runs either the whole trace or the plan's windows
    (:func:`~repro.sim.sampling.drive_windows`) before the tier's
    estimator turns the measurements into a result.  ``checkers`` is
    called with the fresh core and returns the validation session
    (anything with ``finish(expect_full)``) or None; the validation
    entry points pass their own lockstep checker this way.
    """
    if fidelity is None:
        fidelity = "sampled" if sampling is not None else "exact"
    plan = None
    if fidelity == "sampled":
        from .sampling import SamplingConfig, estimate_sampled, plan_windows

        tier = sampling if sampling is not None else SamplingConfig()
        plan = plan_windows(workload.trace, tier)
        estimate = estimate_sampled
    elif fidelity == "interval":
        from .interval import (
            IntervalConfig,
            estimate_interval,
            plan_calibration,
        )

        tier = interval if interval is not None else IntervalConfig()
        plan = plan_calibration(len(workload.trace), tier)
        estimate = estimate_interval
    elif fidelity != "exact":
        raise ValueError(
            f"unknown fidelity {fidelity!r}; choose from {FIDELITIES}"
        )
    core = build_core(workload, config)
    session = checkers(core) if checkers is not None else None
    if observe is not None:
        observe.attach(core)
    cpi_slots = None
    if plan is None:
        result = core.run(max_cycles=max_cycles, progress=progress)
        if fidelity != "exact":
            result.extra[_FALLBACK_EXTRA[fidelity]] = 1.0
    else:
        from .sampling import drive_windows

        run = drive_windows(core, plan, observe, max_cycles)
        result = estimate(workload, config, tier, plan, run)
        core.attach_activity(result)
        cpi_slots = run.cpi
    if session is not None:
        # A plan runs only its windows: require consistency of what ran,
        # not coverage of the whole trace.
        session.finish(expect_full=plan is None)
    if observe is not None:
        observe.finalize(result, cpi_slots=cpi_slots)
    return result
