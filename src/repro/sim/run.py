"""One-call simulation entry points, and the run setup every tier shares."""

from __future__ import annotations

import os
from typing import Optional

from .config import MachineConfig
from .core import TimingCore
from .gcpause import collector_paused
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


def resolve_tier(
    fidelity: Optional[str] = None, sampling=None, interval=None
):
    """The one rule that picks a run's tier: ``(name, tuning)``.

    An explicit ``fidelity`` wins, with its own tuning or that tier's
    defaults; tuning given for another tier is ignored.  Without one,
    the tier is the one whose tuning was given (both is a
    :class:`ValueError`), and exact (tuning None) when neither was.
    """
    if fidelity is None:
        tunings = (("sampled", sampling), ("interval", interval))
        given = [name for name, tuning in tunings if tuning is not None]
        if len(given) > 1:
            raise ValueError(
                "both a sampling and an interval tuning were given; "
                "name the tier with fidelity"
            )
        fidelity = given[0] if given else "exact"
    if fidelity == "exact":
        return fidelity, None
    if fidelity == "sampled":
        from .sampling import SamplingConfig

        return fidelity, sampling if sampling is not None else SamplingConfig()
    if fidelity == "interval":
        from .interval import IntervalConfig

        return fidelity, interval if interval is not None else IntervalConfig()
    raise ValueError(
        f"unknown fidelity {fidelity!r}; choose from {FIDELITIES}"
    )


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

    ``fidelity`` names the tier: ``"exact"`` simulates every
    instruction, ``"sampled"`` measures every stride-th unit (tuned by
    ``sampling``, a :class:`~repro.sim.sampling.SamplingConfig`), and
    ``"interval"`` measures only a few calibration windows and predicts
    the rest analytically (tuned by ``interval``, an
    :class:`~repro.sim.interval.IntervalConfig`).  :func:`resolve_tier`
    is the rule that picks the tier when ``fidelity`` is None.

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


@collector_paused()
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

    Resolves the tier (:func:`resolve_tier`), plans it, builds the
    core, attaches the checkers and then the observer, and runs either
    the whole trace or the plan's windows
    (:func:`~repro.sim.sampling.drive_windows`) before the tier's
    estimator turns the measurements into a result, all of it inside
    :func:`collector_paused`.  ``checkers`` is called with the fresh
    core and returns the validation session (anything with
    ``finish(expect_full)``) or None; the validation entry points pass
    their own lockstep checker this way.
    """
    fidelity, tier = resolve_tier(fidelity, sampling, interval)
    plan = None
    if fidelity == "sampled":
        from .sampling import estimate_sampled, plan_windows

        plan = plan_windows(workload.trace, tier)
        estimate = estimate_sampled
    elif fidelity == "interval":
        from .interval import estimate_interval, plan_calibration

        plan = plan_calibration(len(workload.trace), tier)
        estimate = estimate_interval
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
