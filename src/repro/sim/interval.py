"""The interval fidelity tier: analytic IPC from a few calibration windows.

The cheapest rung of the fidelity ladder (``exact`` > ``sampled`` >
``interval``).  It runs through the same window driver and estimator as
the sampled tier (:func:`~repro.sim.sampling.drive_windows`,
:func:`~repro.sim.sampling.greg_estimate`), so the two tiers disagree
only through their plans, never through modeling assumptions.  What
this tier decides:

* **The plan** (:func:`plan_calibration`): a fixed lattice of
  ``window``-instruction units of which only ``windows`` — the first,
  the last, one scattered per stratum, and geometrically spaced early
  units — are measured.  Detail fractions land around 1-5% of the trace
  instead of the sampled tier's ~20-30%.
* **The stated error bound**: the configured floor, widened by the
  estimate's standard error and by a leave-one-out cross-validation
  term, so it can widen but never silently narrow.
* **A model CPI stack**: the fitted coefficients price the phase-one
  events per instruction, which yields a CPI stack without an observer
  (intercept → ``base``, excess load latency → ``memory``, mispredicts →
  ``branch_flush``, fetch penalty → ``fetch_limited``); an attached
  observer's measured-window stack takes precedence.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import MachineConfig
from .results import SimResult
from .run import MAX_CYCLES, simulate
from .sampling import (
    SamplePlan,
    WindowRun,
    _fit_model,
    _fit_ridge,
    _unit_covariates,
    greg_estimate,
    lattice_plan,
    parse_spec,
)
from .workload import PreparedWorkload

_ENV_INTERVAL = "REPRO_INTERVAL"

#: config validity floor — anchoring needs a first and a last window.
#: (Fitting fewer windows than the 5-covariate model needs degenerates
#: gracefully to the ratio estimator, so 2 is usable, just coarse.)
_MIN_WINDOWS = 2


@dataclass(frozen=True)
class IntervalConfig:
    """Calibration parameters for the interval (analytic) fidelity tier.

    ``windows`` calibration windows of ``window`` instructions each are
    spread evenly across the trace (first and last units always
    included, so predictions interpolate rather than extrapolate);
    ``seed`` nudges the interior windows for cross-validation without
    losing determinism.  ``error_bound_pct`` is the *stated* IPC error
    bound the tier advertises; the run reports
    ``max(error_bound_pct, 1.96 * stderr)`` so a noisy fit can widen the
    bound but never silently narrow it.
    """

    windows: int = 12
    window: int = 500
    warmup: int = 512
    seed: int = 0
    error_bound_pct: float = 10.0

    def __post_init__(self) -> None:
        if self.windows < _MIN_WINDOWS:
            raise ValueError(
                f"interval windows must be >= {_MIN_WINDOWS}, "
                f"got {self.windows}"
            )
        if self.window < 1:
            raise ValueError(
                f"interval window must be >= 1, got {self.window}"
            )
        if self.warmup < 0:
            raise ValueError(
                f"interval warmup must be >= 0, got {self.warmup}"
            )
        if self.seed < 0:
            raise ValueError(f"interval seed must be >= 0, got {self.seed}")
        # isfinite, not just > 0: inf passes a positivity test and nan
        # fails *every* comparison, so ``nan <= 0`` would wave it through
        if not math.isfinite(self.error_bound_pct) or self.error_bound_pct <= 0:
            raise ValueError(
                f"interval error bound must be a positive finite "
                f"percentage, got {self.error_bound_pct}"
            )

    def cache_token(self) -> Tuple:
        """Hashable identity for cache keys and worker specs."""
        return (
            "interval", self.windows, self.window, self.warmup, self.seed,
            round(self.error_bound_pct, 4),
        )

    def spec(self) -> str:
        """Round-trippable textual form (the ``--interval`` argument)."""
        bound = f"{self.error_bound_pct:g}"
        return (
            f"windows={self.windows},window={self.window},"
            f"warmup={self.warmup},seed={self.seed},bound={bound}"
        )

    @classmethod
    def parse(cls, text: str) -> "IntervalConfig":
        """Parse ``windows=8,window=500,warmup=512,seed=0,bound=10``."""
        keys = dict.fromkeys(("windows", "window", "warmup", "seed"), int)
        values = parse_spec(text, "interval", dict(keys, bound=float))
        if "bound" in values:
            values["error_bound_pct"] = values.pop("bound")
        return cls(**values)  # type: ignore[arg-type]


def interval_from_env() -> IntervalConfig:
    """Resolve ``REPRO_INTERVAL`` (a spec string; unset means defaults)."""
    return IntervalConfig.parse(os.environ.get(_ENV_INTERVAL, ""))


def plan_calibration(
    total: int, interval: IntervalConfig
) -> Optional[SamplePlan]:
    """The calibration plan, or None when exact is cheaper.

    The trace is cut into a fixed lattice of ``interval.window``-sized
    units (plus a trailing partial unit); ``interval.windows`` of them —
    always the first and the last, the rest evenly spread with a
    deterministic seed nudge — are calibrated in detail, plus
    geometrically spaced early units (1, 2, 4, ...): phase-one cache
    warming concentrates CPI drift and its curvature in the first units,
    where an even spread is blind.  Returns None when the lattice has no
    units left to predict, i.e. calibration would measure (almost) the
    whole trace anyway.
    """
    count = -(-total // interval.window)
    if count <= interval.windows:
        return None
    want = interval.windows
    spread = (count - 1) / (want - 1)
    # One window per stratum, scattered inside it by a deterministic
    # PRNG rather than evenly spaced: benchmarks with periodic
    # per-iteration behaviour alias an even lattice (every window lands
    # at the same phase of the iteration), and scatter breaks the
    # alignment without losing determinism.
    rng = random.Random((interval.seed << 16) ^ count)
    picks = {0, count - 1}
    for i in range(1, want - 1):
        low = 1 + (i * (count - 2)) // (want - 1)
        high = 1 + ((i + 1) * (count - 2)) // (want - 1)
        if high > low:
            picks.add(rng.randrange(low, high))
    geometric = 1
    while geometric < min(spread, count - 1):
        picks.add(geometric)
        geometric *= 2
    if len(picks) >= count:
        return None
    return lattice_plan(total, interval.window, sorted(picks), interval.warmup)


def estimate_interval(
    workload: PreparedWorkload,
    config: MachineConfig,
    interval: IntervalConfig,
    plan: SamplePlan,
    run: WindowRun,
) -> SimResult:
    """The interval tier's result: the shared estimate, its stated error
    bound, and (without an observer) the model CPI stack."""
    covariates = _unit_covariates(workload, plan.units)
    result, predicted_cycles = greg_estimate(
        workload, config, "interval", plan, run, covariates
    )
    cpis = run.cpis
    # Stated bound: the configured floor, widened by whichever is worse —
    # the sampling-theory stderr (random window-to-window noise) or the
    # leave-one-out cross-validation error (which also sees systematic
    # bias the residual spread hides, e.g. phase drift between the
    # calibration windows).  The bound can widen, never silently narrow.
    stated_bound = max(
        interval.error_bound_pct,
        100.0 * 1.96 * result.cycles_stderr / result.cycles,
    )
    cv_error = _cv_relative_error(plan.chosen, cpis, covariates)
    extrapolated_fraction = predicted_cycles / result.cycles
    stated_bound = max(stated_bound, 100.0 * cv_error * extrapolated_fraction)

    result.extra["interval_windows"] = float(len(cpis))
    result.extra["interval_window"] = float(interval.window)
    result.extra["interval_warmup"] = float(interval.warmup)
    result.extra["interval_seed"] = float(interval.seed)
    result.extra["interval_error_bound_pct"] = stated_bound
    result.extra["interval_measured_cycles"] = float(run.cycles)
    result.extra["interval_warmup_cycles"] = float(run.warmup_cycles)
    result.extra["sample_detail_fraction"] = (
        result.sample_detail_instructions / result.instructions
    )
    if run.cpi is None and len(cpis) > len(covariates[0]) + 1:
        result.cpi_stack = _model_cpi_stack(
            plan.units, plan.chosen, cpis, covariates, result.cycles
        )
    return result


def simulate_interval(
    workload: PreparedWorkload,
    config: MachineConfig,
    interval: Optional[IntervalConfig] = None,
    max_cycles: int = MAX_CYCLES,
    validation=None,
    observe=None,
) -> SimResult:
    """:func:`~repro.sim.run.simulate` on the interval tier."""
    return simulate(
        workload, config, max_cycles=max_cycles, validation=validation,
        observe=observe, fidelity="interval", interval=interval,
    )


def _cv_relative_error(
    chosen,
    cpis: List[float],
    covariates,
) -> float:
    """Leave-one-out RMS relative CPI error of the estimator.

    Re-predicts each calibration window from the remaining ones with the
    same model-plus-residual-interpolation machinery the real estimate
    uses.  Unlike the residual spread around the fitted model, this sees
    systematic prediction bias (a model refit without a window must
    still predict it).  The returned bound component is
    ``|mean error| + 1.96 * stderr(mean)``: the bias term does not
    average out over predicted units, while the random part shrinks
    with the window count like the total estimate does.
    """
    count = len(cpis)
    if count < 3:
        return 0.0
    errors = []
    for leave in range(count):
        keep = [j for j in range(count) if j != leave]
        predict, _, _ = _fit_model(
            [chosen[j] for j in keep], [cpis[j] for j in keep], covariates
        )
        actual = cpis[leave]
        if actual > 0:
            errors.append((predict(chosen[leave]) - actual) / actual)
    if len(errors) < 2:
        return 0.0
    n = len(errors)
    mean = math.fsum(errors) / n
    variance = math.fsum((e - mean) ** 2 for e in errors) / (n - 1)
    return abs(mean) + 1.96 * math.sqrt(variance / n)


def _model_cpi_stack(
    units,
    chosen,
    cpis,
    covariates,
    estimated_cycles: int,
) -> Dict[str, float]:
    """CPI stack from the fitted coefficients, summing to the estimate.

    Each coefficient prices one phase-one event class per instruction,
    so ``beta_j * total_covariate_mass_j`` is that cause's cycle share:
    intercept → ``base``, excess load latency → ``memory``, mispredicts
    → ``branch_flush``, fetch penalty → ``fetch_limited``.  The
    attribution refits on the first four (interpretable) columns only:
    the analytic proxy-CPI column mixes base, memory, and front-end
    cycles by construction, so pricing it into a single cause would
    misattribute — the estimator keeps it for accuracy, the stack drops
    it for attribution.  Negative fitted shares clamp to zero and the
    unexplained remainder folds into ``base``, so the stack always sums
    to ``cycles`` like an observed one (see repro.obs.cpi).
    """
    from ..obs.cpi import empty_stack

    named = [row[:4] for row in covariates]
    beta = _fit_ridge([named[index] for index in chosen], cpis)
    mass = [0.0] * len(beta)
    for (start, end), row in zip(units, named):
        span = end - start
        for j, value in enumerate(row):
            mass[j] += value * span
    stack = empty_stack()
    stack["memory"] = max(0.0, beta[1] * mass[1])
    stack["branch_flush"] = max(0.0, beta[2] * mass[2])
    stack["fetch_limited"] = max(0.0, beta[3] * mass[3])
    explained = stack["memory"] + stack["branch_flush"] + stack["fetch_limited"]
    if explained > estimated_cycles:
        scale = estimated_cycles / explained
        for cause in ("memory", "branch_flush", "fetch_limited"):
            stack[cause] *= scale
        explained = float(estimated_cycles)
    stack["base"] = estimated_cycles - explained
    return stack
