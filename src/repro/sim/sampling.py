"""The sampled fidelity tier, and the window driver and estimator it
shares with the interval tier.

Both estimating tiers run the same way (see :func:`repro.sim.run.run_tier`):
a planner picks which trace units to simulate in detail, one
:func:`drive_windows` runs the ordinary :class:`~repro.sim.core.TimingCore`
over those windows (warmup, then measurement) and fast-forwards the gaps,
and one model-assisted estimator extrapolates the unmeasured units.  The
tiers differ only in their plan and in what they publish on top of the
estimate.

The sampled tier's plan (:func:`plan_windows`) measures every
``stride``-th unit, starting at ``seed % stride``.  It is anchor-aware:
the synthetic benchmarks are outer loops over inner-loop regions, so
per-unit CPI is periodic in the outer-iteration length and a fixed
lattice aliases against it (errors up to 25% on the quick suite).  The
planner detects the outer-iteration anchors (recurrences of the most
evenly spaced basic block) and snaps units to them:

* the **cold prefix** through the first iteration is always measured — it
  runs against cold phase-one caches and has an unrepresentative CPI;
* the **tail** from the last anchor is always measured — it contains the
  epilogue and the final pipeline drain;
* the **middle iterations** are sampled systematically, each warmed up
  across the entire preceding iteration so the measured window enters in
  steady-state occupancy.

A trace with no detectable outer loop falls back to a fixed lattice of
``interval``-instruction units warmed up over ``warmup`` instructions.

Skipping is safe because phase one (:mod:`repro.sim.workload`) fixed
branch outcomes and cache latencies per dynamic instruction, independent
of the machine: a detailed window only has to rebuild pipeline occupancy,
which its warmup restores.  Adjacent windows run as one continuous
detailed run (draining between them biased early-window CPI by up to
+14%), which is bit-exact against a full run over the same span.

The estimator (GREG-style) fits a ridge CPI model on the measured units
against free phase-one covariates (load-miss excess, mispredict rate,
fetch-miss extra, and an analytic proxy-pipeline CPI), predicts each
skipped unit as the model plus the interpolated residual of its measured
neighbours, clamped to the measured CPI range, and reports a
finite-population-corrected standard error.  Sampling is systematic, not
random, so a fixed :class:`SamplingConfig` gives bit-identical results.

Knobs: ``--sample`` on ``python -m repro.harness`` or ``REPRO_SAMPLE``
(``1``/``on`` for defaults, or e.g. ``stride=7,seed=1``).  Exact mode
remains the default everywhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .config import MachineConfig
from .results import SimResult, StallCounters
from .run import MAX_CYCLES
from .workload import PreparedWorkload

_ENV_SAMPLE = "REPRO_SAMPLE"

#: Plans with fewer than this many *sampled* windows fall back to exact
#: simulation: extrapolating from a single window has no error estimate
#: and no meaningful speedup.
MIN_SAMPLED_INTERVALS = 2

#: Anchor detection needs at least this many outer iterations to pay for
#: the always-measured cold and tail strata.
_MIN_ANCHORS = 8

#: Recurrences whose spacing varies more than this ratio are blocks inside
#: data-dependent control flow, not outer-iteration anchors.
_MAX_GAP_RATIO = 4.0


def parse_spec(
    text: str, what: str, keys: Dict[str, Callable[[str], float]]
) -> Dict[str, float]:
    """Parse a ``key=value,...`` tier spec into converted values.

    ``keys`` maps each accepted key to its converter (``int`` or
    ``float``).  Empty text and the spellings ``1``/``on``/``true``/
    ``default`` give ``{}`` (the defaults).  Unknown keys, repeated keys
    (the second value would silently win) and values the converter
    rejects raise :class:`ValueError` naming the key.
    """
    text = text.strip()
    if not text or text.lower() in ("1", "on", "true", "default"):
        return {}
    names = "/".join(keys)
    values: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, equals, raw = part.partition("=")
        key, raw = key.strip(), raw.strip()
        if not equals:
            raise ValueError(
                f"bad {what} spec {text!r}: expected key=value pairs "
                f"({names}), got {part!r}"
            )
        if key not in keys:
            raise ValueError(
                f"bad {what} spec {text!r}: unknown key {key!r} "
                f"(expected {names})"
            )
        if key in values:
            raise ValueError(
                f"bad {what} spec {text!r}: duplicate key {key!r} "
                f"(the second value would silently win)"
            )
        convert = keys[key]
        try:
            values[key] = convert(raw)
        except ValueError:
            kind = "a number" if convert is float else "an integer"
            raise ValueError(
                f"bad {what} spec {text!r}: {key} must be {kind}, "
                f"got {raw!r}"
            ) from None
    return values


@dataclass(frozen=True)
class SamplingConfig:
    """Systematic-sampling parameters.

    Every ``stride``-th interval is simulated in detail, starting from the
    ``seed % stride``-th; varying ``seed`` moves the sample placement for
    cross-validation without losing determinism.  ``interval`` and
    ``warmup`` size the measured and warmup windows on traces with no
    outer-loop anchors (anchor-aligned windows size themselves to the
    iteration length and warm up across the full preceding iteration).

    The default stride is odd on purpose: several benchmarks alternate
    between two per-iteration behaviours (data-dependent diamonds), and an
    even stride would sample only one phase of that alternation.
    """

    interval: int = 500
    stride: int = 5
    warmup: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError(f"sampling interval must be >= 1, got {self.interval}")
        if self.stride < 2:
            raise ValueError(
                f"sampling stride must be >= 2 (1 would measure everything), "
                f"got {self.stride}"
            )
        if self.warmup < 0:
            raise ValueError(f"sampling warmup must be >= 0, got {self.warmup}")
        if self.seed < 0:
            raise ValueError(f"sampling seed must be >= 0, got {self.seed}")

    def cache_token(self) -> Tuple[int, int, int, int]:
        """Hashable identity for cache keys and worker specs."""
        return (self.interval, self.stride, self.warmup, self.seed)

    def spec(self) -> str:
        """Round-trippable textual form (the ``--sample`` argument)."""
        return (
            f"interval={self.interval},stride={self.stride},"
            f"warmup={self.warmup},seed={self.seed}"
        )

    @classmethod
    def parse(cls, text: str) -> "SamplingConfig":
        """Parse ``interval=500,stride=5,warmup=512,seed=0`` (all optional)."""
        keys = dict.fromkeys(("interval", "stride", "warmup", "seed"), int)
        return cls(**parse_spec(text, "sampling", keys))


def sampling_from_env() -> Optional[SamplingConfig]:
    """Resolve ``REPRO_SAMPLE``: unset/``0``/``off`` means exact mode."""
    value = os.environ.get(_ENV_SAMPLE, "").strip()
    if not value or value.lower() in ("0", "off", "false", "no", "none", "exact"):
        return None
    return SamplingConfig.parse(value)


def detect_anchors(trace: Sequence) -> Optional[List[int]]:
    """Outer-iteration start positions, from basic-block recurrences.

    The generated benchmarks are an outer loop over inner regions, so the
    outer-loop head block recurs once per iteration at near-even spacing.
    Scans every block's occurrence list and returns the most evenly spaced
    one covering the trace, or ``None`` when nothing loops (straight-line
    kernels, tiny traces) — callers then fall back to the fixed lattice.
    """
    positions: Dict[int, List[int]] = {}
    for index, dyn in enumerate(trace):
        positions.setdefault(dyn.block, []).append(index)
    total = len(trace)
    best: Optional[Tuple[Tuple[float, int], List[int]]] = None
    for occurrences in positions.values():
        if len(occurrences) < _MIN_ANCHORS:
            continue
        if occurrences[-1] - occurrences[0] < total // 2:
            continue
        gaps = [b - a for a, b in zip(occurrences, occurrences[1:])]
        smallest = min(gaps)
        if smallest <= 0:
            continue
        evenness = max(gaps) / smallest
        score = (evenness, -len(occurrences))
        if best is None or score < best[0]:
            best = (score, occurrences)
    if best is None or best[0][0] > _MAX_GAP_RATIO:
        return None
    return best[1]


@dataclass(frozen=True)
class SamplePlan:
    """Where to simulate in detail, and how to extrapolate the rest.

    Both estimating tiers plan into this shape.  The trace is split into
    ``certain`` windows (the sampled tier's cold prefix and tail —
    measured and counted exactly) and extrapolation ``units``; the
    ``chosen`` units are measured in detail and the others predicted by
    the estimator.  All index pairs are ``[start, end)`` trace
    positions; each chosen unit's measured window is preceded by warmup
    detail starting at ``detail_starts[i]``.
    """

    #: (detail_start, measure_start, measure_end) — exact-weighted strata
    certain: Tuple[Tuple[int, int, int], ...]
    #: every extrapolation unit as (start, end), covering the middle
    units: Tuple[Tuple[int, int], ...]
    #: indices into ``units`` measured in detail (ascending)
    chosen: Tuple[int, ...]
    #: per-chosen-unit detail start (warmup begins here)
    detail_starts: Tuple[int, ...]
    anchored: bool

    @property
    def estimated_span(self) -> int:
        """Instructions covered by extrapolation units."""
        return sum(end - start for start, end in self.units)


def plan_windows(
    trace: Sequence, sampling: SamplingConfig
) -> Optional[SamplePlan]:
    """Build the detailed-simulation plan for ``trace``.

    Returns ``None`` when the trace is too short to sample meaningfully
    (fewer than :data:`MIN_SAMPLED_INTERVALS` sampled windows) — the
    caller should fall back to exact simulation.
    """
    total = len(trace)
    anchors = detect_anchors(trace)
    if anchors is not None:
        plan = _plan_anchored(total, anchors, sampling)
        if plan is not None:
            return plan
    return _plan_lattice(total, sampling)


def _plan_anchored(
    total: int, anchors: List[int], sampling: SamplingConfig
) -> Optional[SamplePlan]:
    bounds = list(anchors)
    if bounds[0] != 0:
        # The prologue before the first anchor joins the cold stratum.
        bounds[0] = 0
    iterations = list(zip(bounds, bounds[1:] + [total]))
    if len(iterations) < _MIN_ANCHORS:
        return None
    cold_end = iterations[0][1]
    tail_start = iterations[-1][0]
    middle = iterations[1:-1]
    # Pair consecutive iterations into one extrapolation unit: several
    # benchmarks alternate between two per-iteration behaviours
    # (data-dependent diamonds flip each outer pass), and pairing
    # integrates the alternation out so the per-unit CPI varies smoothly
    # and the interpolating estimator can track it.  A leftover odd
    # iteration joins the final unit.
    units: List[Tuple[int, int]] = []
    for index in range(0, len(middle) - 1, 2):
        units.append((middle[index][0], middle[index + 1][1]))
    if len(middle) % 2:
        if units:
            units[-1] = (units[-1][0], middle[-1][1])
        else:
            units.append(middle[-1])
    first = sampling.seed % sampling.stride
    picks = set(range(first, len(units), sampling.stride))
    # Geometric early coverage: phase-one cache warming concentrates CPI
    # drift (and its curvature) in the first iterations, where a uniform
    # stride under-samples; sample units 0,1,2,4,... densely until the
    # systematic stride takes over.
    geometric = 1
    while geometric < min(2 * sampling.stride, len(units)):
        picks.add(geometric - 1)
        picks.add(geometric)
        geometric *= 2
    chosen = sorted(index for index in picks if index < len(units))
    if len(chosen) < MIN_SAMPLED_INTERVALS:
        return None
    # Warm up across the entire iteration preceding the unit (it exists
    # for every middle unit and for the tail): a short fixed warmup
    # reproduces iteration-after-cold-start behaviour, not steady state,
    # which biased measured IPC by up to 2.5% on the quick suite.
    prev_iter_start = {later: earlier for earlier, later in zip(bounds, bounds[1:])}
    detail_starts = []
    previous_end = cold_end
    for index in chosen:
        start = units[index][0]
        prev_start = prev_iter_start.get(start, cold_end)
        detail_starts.append(
            max(previous_end, min(prev_start, start - sampling.warmup))
        )
        previous_end = units[index][1]
    tail_detail = max(
        previous_end, min(iterations[-2][0], tail_start - sampling.warmup)
    )
    certain = (
        (0, 0, cold_end),
        (tail_detail, tail_start, total),
    )
    return SamplePlan(
        certain=certain,
        units=tuple(units),
        chosen=tuple(chosen),
        detail_starts=tuple(detail_starts),
        anchored=True,
    )


def _plan_lattice(total: int, sampling: SamplingConfig) -> Optional[SamplePlan]:
    # The trailing partial unit (if any) is never sampled: it is
    # predicted from its nearest measured neighbour like any skipped unit.
    first = sampling.seed % sampling.stride
    chosen = range(first, total // sampling.interval, sampling.stride)
    if len(chosen) < MIN_SAMPLED_INTERVALS:
        return None
    return lattice_plan(total, sampling.interval, chosen, sampling.warmup)


def lattice_plan(
    total: int, span: int, chosen: Sequence[int], warmup: int
) -> SamplePlan:
    """A plan over a fixed lattice of ``span``-instruction units.

    The lattice covers the trace (a trailing partial unit included);
    ``chosen`` (ascending unit indices) are measured, each warmed up over
    at most ``warmup`` instructions, clamped so a warmup never reaches
    back into the previous measured window.
    """
    full = total // span
    units = [(i * span, (i + 1) * span) for i in range(full)]
    if full * span < total:
        units.append((full * span, total))
    detail_starts = []
    previous_end = 0
    for index in chosen:
        start, end = units[index]
        detail_starts.append(max(previous_end, start - warmup))
        previous_end = end
    return SamplePlan(
        certain=(),
        units=tuple(units),
        chosen=tuple(chosen),
        detail_starts=tuple(detail_starts),
        anchored=False,
    )


#: regression covariates per unit: intercept, excess load latency per
#: instruction, mispredict rate, instruction-fetch extra per instruction,
#: and the analytic proxy-pipeline CPI (see :func:`_analytic_retire`)
_NUM_COVARIATES = 5

#: proxy-pipeline parameters for the analytic retirement walk, fixed at
#: the default 8-wide machine (``ooo_config(8)``): in-flight window
#: (ROB) reach, fetch width, and minimum misprediction penalty
#: (depth 8 + redirect 13 + 2).  The walk is a *covariate*, not an
#: estimate — the per-config ridge fit calibrates its scale — so one
#: fixed proxy serves every sweep point and keeps the column
#: config-invariant and shareable.
_PROXY_ROB = 256
_PROXY_WIDTH = 8
_PROXY_REFILL = 23


def _analytic_retire(workload: PreparedWorkload) -> List[float]:
    """Analytic retirement-time curve of the proxy pipeline, per position.

    A single O(trace) dataflow walk in the interval-analysis tradition
    (the paper's own analysis machinery): each instruction becomes ready
    at the max of its producers' completion times and its front-end
    availability, completes after its phase-one latency, and retires in
    order; fetch is gated by the in-flight window (an instruction cannot
    fetch before the one ``_PROXY_ROB`` positions earlier retired) and
    restarts ``_PROXY_REFILL`` cycles after a mispredicted branch
    resolves.  ``curve[i]`` is the retirement time of position ``i``, so
    per-unit slopes are analytic CPIs.

    This prices exactly the interaction the per-rate covariates cannot
    see: whether a unit's cache misses overlap (independent misses
    inside one window reach) or serialize (each miss's consumers gate
    the window so the next miss cannot enter until the previous
    retires).  mcf alternates between those regimes with *identical*
    per-unit miss counts, latencies and dependence shapes — only the
    window-reach walk separates them.
    """
    replay = workload.replay()
    cached = replay.analytic_retire
    if cached is not None:
        return cached
    deps = replay.deps
    load_latency = replay.load_latency
    ifetch_extra = replay.ifetch_extra
    mispredicted = workload.mispredicted
    trace = workload.trace
    n = len(trace)
    done = [0.0] * n
    retire = [0.0] * n
    fetch_clock = 0.0
    step = 1.0 / _PROXY_WIDTH
    for i in range(n):
        fetch_clock += step
        available = fetch_clock
        extra = ifetch_extra[i]
        if extra:
            available += extra
        if i >= _PROXY_ROB:
            gate = retire[i - _PROXY_ROB]
            if gate > available:
                available = gate
        ready = available
        for producer, _internal in deps[i]:
            produced = done[producer]
            if produced > ready:
                ready = produced
        latency = load_latency[i]
        done[i] = ready + (latency if latency is not None else 1)
        previous = retire[i - 1] if i else 0.0
        retire[i] = previous if done[i] <= previous else done[i]
        dyn = trace[i]
        if dyn.is_branch and dyn.seq in mispredicted:
            resume = done[i] + _PROXY_REFILL
            if resume > fetch_clock:
                fetch_clock = resume
    replay.analytic_retire = retire
    return retire


def _unit_covariates(
    workload: PreparedWorkload, units: Sequence[Tuple[int, int]]
) -> List[Tuple[float, ...]]:
    """Phase-one CPI drivers for every unit, free to compute.

    The functional phase already fixed each load's cache latency, every
    branch outcome, and the fetch-side penalty per instruction, so the
    dominant per-unit CPI drivers are known without any timing
    simulation.  Expressed as per-instruction rates they become the
    covariate row ``(1, load_excess, mispredicts, ifetch_extra,
    analytic_cpi)`` of a linear CPI model fitted to the measured units.

    The first three event columns price *how much* each event class a
    window carries; the analytic column prices how the events
    *interact*.  Per-unit slopes of the :func:`_analytic_retire` curve
    capture miss overlap versus serialization through the in-flight
    window — the dominant CPI degree of freedom on memory-bound traces
    (mcf), where windows with identical event rates differ by 2x in
    CPI depending on whether their misses fit in one window reach.
    """
    load_latency = workload.load_latency
    mispredicted = workload.mispredicted
    ifetch_extra = workload.ifetch_extra
    analytic = _analytic_retire(workload)
    rows = []
    for start, end in units:
        span = end - start
        load_excess = 0
        mispredicts = 0
        fetch_extra = 0
        for dyn in workload.trace[start:end]:
            if dyn.is_load:
                load_excess += max(0, load_latency.get(dyn.seq, 0) - 1)
            if dyn.is_branch and dyn.seq in mispredicted:
                mispredicts += 1
            fetch_extra += ifetch_extra.get(dyn.seq, 0)
        analytic_base = analytic[start - 1] if start else 0.0
        rows.append((
            1.0,
            load_excess / span,
            mispredicts / span,
            fetch_extra / span,
            (analytic[end - 1] - analytic_base) / span,
        ))
    return rows


def _fit_ridge(
    rows: Sequence[Tuple[float, ...]], targets: Sequence[float]
) -> List[float]:
    """Least-squares fit of ``targets ~ rows`` with a tiny ridge term.

    The ridge term keeps the normal equations solvable when a covariate
    is constant across the sampled units (swim has no mispredicts, some
    traces no fetch penalty) — the degenerate coefficient just shrinks
    to zero instead of blowing up the solve.
    """
    k = len(rows[0])
    gram = [
        [math.fsum(row[a] * row[b] for row in rows) for b in range(k)]
        for a in range(k)
    ]
    rhs = [
        math.fsum(row[a] * y for row, y in zip(rows, targets)) for a in range(k)
    ]
    for c in range(k):
        gram[c][c] += 1e-6 * (gram[c][c] + 1.0)
    for c in range(k):
        pivot = max(range(c, k), key=lambda r: abs(gram[r][c]))
        gram[c], gram[pivot] = gram[pivot], gram[c]
        rhs[c], rhs[pivot] = rhs[pivot], rhs[c]
        for r in range(c + 1, k):
            factor = gram[r][c] / gram[c][c]
            for cc in range(c, k):
                gram[r][cc] -= factor * gram[c][cc]
            rhs[r] -= factor * rhs[c]
    beta = [0.0] * k
    for r in range(k - 1, -1, -1):
        beta[r] = (
            rhs[r] - math.fsum(gram[r][c] * beta[c] for c in range(r + 1, k))
        ) / gram[r][r]
    return beta


def _interp_at(chosen: Sequence[int], values: Sequence[float], index: int) -> float:
    """Piecewise-linear interpolation of ``values`` (keyed by ``chosen``
    unit indices) at ``index``, clamped to the nearest measurement
    outside the sampled range."""
    if index <= chosen[0]:
        return values[0]
    if index >= chosen[-1]:
        return values[-1]
    position = 1
    while chosen[position] < index:
        position += 1
    left, right = chosen[position - 1], chosen[position]
    weight = (index - left) / (right - left)
    return values[position - 1] * (1 - weight) + values[position] * weight


def _fit_model(
    chosen: Sequence[int],
    cpis: Sequence[float],
    covariates: Sequence[Tuple[float, ...]],
) -> Tuple[Callable[[int], float], List[float], int]:
    """Fit the per-unit CPI model on the measured units.

    Model-assisted (GREG-style): with enough samples, a ridge fit of the
    measured CPIs against the units' phase-one covariates; with too few,
    the mean ratio against the load-latency floor (covariate column 1).
    The model explains the config-dependent cost of the known events (a
    mispredict costs a refill, a miss costs its latency); the residual
    interpolation tracks whatever drift it misses.

    Returns ``(predict, residuals, dof)``: ``predict(index)`` is unit
    ``index``'s model CPI plus the piecewise-linearly interpolated
    residual of its measured neighbours, clamped to half the smallest
    and twice the largest measured CPI; ``residuals`` are the measured
    units' deviations from the model (the noise that limits accuracy);
    ``dof`` is the parameter count the fit consumed.
    """
    if len(chosen) > _NUM_COVARIATES + 1:
        beta = _fit_ridge([covariates[index] for index in chosen], cpis)

        def model(index: int) -> float:
            return math.fsum(b * x for b, x in zip(beta, covariates[index]))

        dof = _NUM_COVARIATES
    else:
        rho = math.fsum(
            cpi / (1.0 + covariates[index][1])
            for cpi, index in zip(cpis, chosen)
        ) / len(chosen)

        def model(index: int) -> float:
            return rho * (1.0 + covariates[index][1])

        dof = 1
    residuals = [cpi - model(index) for cpi, index in zip(cpis, chosen)]
    low = min(cpis) * 0.5
    high = max(cpis) * 2.0

    def predict(index: int) -> float:
        predicted = model(index) + _interp_at(chosen, residuals, index)
        return min(high, max(low, predicted))

    return predict, residuals, dof


def _predict_unsampled(
    units: Sequence[Tuple[int, int]],
    chosen: Sequence[int],
    cpis: Sequence[float],
    covariates: Sequence[Tuple[float, ...]],
) -> Tuple[float, List[float], int]:
    """Predicted total cycles over every *unsampled* unit, plus the
    fit's ``residuals`` and ``dof`` (see :func:`_fit_model`)."""
    predict, residuals, dof = _fit_model(chosen, cpis, covariates)
    cycles = 0.0
    position = 0
    for index, (start, end) in enumerate(units):
        if position < len(chosen) and chosen[position] == index:
            position += 1
            continue
        cycles += predict(index) * (end - start)
    return cycles, residuals, dof


def _stderr_cpi(
    residuals: Sequence[float], weights: Sequence[int], dof: int,
    population: int,
) -> float:
    """Standard error of the mean per-instruction CPI of the skipped units.

    From the measured units' (instruction-weighted) deviations around the
    fitted model, with a finite-population correction over
    ``population`` units.  The residual interpolation tracks part of
    that spread too, so the estimate is conservative.
    """
    count = len(residuals)
    mean_weight = sum(weights) / count
    variance = math.fsum(
        (weight / mean_weight) ** 2 * residual ** 2
        for residual, weight in zip(residuals, weights)
    ) / max(1, count - dof)
    fpc = 1.0
    if population > count:
        fpc = 1.0 - count / population
    return math.sqrt(max(0.0, variance * fpc) / count)


@dataclass
class WindowRun:
    """What :func:`drive_windows` measured."""

    #: ``(cycles, instructions)`` of each chosen unit's measured window,
    #: in ``plan.chosen`` order
    units: List[Tuple[int, int]]
    #: totals over every measured window, ``certain`` ones included
    cycles: int
    instructions: int
    #: totals over the warmup ahead of each measured window
    warmup_cycles: int
    warmup_instructions: int
    #: stall counters and issued count over the measured windows
    stalls: Dict[str, int]
    issued: int
    #: observer CPI slots over the measured windows (None: no observer)
    cpi: Optional[Dict[str, float]]

    @property
    def cpis(self) -> List[float]:
        return [cycles / insts for cycles, insts in self.units]


def drive_windows(
    core, plan: SamplePlan, observe=None, max_cycles: int = MAX_CYCLES
) -> WindowRun:
    """Run ``core`` through ``plan``'s detailed windows, in trace order.

    One core instance and one monotonic cycle clock: each window runs
    its warmup, then its measured span, and the gap before the next
    window is skipped by draining the pipeline and fast-forwarding the
    trace cursor.  Counters (stalls, issued, the observer's CPI slots)
    are snapshot-diffed around each measured span, so warmup, drain and
    fast-forward cycles are excluded.
    """
    windows = sorted(
        [(window, False) for window in plan.certain]
        + [
            ((plan.detail_starts[i], *plan.units[index]), True)
            for i, index in enumerate(plan.chosen)
        ]
    )
    # Adjacent windows (next detail start == this measure end) form one
    # continuous detailed run: draining the pipeline between them would
    # charge the second window a cold restart it never has in the exact
    # run (measured at +9-14% CPI on early gcc units).  Hold the fetch
    # limit at the end of the whole adjacent run and only drain when a
    # gap is actually skipped; per-window boundary readings inside a run
    # then match continuous execution exactly.
    adjacent = [False] + [
        windows[k][0][0] == windows[k - 1][0][2] for k in range(1, len(windows))
    ]
    fetch_limits = [window[0][2] for window in windows]
    for k in range(len(windows) - 2, -1, -1):
        if adjacent[k + 1]:
            fetch_limits[k] = fetch_limits[k + 1]
    units: List[Tuple[int, int]] = []
    cycle = 0
    measured_cycles = 0
    measured_instructions = 0
    warmup_cycles = 0
    warmup_instructions = 0
    measured_stalls = {name: 0 for name in core.stalls.as_dict()}
    measured_issued = 0
    measured_cpi = (
        None if observe is None
        else {cause: 0.0 for cause in observe.cpi_totals()}
    )
    origin = 0
    for k, ((detail_start, measure_start, measure_end), sampled) in enumerate(
        windows
    ):
        if not adjacent[k]:
            if core._next_fetch != detail_start:
                cycle = core.drain_in_flight(cycle)
                core.fast_forward(detail_start, cycle)
                if observe is not None:
                    # Drain/fast-forward mutated state outside hooked
                    # execution; realign snapshots at the window start.
                    observe.skip_to(cycle)
            # Retirement can overshoot a target by up to the retire width,
            # so targets must be absolute trace positions, not deltas from
            # the observed retired count.
            origin = core._retired_count - detail_start
        core._fetch_limit = fetch_limits[k]
        window_start = cycle
        cycle = core._run_until(origin + measure_start, cycle, max_cycles)
        warm_cycle = cycle
        warm_stalls = core.stalls.as_dict()
        warm_issued = core._issued_count
        warm_cpi = None if observe is None else observe.cpi_totals()
        cycle = core._run_until(origin + measure_end, cycle, max_cycles)
        window_cycles = cycle - warm_cycle
        window_insts = measure_end - measure_start
        if sampled:
            units.append((window_cycles, window_insts))
        measured_cycles += window_cycles
        measured_instructions += window_insts
        warmup_cycles += warm_cycle - window_start
        warmup_instructions += measure_start - detail_start
        for name, value in core.stalls.as_dict().items():
            measured_stalls[name] += value - warm_stalls[name]
        measured_issued += core._issued_count - warm_issued
        if observe is not None:
            for cause, value in observe.cpi_totals().items():
                measured_cpi[cause] += value - warm_cpi[cause]
    core.drain_in_flight(cycle)
    return WindowRun(
        units=units,
        cycles=measured_cycles,
        instructions=measured_instructions,
        warmup_cycles=warmup_cycles,
        warmup_instructions=warmup_instructions,
        stalls=measured_stalls,
        issued=measured_issued,
        cpi=measured_cpi,
    )


def greg_estimate(
    workload: PreparedWorkload,
    config: MachineConfig,
    fidelity: str,
    plan: SamplePlan,
    run: WindowRun,
    covariates: Sequence[Tuple[float, ...]],
) -> Tuple[SimResult, float]:
    """The whole-trace estimate both tiers report.

    ``cycles`` adds every measured window to the model-assisted
    prediction over the skipped units, with the prediction's standard
    error in ``cycles_stderr``; ``issued``/``stalls`` cover the measured
    windows only.  Returns the result and the predicted cycles.
    """
    weights = [insts for _, insts in run.units]
    predicted_cycles, residuals, dof = _predict_unsampled(
        plan.units, plan.chosen, run.cpis, covariates
    )
    stderr_cpi = _stderr_cpi(residuals, weights, dof, len(plan.units))
    result = SimResult(
        benchmark=workload.name,
        machine=config.name,
        cycles=max(1, run.cycles + round(predicted_cycles)),
        instructions=len(workload.trace),
        branches=workload.stats.branches,
        mispredicts=len(workload.mispredicted),
        issued=run.issued,
        stalls=StallCounters(**run.stalls),
        sampled=True,
        fidelity=fidelity,
        sample_intervals=len(weights),
        sample_measured_instructions=run.instructions,
        sample_detail_instructions=run.instructions + run.warmup_instructions,
        cycles_stderr=stderr_cpi * (plan.estimated_span - sum(weights)),
    )
    return result, predicted_cycles


def estimate_sampled(
    workload: PreparedWorkload,
    config: MachineConfig,
    sampling: SamplingConfig,
    plan: SamplePlan,
    run: WindowRun,
) -> SimResult:
    """The sampled tier's result: the shared estimate plus its plan."""
    covariates = _unit_covariates(workload, plan.units)
    result, _ = greg_estimate(workload, config, "sampled", plan, run, covariates)
    result.extra["sample_interval"] = float(sampling.interval)
    result.extra["sample_stride"] = float(sampling.stride)
    result.extra["sample_warmup"] = float(sampling.warmup)
    result.extra["sample_seed"] = float(sampling.seed)
    result.extra["sample_anchored"] = 1.0 if plan.anchored else 0.0
    result.extra["sample_measured_cycles"] = float(run.cycles)
    result.extra["sample_warmup_cycles"] = float(run.warmup_cycles)
    result.extra["sample_warmup_instructions"] = float(run.warmup_instructions)
    result.extra["sample_detail_fraction"] = (
        result.sample_detail_instructions / result.instructions
    )
    return result

