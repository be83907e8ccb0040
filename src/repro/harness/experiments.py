"""Experiment definitions: one function per paper table/figure.

Each function returns an :class:`ExperimentResult` whose shape mirrors the
paper's artifact (same series, same normalization).  A timing figure is its
column table — column label → machine config and workload flags — plus one
baseline (a column of the table, or :data:`OOO8` — the paper's 8-wide
out-of-order point); :func:`~repro.harness.sweep.sweep_experiment` builds
the benchmark × column grid, batches every point through
``ExperimentContext.run_many`` (the single place where memoization, the
persistent artifact cache and the worker pool apply) and normalizes.  D1
and A2 add columns the table cannot express around the same machinery;
analysis-only tables (VC, T1-T3) read the compiler and traces directly,
and SV and CS simulate with their own fidelity and observers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Sequence, Tuple

from ..analysis.braidstats import braid_statistics
from ..analysis.values import average_fractions, characterize_values
from ..sim.config import (
    MachineConfig,
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
)
from ..sim.registry import core_registry
from ..uarch.regfile import RegFileSpec
from .context import ExperimentContext
from .reporting import ExperimentResult
from .sweep import Column, SweepPoint, sweep_experiment

#: the paper's universal normalization point: 8-wide out-of-order
OOO8: Column = {"config": ooo_config(8)}


def _braided(config: MachineConfig) -> Column:
    """Column: the braid-translated program on ``config``."""
    return {"config": config, "braided": True}


# ---------------------------------------------------------------------------
# Figure 1 — potential performance at wider issue widths (perfect front end)
# ---------------------------------------------------------------------------
def fig1_width_potential(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 1: OoO speedup at 8/16-wide over 4-wide, perfect front end."""
    return sweep_experiment(
        ctx,
        experiment_id="F1",
        title="speedup of 8/16-wide over 4-wide out-of-order, "
              "perfect branch prediction and caches",
        paper_expectation="average speedup 1.44x at 8-wide, 1.83x at 16-wide",
        columns={f"{width}w": {"config": ooo_config(width), "perfect": True}
                 for width in (4, 8, 16)},
        baseline="4w",
    )


# ---------------------------------------------------------------------------
# Section 1.1 — value fanout and lifetime characterization
# ---------------------------------------------------------------------------
def sec1_value_characterization(ctx: ExperimentContext) -> ExperimentResult:
    """Section 1.1: value fanout and lifetime distributions."""
    result = ExperimentResult(
        experiment_id="VC",
        title="value fanout and lifetime",
        paper_expectation=">70% single-use, ~90% used at most twice, "
                          "~4% unused, ~80% lifetime <= 32 instructions",
        columns=["single", "le2", "unused", "life32"],
    )
    characterizations = []
    for name in ctx.benchmarks:
        chars = characterize_values(
            ctx.program(name), max_instructions=ctx.max_instructions
        )
        characterizations.append(chars)
        result.rows[name] = {
            "single": chars.fraction_single_use,
            "le2": chars.fraction_at_most_two_uses,
            "unused": chars.fraction_unused,
            "life32": chars.fraction_short_lived,
        }
    headline = average_fractions(characterizations)
    result.averages = {
        "single": headline["single_use"],
        "le2": headline["at_most_two_uses"],
        "unused": headline["unused"],
        "life32": headline["lifetime_le_32"],
    }
    return result


# ---------------------------------------------------------------------------
# Tables 1-3 — braid statistics
# ---------------------------------------------------------------------------
def _stats_experiment(
    ctx: ExperimentContext,
    experiment_id: str,
    title: str,
    expectation: str,
    metrics: Sequence[Tuple[str, str, bool]],
) -> ExperimentResult:
    """Shared Tables 1-3 driver: metrics are (column, attr, exclude_singles)."""
    result = ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        paper_expectation=expectation,
        columns=[column for column, _, _ in metrics],
    )
    for name in ctx.benchmarks:
        stats = braid_statistics(ctx.compilation(name), suite=ctx.suite_of(name))
        result.rows[name] = {
            column: getattr(stats, attr)(exclude)
            for column, attr, exclude in metrics
        }
    result.finalize_averages()
    return result


def tab1_braids_per_block(ctx: ExperimentContext) -> ExperimentResult:
    """Table 1: braids per basic block, with/without singles."""
    return _stats_experiment(
        ctx,
        "T1",
        "braids per basic block",
        "int 2.8 (1.1 excluding singles), fp 3.8 (1.5 excluding singles)",
        [
            ("braids/bb", "braids_per_block", False),
            ("excl-single", "braids_per_block", True),
        ],
    )


def tab2_braid_size_width(ctx: ExperimentContext) -> ExperimentResult:
    """Table 2: braid size and width."""
    return _stats_experiment(
        ctx,
        "T2",
        "braid size and width",
        "size int 2.5 (4.7 excl singles) / fp 3.6 (7.6); width ~1.1",
        [
            ("size", "mean_size", False),
            ("size*", "mean_size", True),
            ("width", "mean_width", False),
            ("width*", "mean_width", True),
        ],
    )


def tab3_braid_io(ctx: ExperimentContext) -> ExperimentResult:
    """Table 3: internal values, external inputs/outputs per braid."""
    return _stats_experiment(
        ctx,
        "T3",
        "braid internal values, external inputs/outputs",
        "int internals 1.7 / ext-in 1.7 / ext-out 0.7; "
        "fp internals 3.0 / ext-in 2.2 / ext-out 0.8",
        [
            ("internal", "mean_internals", False),
            ("ext-in", "mean_external_inputs", False),
            ("ext-out", "mean_external_outputs", False),
        ],
    )


# ---------------------------------------------------------------------------
# Figures 5-8 — register file entries and ports, bypass bandwidth
# ---------------------------------------------------------------------------
def fig5_ooo_registers(
    ctx: ExperimentContext, entries: Iterable[int] = (256, 64, 32, 16, 8)
) -> ExperimentResult:
    """Figure 5: out-of-order IPC vs register file entries."""
    ooo = ooo_config(8)
    columns = {
        str(count): {"config": replace(
            ooo, name=f"ooo-8w-rf{count}",
            regfile=replace(ooo.regfile, entries=count),
        )}
        for count in entries
    }
    return sweep_experiment(
        ctx,
        experiment_id="F5",
        title="out-of-order performance vs register file entries",
        paper_expectation="32 entries cost ~8%, 16 entries ~21%",
        columns=columns,
        baseline=next(iter(columns)),
    )


def fig6_braid_ext_registers(
    ctx: ExperimentContext, entries: Iterable[int] = (256, 32, 16, 8, 4, 2, 1)
) -> ExperimentResult:
    """Figure 6: braid IPC vs external register file entries."""
    regfile = braid_config(8).regfile
    columns = {
        str(count): _braided(braid_config(
            8, name=f"braid-8w-ext{count}",
            regfile=replace(regfile, entries=count),
        ))
        for count in entries
    }
    return sweep_experiment(
        ctx,
        experiment_id="F6",
        title="braid performance vs external register file entries",
        paper_expectation="8 entries match a 256-entry file; "
                          "degradation only below 8",
        columns=columns,
        baseline=next(iter(columns)),
    )


def fig7_braid_rf_ports(
    ctx: ExperimentContext,
    ports: Iterable[Tuple[int, int]] = ((16, 8), (8, 4), (6, 3), (4, 2)),
) -> ExperimentResult:
    """Figure 7: braid IPC vs external register file ports."""
    entries = braid_config(8).regfile.entries
    columns = {
        f"{r},{w}": _braided(braid_config(
            8, name=f"braid-8w-p{r}:{w}", regfile=RegFileSpec(entries, r, w),
        ))
        for r, w in ports
    }
    return sweep_experiment(
        ctx,
        experiment_id="F7",
        title="braid performance vs external register file ports (read,write)",
        paper_expectation="6 read / 3 write ports within 0.5% of a full port set",
        columns=columns,
        baseline=next(iter(columns)),
    )


def fig8_braid_bypass(
    ctx: ExperimentContext, widths: Iterable[int] = (8, 4, 2, 1)
) -> ExperimentResult:
    """Figure 8: braid IPC vs bypass paths per cycle."""
    columns = {
        str(width): _braided(braid_config(
            8, name=f"braid-8w-bp{width}", bypass_width=width,
        ))
        for width in widths
    }
    return sweep_experiment(
        ctx,
        experiment_id="F8",
        title="braid performance vs bypass paths per cycle",
        paper_expectation="2 bypass values per cycle within 1% of a full network",
        columns=columns,
        baseline=next(iter(columns)),
    )


# ---------------------------------------------------------------------------
# Figures 9-12 — BEU count, FIFO depth, scheduling window, window == FUs
# ---------------------------------------------------------------------------
def fig9_braid_beus(
    ctx: ExperimentContext, beus: Iterable[int] = (1, 2, 4, 8, 16)
) -> ExperimentResult:
    """Figure 9: braid IPC vs number of BEUs."""
    return sweep_experiment(
        ctx,
        experiment_id="F9",
        title="braid performance vs number of BEUs "
              "(normalized to 8-wide out-of-order)",
        paper_expectation="performance rises with BEU count; more ready braids "
                          "than BEUs",
        columns={
            str(count): _braided(braid_config(
                8, name=f"braid-{count}beu", clusters=count,
            ))
            for count in beus
        },
        baseline=OOO8,
    )


def fig10_braid_fifo(
    ctx: ExperimentContext, entries: Iterable[int] = (4, 8, 16, 32, 64)
) -> ExperimentResult:
    """Figure 10: braid IPC vs FIFO entries per BEU."""
    return sweep_experiment(
        ctx,
        experiment_id="F10",
        title="braid performance vs FIFO entries per BEU "
              "(normalized to 8-wide out-of-order)",
        paper_expectation="32 entries capture almost all performance "
                          "(99% of braids are <= 32 instructions)",
        columns={
            str(count): _braided(braid_config(
                8, name=f"braid-fifo{count}", cluster_entries=count,
            ))
            for count in entries
        },
        baseline=OOO8,
    )


def fig11_braid_window(
    ctx: ExperimentContext, windows: Iterable[int] = (1, 2, 4, 8)
) -> ExperimentResult:
    """Figure 11: braid IPC vs scheduling window size."""
    return sweep_experiment(
        ctx,
        experiment_id="F11",
        title="braid performance vs FIFO scheduling window size "
              "(normalized to 8-wide out-of-order)",
        paper_expectation="steep rise from 1 to 2, plateau beyond 2",
        columns={
            str(window): _braided(braid_config(
                8, name=f"braid-win{window}", beu_window=window,
            ))
            for window in windows
        },
        baseline=OOO8,
    )


def fig12_braid_window_fus(
    ctx: ExperimentContext, sizes: Iterable[int] = (1, 2, 4, 8)
) -> ExperimentResult:
    """Figure 12: braid IPC vs window size == FUs per BEU."""
    return sweep_experiment(
        ctx,
        experiment_id="F12",
        title="braid performance vs window size == functional units per BEU "
              "(normalized to 8-wide out-of-order)",
        paper_expectation="same plateau as Figure 11: braid ILP is ~2",
        columns={
            str(size): _braided(braid_config(
                8, name=f"braid-wf{size}", beu_window=size,
                beu_functional_units=size,
            ))
            for size in sizes
        },
        baseline=OOO8,
    )


# ---------------------------------------------------------------------------
# Figure 13 — four paradigms at three widths
# ---------------------------------------------------------------------------
def fig13_paradigms(
    ctx: ExperimentContext, widths: Iterable[int] = (4, 8, 16)
) -> ExperimentResult:
    """Figure 13: the four paradigms at 4/8/16-wide."""
    columns: Dict[str, Column] = {}
    for width in widths:
        columns[f"io-{width}"] = {"config": inorder_config(width)}
        columns[f"dep-{width}"] = {"config": depsteer_config(width)}
        columns[f"braid-{width}"] = _braided(braid_config(width))
        columns[f"ooo-{width}"] = {"config": ooo_config(width)}
    return sweep_experiment(
        ctx,
        experiment_id="F13",
        title="in-order / dependence-steering / braid / out-of-order IPC, "
              "normalized to 8-wide out-of-order",
        paper_expectation="braid within 9% of 8-wide out-of-order; "
                          "gap closes as width grows; "
                          "ordering in-order < dep < braid < out-of-order",
        columns=columns,
        baseline=OOO8,
    )


# ---------------------------------------------------------------------------
# Figure 14 — equal functional unit resources
# ---------------------------------------------------------------------------
def fig14_equal_fus(ctx: ExperimentContext) -> ExperimentResult:
    """Figure 14: equal-FU braid configurations."""
    return sweep_experiment(
        ctx,
        experiment_id="F14",
        title="equal-FU braid configurations, normalized to the default "
              "(8 BEUs x 2 FUs)",
        paper_expectation="more BEUs with fewer FUs each wins: "
                          "8 BEU x 1 FU > 4 BEU x 2 FU",
        columns={
            "4x2": _braided(braid_config(8, name="braid-4beu-2fu", clusters=4)),
            "8x1": _braided(braid_config(
                8, name="braid-8beu-1fu", beu_functional_units=1,
            )),
            "8x2": _braided(braid_config(8)),
        },
        baseline="8x2",
    )


# ---------------------------------------------------------------------------
# Section 5.1 — pipeline-length discussion (19 vs 23 cycle penalty)
# ---------------------------------------------------------------------------
def disc_pipeline_length(ctx: ExperimentContext) -> ExperimentResult:
    """Section 5.1: gain from the 4-stage-shorter pipeline."""
    long_front = replace(braid_config(8).front_end, depth=8, redirect=13)
    result = sweep_experiment(
        ctx,
        experiment_id="D1",
        title="braid speedup from the 4-stage-shorter pipeline "
              "(19- vs 23-cycle minimum misprediction penalty)",
        paper_expectation="average gain ~2.19%",
        columns={
            "short": _braided(braid_config(8)),
            "long": _braided(braid_config(
                8, name="braid-8w-longpipe", front_end=long_front,
            )),
        },
    )
    # The gain column is a ratio of two raw-IPC columns of the same row.
    result.columns.append("gain")
    for row in result.rows.values():
        row["gain"] = row["short"] / row["long"] if row["long"] else 0.0
    result.finalize_averages()
    return result


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 3)
# ---------------------------------------------------------------------------
def abl_beu_occupancy(ctx: ExperimentContext) -> ExperimentResult:
    """Ablation A1: single braid per BEU vs queued braids."""
    return sweep_experiment(
        ctx,
        experiment_id="A1",
        title="single braid per BEU vs queued braids (normalized to single)",
        paper_expectation="the paper's one-braid-at-a-time rule; queueing "
                          "suffers head-of-line blocking",
        columns={
            "single": _braided(braid_config(8)),
            "queued": _braided(braid_config(
                8, name="braid-8w-queued", beu_queue_braids=True,
            )),
        },
        baseline="single",
    )


def abl_internal_reg_limit(
    ctx: ExperimentContext, limits: Iterable[int] = (4, 8, 16)
) -> ExperimentResult:
    """Ablation A2: internal register limit sweep."""
    limits = tuple(limits)
    result = ExperimentResult(
        experiment_id="A2",
        title="internal register limit: braids broken and performance "
              "(normalized to limit 8)",
        paper_expectation="8 internal registers suffice; breaking affects "
                          "~2% of braids",
        columns=[f"ipc-{k}" for k in limits] + [f"splits-{k}" for k in limits],
    )
    points = {
        (name, limit): SweepPoint(
            name,
            braid_config(8, name=f"braid-8w-int{limit}",
                         internal_regfile=RegFileSpec(limit, 4, 2)),
            braided=True,
            internal_limit=limit,
        )
        for name in ctx.benchmarks
        for limit in limits
    }
    # Batch every timing point up front (splits come from the compiler).
    results = ctx.run_many(list(points.values()))
    for name in ctx.benchmarks:
        base = results[points[name, 8]].ipc if 8 in limits else None
        row: Dict[str, float] = {}
        for limit in limits:
            ipc = results[points[name, limit]].ipc
            row[f"ipc-{limit}"] = ipc / base if base else ipc
            compilation = ctx.compilation(name, internal_limit=limit)
            row[f"splits-{limit}"] = float(
                compilation.report.splits.pressure_splits
            )
        result.rows[name] = row
    result.finalize_averages()
    return result


# ---------------------------------------------------------------------------
# Sampling validation — sampled vs exact IPC on every core kind
# ---------------------------------------------------------------------------
def sampling_validation(ctx: ExperimentContext) -> ExperimentResult:
    """SV: interval-sampled over exact IPC, per (benchmark, core kind).

    Validates the sampling error budget end to end: every cell simulates
    its point twice — exactly and with the context's sampling
    configuration (default :class:`~repro.sim.sampling.SamplingConfig`
    when the context runs another tier) — and reports the IPC ratio.  The
    anchored sample plan needs enough outer-loop iterations to engage
    (``--scale`` >= 2 or so); on shorter traces sampling falls back to
    exact mode and every cell is exactly 1.00.
    """
    from ..sim.run import resolve_tier, simulate

    _, sampling = resolve_tier("sampled", ctx.sampling)
    configs = {
        key: (descriptor.config_factory(8), descriptor.braided)
        for key, descriptor in core_registry().items()
    }
    result = ExperimentResult(
        experiment_id="SV",
        title="sampled / exact IPC ratio per core kind",
        paper_expectation="every point within ±2% of 1.00 at bench scale "
                          "(scale 64, stride 16)",
        columns=list(configs),
    )
    worst = 0.0
    fallbacks = 0
    for name in ctx.benchmarks:
        row: Dict[str, float] = {}
        for label, (config, braided) in configs.items():
            workload = ctx.workload(name, braided=braided)
            exact = simulate(workload, config)
            sampled = simulate(workload, config, sampling=sampling)
            ratio = sampled.ipc / exact.ipc if exact.ipc else 0.0
            worst = max(worst, abs(ratio - 1.0))
            fallbacks += 0 if sampled.sampled else 1
            row[label] = ratio
        result.rows[name] = row
    result.finalize_averages()
    result.notes.append(
        f"max |IPC error| {100 * worst:.2f}% with sampling "
        f"({sampling.spec()})"
    )
    if fallbacks:
        result.notes.append(
            f"{fallbacks} point(s) fell back to exact simulation "
            f"(trace too short for a sample plan)"
        )
    return result


# ---------------------------------------------------------------------------
# CPI stacks — where every cycle goes, per core kind
# ---------------------------------------------------------------------------
def cpi_stack_experiment(ctx: ExperimentContext) -> ExperimentResult:
    """CS: CPI stall-attribution stacks for every (benchmark, core kind).

    Each row is one (benchmark, core) cell decomposed into CPI components
    from the :data:`~repro.obs.cpi.STALL_CAUSES` taxonomy: per-cycle
    retirement-slot accounting charges used slots to ``base`` and every
    empty slot to exactly one cause, so the columns of a row sum to that
    cell's CPI (exactly in exact mode, within rounding for sampled runs).
    The stacked-bar rendering (``--format bars``) makes the paper's core
    comparison visual: the braid core's residual over out-of-order should
    appear as data-dependence and FIFO-structural segments, not as base.
    """
    from ..obs import STALL_CAUSES, Observer
    from ..sim.run import simulate

    configs = {
        key: (descriptor.config_factory(8), descriptor.braided)
        for key, descriptor in core_registry().items()
    }
    result = ExperimentResult(
        experiment_id="CS",
        title="CPI stacks by stall cause (cycles per instruction)",
        paper_expectation="braid residual over ooo concentrates in "
                          "data-dependence and FIFO-structural slots",
        columns=list(STALL_CAUSES),
        stacked=True,
    )
    for name in ctx.benchmarks:
        for label, (config, braided) in configs.items():
            workload = ctx.workload(name, braided=braided)
            observe = Observer(cpi=True)
            cell = simulate(
                workload, config, fidelity=ctx.fidelity,
                sampling=ctx.sampling, interval=ctx.interval,
                observe=observe,
            )
            instructions = cell.instructions or 1
            result.rows[f"{name}/{label}"] = {
                cause: cell.cpi_stack.get(cause, 0.0) / instructions
                for cause in STALL_CAUSES
            }
    result.finalize_averages()
    result.notes.append(
        "each row sums to the cell's CPI; empty retirement slots are "
        "charged to exactly one cause per cycle"
    )
    return result
