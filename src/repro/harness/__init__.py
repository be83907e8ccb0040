"""Experiment harness: regenerate every table and figure of the paper."""

from .artifacts import ArtifactCache, CACHE_FORMAT_VERSION, default_cache_dir
from .context import ExperimentContext
from .sweep import SweepPoint, sweep_experiment
from .experiments import (
    abl_beu_occupancy,
    abl_internal_reg_limit,
    cpi_stack_experiment,
    disc_pipeline_length,
    fig1_width_potential,
    fig5_ooo_registers,
    fig6_braid_ext_registers,
    fig7_braid_rf_ports,
    fig8_braid_bypass,
    fig9_braid_beus,
    fig10_braid_fifo,
    fig11_braid_window,
    fig12_braid_window_fus,
    fig13_paradigms,
    fig14_equal_fus,
    sampling_validation,
    sec1_value_characterization,
    tab1_braids_per_block,
    tab2_braid_size_width,
    tab3_braid_io,
)
from .figures import render_bars, render_series, render_stacked
from .reporting import ExperimentResult

ALL_EXPERIMENTS = {
    "F1": fig1_width_potential,
    "VC": sec1_value_characterization,
    "T1": tab1_braids_per_block,
    "T2": tab2_braid_size_width,
    "T3": tab3_braid_io,
    "F5": fig5_ooo_registers,
    "F6": fig6_braid_ext_registers,
    "F7": fig7_braid_rf_ports,
    "F8": fig8_braid_bypass,
    "F9": fig9_braid_beus,
    "F10": fig10_braid_fifo,
    "F11": fig11_braid_window,
    "F12": fig12_braid_window_fus,
    "F13": fig13_paradigms,
    "F14": fig14_equal_fus,
    "D1": disc_pipeline_length,
    "A1": abl_beu_occupancy,
    "A2": abl_internal_reg_limit,
    "SV": sampling_validation,
    "CS": cpi_stack_experiment,
}

__all__ = [
    "ExperimentContext",
    "ArtifactCache",
    "CACHE_FORMAT_VERSION",
    "default_cache_dir",
    "SweepPoint",
    "sweep_experiment",
    "render_bars",
    "render_series",
    "render_stacked",
    "ExperimentResult",
    "ALL_EXPERIMENTS",
] + [fn.__name__ for fn in ALL_EXPERIMENTS.values()]
