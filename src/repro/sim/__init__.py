"""Simulators: functional executor and cycle-level timing cores."""

from .beu import BraidExecutionUnit
from .blockooo import BlockOoOCore, blockooo_config
from .braidcore import BraidCore
from .config import (
    CoreKind,
    FrontEndConfig,
    MachineConfig,
    braid_config,
    depsteer_config,
    inorder_config,
    ooo_config,
)
from .core import SimulationError, TimingCore, WInst
from .pipeview import PipeviewError, render_pipeview, stage_latencies
from .depsteer import DependenceSteeringCore
from .inorder import InOrderCore
from .ooo import OutOfOrderCore
from .registry import (
    CoreDescriptor,
    CoreRegistryError,
    core_keys,
    core_registry,
    descriptor_for,
    descriptor_for_key,
    paradigm_configs,
    register_core,
)
from .interval import IntervalConfig, interval_from_env, simulate_interval
from .results import SimResult, StallCounters
from .run import FIDELITIES, build_core, simulate
from .sampling import (
    SamplePlan,
    SamplingConfig,
    detect_anchors,
    plan_windows,
    sampling_from_env,
)
from .workload import PreparedWorkload, WorkloadStats, prepare_workload
from .functional import (
    ArchState,
    DynInst,
    ExecutionError,
    ExecutionStats,
    FunctionalExecutor,
    ProgramLayout,
    execute,
    observably_equivalent,
)

__all__ = [
    "BraidExecutionUnit",
    "BlockOoOCore",
    "BraidCore",
    "CoreKind",
    "FrontEndConfig",
    "MachineConfig",
    "blockooo_config",
    "braid_config",
    "depsteer_config",
    "inorder_config",
    "ooo_config",
    "CoreDescriptor",
    "CoreRegistryError",
    "core_keys",
    "core_registry",
    "descriptor_for",
    "descriptor_for_key",
    "paradigm_configs",
    "register_core",
    "SimulationError",
    "TimingCore",
    "WInst",
    "PipeviewError",
    "render_pipeview",
    "stage_latencies",
    "DependenceSteeringCore",
    "InOrderCore",
    "OutOfOrderCore",
    "SimResult",
    "StallCounters",
    "FIDELITIES",
    "build_core",
    "simulate",
    "IntervalConfig",
    "interval_from_env",
    "simulate_interval",
    "SamplePlan",
    "SamplingConfig",
    "detect_anchors",
    "plan_windows",
    "sampling_from_env",
    "PreparedWorkload",
    "WorkloadStats",
    "prepare_workload",
    "ArchState",
    "DynInst",
    "ExecutionError",
    "ExecutionStats",
    "FunctionalExecutor",
    "ProgramLayout",
    "execute",
    "observably_equivalent",
]
