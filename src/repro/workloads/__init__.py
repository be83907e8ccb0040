"""Synthetic SPEC CPU2000 workload suite and hand-written kernels."""

from .generator import BenchmarkGenerator, generate
from .kernels import KERNEL_NAMES, all_kernels, kernel
from .profiles import (
    ALL_BENCHMARKS,
    ALL_PROFILES,
    FP_BENCHMARKS,
    FP_PROFILES,
    INT_BENCHMARKS,
    INT_PROFILES,
    BenchmarkProfile,
    profile,
    scaled,
)
from .suite import (
    QUICK_BENCHMARKS,
    build_program,
    build_suite,
    quick_suite,
    select_benchmarks,
)

__all__ = [
    "BenchmarkGenerator",
    "generate",
    "KERNEL_NAMES",
    "all_kernels",
    "kernel",
    "ALL_BENCHMARKS",
    "ALL_PROFILES",
    "FP_BENCHMARKS",
    "FP_PROFILES",
    "INT_BENCHMARKS",
    "INT_PROFILES",
    "BenchmarkProfile",
    "profile",
    "scaled",
    "QUICK_BENCHMARKS",
    "build_program",
    "build_suite",
    "quick_suite",
    "select_benchmarks",
]
