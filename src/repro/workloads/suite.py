"""Suite construction: programs for the 26 synthetic SPEC CPU2000 benchmarks.

``build_suite`` is the standard entry point used by analyses, experiments,
and benchmarks.  ``scale`` stretches the dynamic length (paper runs used the
MinneSPEC reduced inputs; the reproduction's default lengths are reduced
further so a pure-Python cycle-level simulator can sweep the full design
space — see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..isa.program import Program
from .generator import generate
from .profiles import (
    ALL_BENCHMARKS,
    FP_BENCHMARKS,
    INT_BENCHMARKS,
    profile,
    scaled,
)


def build_program(name: str, scale: float = 1.0) -> Program:
    """Generate one benchmark program by name."""
    return generate(scaled(profile(name), scale))


def build_suite(
    names: Optional[Iterable[str]] = None, scale: float = 1.0
) -> Dict[str, Program]:
    """Generate the benchmark suite (all 26 programs by default)."""
    selected: Tuple[str, ...] = tuple(names) if names is not None else ALL_BENCHMARKS
    return {name: build_program(name, scale) for name in selected}


#: A small representative subset (two integer, two floating point) used by
#: fast tests and quick experiment runs.
QUICK_BENCHMARKS: Tuple[str, ...] = ("gcc", "mcf", "swim", "equake")


def quick_suite(scale: float = 1.0) -> Dict[str, Program]:
    """The four-program quick subset."""
    return build_suite(QUICK_BENCHMARKS, scale=scale)


#: the named selections :func:`select_benchmarks` accepts
_SELECTIONS = {
    "full": ALL_BENCHMARKS,
    "quick": QUICK_BENCHMARKS,
    "int": INT_BENCHMARKS,
    "fp": FP_BENCHMARKS,
}


def select_benchmarks(text: Optional[str], default: str) -> Tuple[str, ...]:
    """Parse a benchmark selection: ``full`` (all 26), ``quick`` (the
    four-program subset), ``int`` / ``fp`` (one SPEC suite), or a
    comma-separated list of names.  ``default`` (a selection in the same
    grammar) applies when ``text`` is None or blank.

    Raises ``ValueError`` naming any unknown benchmark.
    """
    value = (text or "").strip() or default
    if value in _SELECTIONS:
        return _SELECTIONS[value]
    names = tuple(name.strip() for name in value.split(",") if name.strip())
    unknown = [name for name in names if name not in ALL_BENCHMARKS]
    if unknown or not names:
        raise ValueError(
            f"unknown benchmark(s) {', '.join(unknown) or repr(value)}: "
            f"select full, quick, int, fp, or a comma-separated list of "
            f"{', '.join(ALL_BENCHMARKS)}"
        )
    return names


__all__ = [
    "ALL_BENCHMARKS",
    "FP_BENCHMARKS",
    "INT_BENCHMARKS",
    "QUICK_BENCHMARKS",
    "build_program",
    "build_suite",
    "quick_suite",
    "select_benchmarks",
]
