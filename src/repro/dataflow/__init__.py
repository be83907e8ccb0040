"""Dataflow analyses: per-block graphs, global liveness, memory ordering."""

from .graph import BlockGraph, Edge
from .liveness import BlockLiveness, LivenessAnalysis, dead_definitions
from .memdep import (
    MemoryEdge,
    memory_order_edges,
    ordering_violated,
    provably_independent,
)

__all__ = [
    "BlockGraph",
    "Edge",
    "BlockLiveness",
    "LivenessAnalysis",
    "dead_definitions",
    "MemoryEdge",
    "memory_order_edges",
    "ordering_violated",
    "provably_independent",
]
