"""Per-basic-block dataflow graphs.

The braid is defined over the dataflow graph of a basic block (paper
section 2): nodes are instructions; a directed edge runs from the producer of
a register value to each in-block consumer that reads it before any
re-definition.  Sources with no in-block producer are *external inputs*;
definitions that are live out of the block are *external outputs* (computed
by :mod:`repro.dataflow.liveness`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.program import BasicBlock
from ..isa.registers import Register


@dataclass(frozen=True)
class Edge:
    """A def-use edge inside one basic block.

    ``producer``/``consumer`` are instruction positions within the block;
    ``src_position`` says which source operand of the consumer is fed.
    """

    producer: int
    consumer: int
    reg: Register
    src_position: int


class BlockGraph:
    """Dataflow graph of a single basic block."""

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.edges: List[Edge] = []
        #: consumer position -> {source operand position -> producer position}
        self.producer_of: Dict[int, Dict[int, int]] = {}
        #: producer position -> consumer positions (with duplicates removed)
        self.consumers_of: Dict[int, List[int]] = {}
        #: per instruction, the source registers that come from outside the block
        self.external_inputs: Dict[int, List[Tuple[int, Register]]] = {}
        self._build()

    def _build(self) -> None:
        last_writer: Dict[Register, int] = {}
        consumer_sets: Dict[int, Set[int]] = {}
        for position, inst in enumerate(self.block.instructions):
            self.producer_of[position] = {}
            self.external_inputs[position] = []
            for src_position, reg in enumerate(inst.srcs):
                if reg.is_zero:
                    continue
                producer = last_writer.get(reg)
                if producer is None:
                    self.external_inputs[position].append((src_position, reg))
                else:
                    edge = Edge(producer, position, reg, src_position)
                    self.edges.append(edge)
                    self.producer_of[position][src_position] = producer
                    consumer_sets.setdefault(producer, set()).add(position)
            written = inst.writes()
            if written is not None:
                last_writer[written] = position
        self.consumers_of = {
            producer: sorted(consumers)
            for producer, consumers in consumer_sets.items()
        }

    # ------------------------------------------------------------------ queries
    @property
    def instructions(self) -> List[Instruction]:
        return self.block.instructions

    def __len__(self) -> int:
        return len(self.block.instructions)

    def neighbors(self, position: int) -> Iterator[int]:
        """Undirected dataflow neighbours (both producers and consumers)."""
        for producer in self.producer_of[position].values():
            yield producer
        for consumer in self.consumers_of.get(position, ()):
            yield consumer

    def connected_component(self, seed: int) -> Set[int]:
        """The dataflow subgraph stemming from ``seed`` (paper section 3.1)."""
        seen: Set[int] = set()
        stack = [seed]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(
                neighbor for neighbor in self.neighbors(node) if neighbor not in seen
            )
        return seen

    def longest_path_length(self, positions: Set[int]) -> int:
        """Instructions on the longest dataflow path within ``positions``.

        Used to compute braid *width* (paper Table 2): size divided by the
        longest-path instruction count.
        """
        ordered = sorted(positions)
        depth: Dict[int, int] = {}
        for position in ordered:
            producers = [
                p for p in self.producer_of[position].values() if p in positions
            ]
            depth[position] = 1 + max((depth[p] for p in producers), default=0)
        return max(depth.values(), default=0)
