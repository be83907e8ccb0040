"""Unit tests for per-block dataflow graphs."""

from repro.dataflow.graph import BlockGraph
from repro.isa import assemble
from repro.isa.registers import int_reg


def graph_of(source: str, block: int = 0) -> BlockGraph:
    program = assemble(source)
    return BlockGraph(program.blocks[block])


class TestEdges:
    def test_simple_chain(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r3, r3, r4
            """
        )
        assert len(graph.edges) == 2  # r3 feeds both source operands
        assert graph.producer_of[1] == {0: 0, 1: 0}
        assert graph.consumers_of[0] == [1]

    def test_external_inputs(self):
        graph = graph_of("addq r1, r2, r3")
        inputs = graph.external_inputs[0]
        assert {reg for _, reg in inputs} == {int_reg(1), int_reg(2)}

    def test_redefinition_cuts_edges(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r1, r1, r3
            addq r3, r3, r4
            """
        )
        # The consumer reads the *second* definition of r3 only.
        assert graph.producer_of[2] == {0: 1, 1: 1}
        assert 0 not in graph.consumers_of

    def test_zero_register_never_creates_edges(self):
        graph = graph_of(
            """
            addq r1, r2, r31
            addq r31, r31, r3
            """
        )
        assert graph.edges == []

    def test_memory_base_register_edge(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            ldq r4, 0(r3)
            """
        )
        assert graph.producer_of[1] == {0: 0}


class TestComponents:
    def test_connected_component_spans_chain(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r3, r1, r4
            addq r5, r6, r7
            """
        )
        assert graph.connected_component(0) == {0, 1}
        assert graph.connected_component(2) == {2}

    def test_shared_external_input_does_not_merge(self):
        # Both instructions read r1, but reading the same incoming value
        # does not connect them (no def-use edge inside the block).
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r1, r4, r5
            """
        )
        assert graph.connected_component(0) == {0}
        assert graph.connected_component(1) == {1}

    def test_join_merges_components(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r4, r5, r6
            addq r3, r6, r7
            """
        )
        assert graph.connected_component(0) == {0, 1, 2}


class TestLongestPath:
    def test_chain_depth(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r3, r3, r4
            addq r4, r4, r5
            """
        )
        assert graph.longest_path_length({0, 1, 2}) == 3

    def test_parallel_instructions_have_depth_one(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r4, r5, r6
            """
        )
        assert graph.longest_path_length({0, 1}) == 1

    def test_subset_restricts_path(self):
        graph = graph_of(
            """
            addq r1, r2, r3
            addq r3, r3, r4
            addq r4, r4, r5
            """
        )
        assert graph.longest_path_length({0, 2}) == 1
        assert graph.longest_path_length(set()) == 0

    def test_width_of_paper_example(self, gcc_life):
        # The Figure 2 LOOP block: dataflow width should be close to the
        # paper's reported ~1.1-2 (a mostly serial mask computation fed by
        # three parallel loads).
        loop = gcc_life.block_by_label("LOOP")
        graph = BlockGraph(loop)
        positions = set(range(len(loop.instructions)))
        depth = graph.longest_path_length(positions)
        assert 4 <= depth <= len(loop.instructions)
