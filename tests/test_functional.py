"""Unit tests for the functional executor."""

import pytest

from repro.isa import assemble
from repro.isa.instruction import BraidAnnotation, Instruction
from repro.isa.opcodes import opcode_by_name, to_unsigned
from repro.isa.program import BasicBlock, Program
from repro.isa.registers import NUM_INTERNAL_REGS, Space, fp_reg, int_reg
from repro.sim.functional import (
    INSTRUCTION_BYTES,
    ArchState,
    ExecutionError,
    FunctionalExecutor,
    ProgramLayout,
    apply_instruction,
    execute,
    observably_equivalent,
)


class TestStraightLine:
    def test_arithmetic(self):
        program = assemble(
            """
            addq r31, #6, r1
            addq r31, #7, r2
            mulq r1, r2, r3
            """
        )
        state, stats = execute(program)
        assert state.int_regs[3] == 42
        assert stats.dynamic_instructions == 3
        assert stats.completed

    def test_memory_round_trip(self):
        program = assemble(
            """
            addq r31, #4096, r1
            addq r31, #99, r2
            stq r2, 8(r1)
            ldq r3, 8(r1)
            """
        )
        state, _ = execute(program)
        assert state.int_regs[3] == 99
        assert state.memory[4096 + 8] == 99

    def test_uninitialized_memory_reads_zero(self):
        program = assemble("addq r31, #4096, r1\nldq r2, 0(r1)")
        state, _ = execute(program)
        assert state.int_regs[2] == 0

    def test_word_addressing_ignores_low_bits(self):
        program = assemble(
            """
            addq r31, #4100, r1
            addq r31, #7, r2
            stq r2, 0(r1)
            ldq r3, -4(r1)
            """
        )
        state, _ = execute(program)
        assert state.memory == {0x1000: 7}
        assert state.int_regs[3] == 7

    def test_fp_flow(self):
        program = assemble(
            """
            addq r31, #3, r1
            itoft r1, f1
            addt f1, f1, f2
            addq r31, #4096, r2
            stt f2, 0(r2)
            """
        )
        state, _ = execute(program)
        assert state.fp_regs[2] == 6.0
        assert state.memory[4096] == 6.0


class TestControlFlow:
    def test_loop_runs_to_completion(self, small_program):
        state, stats = execute(small_program)
        assert stats.completed
        assert state.int_regs[2] == 5  # loop counter reached n
        assert stats.block_counts[1] == 5  # LOOP executed 5 times

    def test_branch_statistics(self, small_program):
        _, stats = execute(small_program)
        assert stats.dynamic_branches == 5
        assert stats.taken_branches == 4  # last iteration falls through

    def test_instruction_cap_stops_execution(self):
        program = assemble(
            ".block SPIN\n addq r1, r2, r3\n br SPIN"
        )
        _, stats = execute(program, max_instructions=100)
        assert not stats.completed
        assert stats.dynamic_instructions == 100

    def test_cap_landing_on_the_exit_completes(self, gcc_program):
        _, full = execute(gcc_program)
        assert full.completed
        _, capped = execute(gcc_program,
                            max_instructions=full.dynamic_instructions)
        assert capped == full
        _, short = execute(gcc_program,
                           max_instructions=full.dynamic_instructions - 1)
        assert not short.completed
        assert observably_equivalent(
            gcc_program, gcc_program,
            max_instructions=full.dynamic_instructions,
        )

    def test_cap_mid_block_stops_with_exact_stats(self, small_program):
        # ENTRY holds two instructions and LOOP five: a cap of 10 stops
        # after the third instruction of LOOP's second iteration.
        executor = FunctionalExecutor(small_program, max_instructions=10)
        trace = list(executor.trace())
        stats = executor.stats
        assert len(trace) == stats.dynamic_instructions == 10
        assert [d.seq for d in trace] == list(range(10))
        assert not stats.completed
        assert stats.block_counts == {0: 1, 1: 2}
        assert stats.dynamic_branches == sum(d.is_branch for d in trace) == 1
        assert stats.taken_branches == 1
        assert stats.stores == sum(d.is_store for d in trace) == 2
        assert stats.loads == 0
        assert trace[-1].inst is small_program.blocks[1].instructions[2]


class TestTrace:
    def test_trace_sequence_numbers_are_dense(self, small_program):
        trace = list(FunctionalExecutor(small_program).trace())
        assert [d.seq for d in trace] == list(range(len(trace)))

    def test_branch_outcomes_recorded(self, small_program):
        trace = list(FunctionalExecutor(small_program).trace())
        branches = [d for d in trace if d.is_branch]
        assert all(d.taken is not None for d in branches)
        assert branches[-1].taken is False

    def test_memory_addresses_recorded(self, small_program):
        trace = list(FunctionalExecutor(small_program).trace())
        stores = [d for d in trace if d.is_store]
        assert stores and all(d.mem_addr is not None for d in stores)

    def test_next_pc_of_taken_branch_is_target_block(self, small_program):
        executor = FunctionalExecutor(small_program)
        layout = executor.layout
        for dyn in executor.trace():
            if dyn.is_branch and dyn.taken:
                assert dyn.next_pc == layout.block_start[dyn.inst.target]


class TestLayout:
    def test_addresses_are_contiguous(self, small_program):
        layout = ProgramLayout(small_program)
        addresses = [
            layout.address(inst) for inst in small_program.instructions()
        ]
        assert addresses == sorted(addresses)
        deltas = {b - a for a, b in zip(addresses, addresses[1:])}
        assert deltas == {INSTRUCTION_BYTES}

    def test_block_starts_match_first_instruction(self, small_program):
        layout = ProgramLayout(small_program)
        for block in small_program.blocks:
            assert layout.block_start[block.index] == layout.address(
                block.instructions[0]
            )


class TestInternalSpace:
    def _internal_program(self, read_before_write: bool) -> Program:
        addq = opcode_by_name("addq")
        write = Instruction(
            opcode=addq, dest=int_reg(2), srcs=(int_reg(31), int_reg(31)),
            annot=BraidAnnotation(
                braid_id=0, start=True, src_spaces=(Space.EXTERNAL,) * 2,
                dest_internal=True, dest_external=False,
            ),
        )
        read = Instruction(
            opcode=addq, dest=int_reg(5), srcs=(int_reg(2), int_reg(31)),
            annot=BraidAnnotation(
                braid_id=0 if not read_before_write else 1,
                start=read_before_write,
                src_spaces=(Space.INTERNAL, Space.EXTERNAL),
            ),
        )
        block = BasicBlock(0, [read] if read_before_write else [write, read])
        return Program(name="internal", blocks=[block])

    def test_internal_value_flows_within_braid(self):
        state, _ = execute(self._internal_program(read_before_write=False))
        assert state.int_regs[5] == 0

    def test_reading_dead_internal_value_raises(self):
        with pytest.raises(ExecutionError):
            execute(self._internal_program(read_before_write=True))

    def test_strict_internal_can_be_disabled(self):
        program = self._internal_program(read_before_write=True)
        with pytest.raises(ExecutionError):
            # Still fails: the value was never written at all.
            execute(program, strict_internal=False)

    def test_strict_internal_off_keeps_values_across_a_braid_start(self):
        addq = opcode_by_name("addq")
        write = Instruction(
            opcode=addq, dest=int_reg(2), srcs=(int_reg(1), int_reg(31)),
            annot=BraidAnnotation(braid_id=0, start=True,
                                  dest_internal=True, dest_external=False),
        )
        read = Instruction(
            opcode=addq, dest=int_reg(5), srcs=(int_reg(2), int_reg(31)),
            annot=BraidAnnotation(braid_id=1, start=True,
                                  src_spaces=(Space.INTERNAL, Space.EXTERNAL)),
        )
        program = Program(name="cross", blocks=[BasicBlock(0, [write, read])])
        with pytest.raises(ExecutionError):
            execute(program)
        initial = ArchState()
        initial.int_regs[1] = 11
        executor = FunctionalExecutor(program, strict_internal=False,
                                      initial_state=initial)
        executor.run()
        assert executor.state.int_regs[5] == 11

    def test_internal_write_beyond_the_internal_file_raises(self):
        inst = Instruction(
            opcode=opcode_by_name("addq"), dest=int_reg(NUM_INTERNAL_REGS),
            srcs=(int_reg(31), int_reg(31)),
            annot=BraidAnnotation(braid_id=0, start=True,
                                  dest_internal=True, dest_external=True),
        )
        program = Program(name="wide", blocks=[BasicBlock(0, [inst])])
        with pytest.raises(ExecutionError, match="out of range"):
            execute(program)
        state = ArchState()
        with pytest.raises(ExecutionError, match="out of range"):
            apply_instruction(state, inst)
        assert state.int_regs[NUM_INTERNAL_REGS] == 0

    def test_zero_register_write_discarded(self):
        program = assemble("addq r1, r2, r31")
        state, _ = execute(program)
        assert state.int_regs[31] == 0

    def test_snapshot_is_hashable_and_stable(self, small_program):
        a, _ = execute(small_program)
        b, _ = execute(small_program)
        assert a.snapshot() == b.snapshot()
        hash(a.snapshot())


class TestInitialState:
    def test_registers_memory_and_fp_are_honoured(self):
        program = assemble(
            """
            ldq r3, 0(r1)
            addq r3, r3, r4
            stq r4, 8(r1)
            addt f2, f2, f4
            stt f4, 16(r1)
            """
        )
        initial = ArchState()
        initial.int_regs[1] = 4096
        initial.memory[4096] = 21
        initial.fp_regs[2] = 1.25
        executor = FunctionalExecutor(program, initial_state=initial)
        trace = list(executor.trace())
        state = executor.state
        assert state is initial
        assert state.int_regs[3] == 21 and state.int_regs[4] == 42
        assert state.memory[4096 + 8] == 42
        assert state.fp_regs[fp_reg(4).index] == 2.5
        assert state.memory[4096 + 16] == 2.5
        assert [d.mem_addr for d in trace] == [4096, None, 4104, None, 4112]

    def test_float_in_memory_loads_as_an_integer(self):
        state = ArchState()
        state.memory[0x2000] = 3.75
        program = assemble("ldq r2, 0(r1)\nlds f3, 0(r1)")
        state.int_regs[1] = 0x2000
        executor = FunctionalExecutor(program, initial_state=state)
        executor.run()
        assert state.int_regs[2] == 3
        assert state.fp_regs[3] == 3.75


class TestCmovSemantics:
    def test_cmov_in_context(self):
        program = assemble(
            """
            addq r31, #1, r1
            addq r31, #5, r3
            cmovne r1, #9, r3
            cmoveq r1, #7, r3
            """
        )
        state, _ = execute(program)
        assert state.int_regs[3] == 9  # cmovne fired, cmoveq kept value
