"""Unit tests for opcode semantics and metadata."""

import pytest

from repro.isa.opcodes import (
    CATEGORY_LATENCY,
    IMM_VARIANTS,
    MASK64,
    OpCategory,
    all_opcodes,
    opcode_by_name,
    to_signed,
    to_unsigned,
)


def run(name, srcs, imm=0):
    return opcode_by_name(name).semantics(srcs, imm)


class TestHelpers:
    def test_to_signed_positive(self):
        assert to_signed(5) == 5

    def test_to_signed_negative(self):
        assert to_signed(MASK64) == -1

    def test_to_unsigned_wraps(self):
        assert to_unsigned(-1) == MASK64
        assert to_unsigned(1 << 64) == 0

    def test_round_trip(self):
        for value in (-7, 0, 9, -(1 << 63), (1 << 63) - 1):
            assert to_signed(to_unsigned(value)) == value


class TestIntegerAlu:
    def test_addq_wraps(self):
        assert run("addq", (MASK64, 2)) == 1

    def test_subq(self):
        assert run("subq", (3, 5)) == to_unsigned(-2)

    def test_addl_sign_extends(self):
        # 32-bit overflow wraps and sign-extends (Alpha addl behaviour).
        assert run("addl", (0x7FFFFFFF, 1)) == to_unsigned(-(1 << 31))

    def test_logicals(self):
        assert run("and", (0b1100, 0b1010)) == 0b1000
        assert run("bis", (0b1100, 0b1010)) == 0b1110
        assert run("xor", (0b1100, 0b1010)) == 0b0110
        assert run("andnot", (0b1111, 0b0101)) == 0b1010

    def test_shifts(self):
        assert run("sll", (1, 8)) == 256
        assert run("srl", (256, 8)) == 1
        assert run("sra", (to_unsigned(-8), 1)) == to_unsigned(-4)

    def test_shift_amount_masked_to_six_bits(self):
        assert run("sll", (1, 64)) == 1  # 64 & 63 == 0

    def test_compares(self):
        assert run("cmpeq", (4, 4)) == 1
        assert run("cmpeq", (4, 5)) == 0
        assert run("cmplt", (to_unsigned(-1), 0)) == 1
        assert run("cmpult", (to_unsigned(-1), 0)) == 0  # unsigned max

    def test_zapnot_keeps_selected_bytes(self):
        value = 0x1122334455667788
        assert run("zapnot", (value, 0x0F)) == 0x55667788
        assert run("zapnoti", (value,), imm=15) == 0x55667788

    def test_lda_ldah(self):
        assert run("lda", (0x1000,), imm=8) == 0x1008
        assert run("ldah", (0,), imm=2) == 0x20000


class TestImmediateVariants:
    def test_every_variant_exists(self):
        for base, variant in IMM_VARIANTS.items():
            assert opcode_by_name(base) is not None
            assert opcode_by_name(variant).num_srcs < opcode_by_name(base).num_srcs

    def test_addqi(self):
        assert run("addqi", (40,), imm=2) == 42

    def test_cmplti(self):
        assert run("cmplti", (to_unsigned(-3),), imm=0) == 1

    def test_mulqi(self):
        assert run("mulqi", (6,), imm=7) == 42


class TestConditionalMoves:
    def test_cmovne_moves_when_nonzero(self):
        assert run("cmovne", (1, 99, 5)) == 99

    def test_cmovne_keeps_old_when_zero(self):
        assert run("cmovne", (0, 99, 5)) == 5

    def test_cmoveq(self):
        assert run("cmoveq", (0, 99, 5)) == 99

    def test_cmovnei_immediate(self):
        assert run("cmovnei", (1, 5), imm=123) == 123
        assert run("cmovnei", (0, 5), imm=123) == 5


class TestFloatingPoint:
    def test_addt(self):
        assert run("addt", (1.5, 2.5)) == 4.0

    def test_mult(self):
        assert run("mult", (3.0, 4.0)) == 12.0

    def test_div_by_zero_is_quashed(self):
        assert run("divt", (1.0, 0.0)) == 0.0

    def test_sqrtt_of_negative_uses_magnitude(self):
        assert run("sqrtt", (-4.0,)) == 2.0

    def test_compare_produces_flag(self):
        assert run("cmptlt", (1.0, 2.0)) == 1.0
        assert run("cmptlt", (2.0, 1.0)) == 0.0

    def test_transfers(self):
        assert run("itoft", (to_unsigned(-3),)) == -3.0
        assert run("ftoit", (-3.0,)) == to_unsigned(-3)


class TestBranches:
    @pytest.mark.parametrize(
        "name,value,taken",
        [
            ("beq", 0, True), ("beq", 1, False),
            ("bne", 0, False), ("bne", 1, True),
            ("blt", to_unsigned(-1), True), ("blt", 0, False),
            ("bge", 0, True), ("bgt", 0, False), ("ble", 0, True),
        ],
    )
    def test_conditional(self, name, value, taken):
        assert run(name, (value,)) is taken

    def test_fp_branches(self):
        assert run("fbeq", (0.0,)) is True
        assert run("fbne", (0.5,)) is True

    def test_unconditional(self):
        op = opcode_by_name("br")
        assert not op.conditional
        assert op.semantics((), 0) is True


class TestMetadata:
    def test_latencies_follow_categories(self):
        for op in all_opcodes():
            if op.name == "divt":
                assert op.latency == 15
            elif op.name == "sqrtt":
                assert op.latency == 18
            else:
                assert op.latency == CATEGORY_LATENCY[op.category]

    def test_memory_flags(self):
        assert opcode_by_name("ldq").is_load
        assert opcode_by_name("stq").is_store
        assert opcode_by_name("ldq").is_mem and opcode_by_name("stq").is_mem
        assert not opcode_by_name("addq").is_mem

    def test_unknown_opcode_raises(self):
        with pytest.raises(KeyError):
            opcode_by_name("frobnicate")

    def test_no_duplicate_names(self):
        names = [op.name for op in all_opcodes()]
        assert len(names) == len(set(names))

    def test_src_fp_signature_lengths(self):
        for op in all_opcodes():
            assert len(op.srcs_fp) == op.num_srcs

    def test_store_reads_value_then_base(self):
        sts = opcode_by_name("sts")
        assert sts.srcs_fp == (True, False)

    def test_category_coverage(self):
        present = {op.category for op in all_opcodes()}
        assert OpCategory.LOAD in present
        assert OpCategory.STORE in present
        assert OpCategory.BRANCH in present
        assert OpCategory.FDIV in present
