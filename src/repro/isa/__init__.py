"""Alpha-EV6-like instruction set with the braid ISA extension.

Public surface:

* :mod:`repro.isa.registers` — register names, banks, operand spaces;
* :mod:`repro.isa.opcodes` — opcode table with executable semantics;
* :mod:`repro.isa.instruction` — static instructions and braid annotations;
* :mod:`repro.isa.program` — basic blocks and programs;
* :mod:`repro.isa.assembler` — a two-pass textual assembler;
* :mod:`repro.isa.encoding` — the 64-bit braid instruction word (Figure 3).
"""

from .assembler import AssemblerError, assemble
from .encoding import EncodingError, decode, decode_block, encode, encode_block
from .instruction import PLAIN, BraidAnnotation, Instruction
from .opcodes import (
    CATEGORY_LATENCY,
    OpCategory,
    Opcode,
    all_opcodes,
    opcode_by_name,
    to_signed,
    to_unsigned,
)
from .program import BasicBlock, Program, ProgramError
from .registers import (
    FZERO,
    NUM_INTERNAL_REGS,
    ZERO,
    RegClass,
    Register,
    Space,
    all_registers,
    fp_reg,
    int_reg,
    parse_register,
)

__all__ = [
    "AssemblerError",
    "assemble",
    "EncodingError",
    "decode",
    "decode_block",
    "encode",
    "encode_block",
    "PLAIN",
    "BraidAnnotation",
    "Instruction",
    "CATEGORY_LATENCY",
    "OpCategory",
    "Opcode",
    "all_opcodes",
    "opcode_by_name",
    "to_signed",
    "to_unsigned",
    "BasicBlock",
    "Program",
    "ProgramError",
    "FZERO",
    "NUM_INTERNAL_REGS",
    "ZERO",
    "RegClass",
    "Register",
    "Space",
    "all_registers",
    "fp_reg",
    "int_reg",
    "parse_register",
]
