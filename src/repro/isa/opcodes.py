"""Opcode definitions for the Alpha-EV6-like ISA.

Each opcode carries its functional-unit category, execution latency (in
cycles, excluding cache access for memory operations), operand signature, and
executable semantics.  The subset mirrors the instructions that appear in the
paper's Figure 2 example (``addq``, ``ldl``, ``andnot``, ``zapnot``,
``cmovne``, ``lda``, ``bne``...) plus enough integer/floating-point coverage
to synthesize SPEC-CPU2000-like workloads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


def to_signed(value: int, bits: int = 64) -> int:
    """Interpret an unsigned ``bits``-wide value as two's-complement."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = 64) -> int:
    """Wrap a Python int into an unsigned ``bits``-wide value."""
    return value & ((1 << bits) - 1)


def _sext32(value: int) -> int:
    """Sign-extend the low 32 bits to 64 bits (Alpha ``addl``-style results)."""
    return to_unsigned(to_signed(value & MASK32, 32))


class OpCategory(enum.Enum):
    """Functional-unit class an opcode executes on."""

    IALU = "ialu"
    IMUL = "imul"
    CMOV = "cmov"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    FADD = "fadd"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMOV = "fmov"
    XFER = "xfer"  # cross-bank int<->fp moves
    NOP = "nop"


#: Default execution latencies per category, in cycles.  Loads additionally
#: pay the data-cache access latency modelled by the memory system.
CATEGORY_LATENCY: Dict[OpCategory, int] = {
    OpCategory.IALU: 1,
    OpCategory.IMUL: 7,
    OpCategory.CMOV: 1,
    OpCategory.LOAD: 1,
    OpCategory.STORE: 1,
    OpCategory.BRANCH: 1,
    OpCategory.FADD: 4,
    OpCategory.FMUL: 4,
    OpCategory.FDIV: 12,
    OpCategory.FMOV: 1,
    OpCategory.XFER: 3,
    OpCategory.NOP: 1,
}

Semantics = Callable[[Sequence, int], object]


@dataclass(frozen=True)
class Opcode:
    """A machine opcode: name, signature, latency, and executable semantics.

    ``semantics`` maps ``(source_values, immediate)`` to the produced value for
    computational opcodes, to the taken/not-taken decision (bool) for
    branches, and is ``None`` for loads/stores/nops whose behaviour lives in
    the executor.

    The category predicates ``is_branch``, ``is_load``, ``is_store``,
    ``is_mem`` and ``is_nop`` are plain attributes, computed once at
    construction.
    """

    name: str
    category: OpCategory
    num_srcs: int
    has_dest: bool
    dest_fp: bool = False
    srcs_fp: Tuple[bool, ...] = ()
    semantics: Optional[Semantics] = None
    latency: Optional[int] = None
    conditional: bool = False  # for branches: conditional vs always-taken

    def __post_init__(self) -> None:
        if self.latency is None:
            object.__setattr__(self, "latency", CATEGORY_LATENCY[self.category])
        if len(self.srcs_fp) != self.num_srcs:
            object.__setattr__(self, "srcs_fp", tuple([self.dest_fp] * self.num_srcs))
        category = self.category
        for name, value in (
            ("is_branch", category is OpCategory.BRANCH),
            ("is_load", category is OpCategory.LOAD),
            ("is_store", category is OpCategory.STORE),
            ("is_mem", category in (OpCategory.LOAD, OpCategory.STORE)),
            ("is_nop", category is OpCategory.NOP),
        ):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"Opcode({self.name})"

    def __reduce__(self):
        # Opcodes are registered module-level singletons whose ``semantics``
        # lambdas cannot be pickled; serialize by name and rehydrate from the
        # registry, which also preserves identity across a pickle round-trip.
        if _REGISTRY.get(self.name) is self:
            return (opcode_by_name, (self.name,))
        return super().__reduce__()


_REGISTRY: Dict[str, Opcode] = {}


def opcode_by_name(name: str) -> Opcode:
    """The registered opcode called ``name`` (pickle reconstruction hook)."""
    return _REGISTRY[name]


def _register(opcode: Opcode) -> Opcode:
    if opcode.name in _REGISTRY:
        raise ValueError(f"duplicate opcode {opcode.name}")
    _REGISTRY[opcode.name] = opcode
    return opcode


def _ialu2(name: str, fn: Callable[[int, int], int]) -> Opcode:
    return _register(
        Opcode(
            name,
            OpCategory.IALU,
            num_srcs=2,
            has_dest=True,
            semantics=lambda srcs, imm, fn=fn: to_unsigned(fn(srcs[0], srcs[1])),
        )
    )


def _fp2(name: str, category: OpCategory, fn: Callable[[float, float], float]) -> Opcode:
    def run(srcs: Sequence, imm: int, fn=fn) -> float:
        try:
            result = fn(float(srcs[0]), float(srcs[1]))
        except (ZeroDivisionError, OverflowError, ValueError):
            return 0.0
        if math.isnan(result) or math.isinf(result):
            return 0.0
        return result

    return _register(
        Opcode(name, category, num_srcs=2, has_dest=True, dest_fp=True, semantics=run)
    )


def _branch(name: str, fn: Optional[Callable[[int], bool]], fp: bool = False) -> Opcode:
    if fn is None:
        return _register(
            Opcode(name, OpCategory.BRANCH, num_srcs=0, has_dest=False,
                   semantics=lambda srcs, imm: True, conditional=False)
        )
    return _register(
        Opcode(
            name,
            OpCategory.BRANCH,
            num_srcs=1,
            has_dest=False,
            srcs_fp=(fp,),
            semantics=lambda srcs, imm, fn=fn: bool(fn(srcs[0])),
            conditional=True,
        )
    )


# --- integer ALU ------------------------------------------------------------
ADDQ = _ialu2("addq", lambda a, b: a + b)
SUBQ = _ialu2("subq", lambda a, b: a - b)
ADDL = _register(
    Opcode("addl", OpCategory.IALU, 2, True,
           semantics=lambda s, imm: _sext32(s[0] + s[1]))
)
SUBL = _register(
    Opcode("subl", OpCategory.IALU, 2, True,
           semantics=lambda s, imm: _sext32(s[0] - s[1]))
)
AND = _ialu2("and", lambda a, b: a & b)
BIS = _ialu2("bis", lambda a, b: a | b)
XOR = _ialu2("xor", lambda a, b: a ^ b)
ANDNOT = _ialu2("andnot", lambda a, b: a & ~b)
ORNOT = _ialu2("ornot", lambda a, b: a | ~b)
SLL = _ialu2("sll", lambda a, b: a << (b & 63))
SRL = _ialu2("srl", lambda a, b: (a & MASK64) >> (b & 63))
SRA = _ialu2("sra", lambda a, b: to_signed(a) >> (b & 63))
CMPEQ = _ialu2("cmpeq", lambda a, b: int(a == b))
CMPLT = _ialu2("cmplt", lambda a, b: int(to_signed(a) < to_signed(b)))
CMPLE = _ialu2("cmple", lambda a, b: int(to_signed(a) <= to_signed(b)))
CMPULT = _ialu2("cmpult", lambda a, b: int((a & MASK64) < (b & MASK64)))
ZAPNOT = _register(
    Opcode(
        "zapnot",
        OpCategory.IALU,
        2,
        True,
        semantics=lambda s, imm: to_unsigned(
            sum(
                (s[0] & (0xFF << (8 * i)))
                for i in range(8)
                if (s[1] >> i) & 1
            )
        ),
    )
)

S4ADDQ = _ialu2("s4addq", lambda a, b: 4 * a + b)
S8ADDQ = _ialu2("s8addq", lambda a, b: 8 * a + b)
S4SUBQ = _ialu2("s4subq", lambda a, b: 4 * a - b)
S8SUBQ = _ialu2("s8subq", lambda a, b: 8 * a - b)
EXTBL = _register(
    Opcode("extbl", OpCategory.IALU, 2, True,
           semantics=lambda s, imm: ((s[0] & MASK64) >> (8 * (s[1] & 7))) & 0xFF)
)
INSBL = _register(
    Opcode("insbl", OpCategory.IALU, 2, True,
           semantics=lambda s, imm: to_unsigned((s[0] & 0xFF) << (8 * (s[1] & 7))))
)
MSKBL = _register(
    Opcode("mskbl", OpCategory.IALU, 2, True,
           semantics=lambda s, imm: to_unsigned(
               s[0] & ~(0xFF << (8 * (s[1] & 7)))))
)
UMULH = _register(
    Opcode("umulh", OpCategory.IMUL, 2, True,
           semantics=lambda s, imm: ((s[0] & MASK64) * (s[1] & MASK64)) >> 64)
)

# lda/ldah: address-arithmetic with one register source and an offset.
LDA = _register(
    Opcode("lda", OpCategory.IALU, 1, True,
           semantics=lambda s, imm: to_unsigned(s[0] + imm))
)
LDAH = _register(
    Opcode("ldah", OpCategory.IALU, 1, True,
           semantics=lambda s, imm: to_unsigned(s[0] + (imm << 16)))
)

# --- integer ALU, register-immediate forms -----------------------------------
def _ialu_imm(name: str, fn: Callable[[int, int], int],
              result=lambda v: to_unsigned(v)) -> Opcode:
    return _register(
        Opcode(
            name,
            OpCategory.IALU,
            num_srcs=1,
            has_dest=True,
            semantics=lambda srcs, imm, fn=fn, result=result: result(fn(srcs[0], imm)),
        )
    )


ADDQI = _ialu_imm("addqi", lambda a, b: a + b)
SUBQI = _ialu_imm("subqi", lambda a, b: a - b)
ADDLI = _ialu_imm("addli", lambda a, b: a + b, result=_sext32)
SUBLI = _ialu_imm("subli", lambda a, b: a - b, result=_sext32)
ANDI = _ialu_imm("andi", lambda a, b: a & b)
BISI = _ialu_imm("bisi", lambda a, b: a | b)
XORI = _ialu_imm("xori", lambda a, b: a ^ b)
SLLI = _ialu_imm("slli", lambda a, b: a << (b & 63))
SRLI = _ialu_imm("srli", lambda a, b: (a & MASK64) >> (b & 63))
SRAI = _ialu_imm("srai", lambda a, b: to_signed(a) >> (b & 63))
CMPEQI = _ialu_imm("cmpeqi", lambda a, b: int(a == to_unsigned(b)))
CMPLTI = _ialu_imm("cmplti", lambda a, b: int(to_signed(a) < b))
CMPLEI = _ialu_imm("cmplei", lambda a, b: int(to_signed(a) <= b))
ZAPNOTI = _ialu_imm(
    "zapnoti",
    lambda a, b: sum((a & (0xFF << (8 * i))) for i in range(8) if (b >> i) & 1),
)

#: Mapping used by the assembler to rewrite ``op ra, #lit, rc`` into the
#: register-immediate variant of ``op``.
IMM_VARIANTS: Dict[str, str] = {
    "addq": "addqi", "subq": "subqi", "addl": "addli", "subl": "subli",
    "and": "andi", "bis": "bisi", "xor": "xori",
    "sll": "slli", "srl": "srli", "sra": "srai",
    "cmpeq": "cmpeqi", "cmplt": "cmplti", "cmple": "cmplei",
    "zapnot": "zapnoti", "mulq": "mulqi", "mull": "mulli",
    "cmovne": "cmovnei", "cmoveq": "cmoveqi",
}

# --- integer multiply --------------------------------------------------------
MULQ = _register(
    Opcode("mulq", OpCategory.IMUL, 2, True,
           semantics=lambda s, imm: to_unsigned(s[0] * s[1]))
)
MULL = _register(
    Opcode("mull", OpCategory.IMUL, 2, True,
           semantics=lambda s, imm: _sext32(s[0] * s[1]))
)

MULQI = _register(
    Opcode("mulqi", OpCategory.IMUL, 1, True,
           semantics=lambda s, imm: to_unsigned(s[0] * imm))
)
MULLI = _register(
    Opcode("mulli", OpCategory.IMUL, 1, True,
           semantics=lambda s, imm: _sext32(s[0] * imm))
)

# --- conditional moves (read test, new value, and the old destination) -------
def _cmov(name: str, cond: Callable[[int], bool]) -> Opcode:
    return _register(
        Opcode(
            name,
            OpCategory.CMOV,
            num_srcs=3,
            has_dest=True,
            semantics=lambda s, imm, cond=cond: to_unsigned(
                s[1] if cond(s[0]) else s[2]
            ),
        )
    )


CMOVEQ = _cmov("cmoveq", lambda a: a == 0)
CMOVNE = _cmov("cmovne", lambda a: a != 0)
CMOVLT = _cmov("cmovlt", lambda a: to_signed(a) < 0)
CMOVGE = _cmov("cmovge", lambda a: to_signed(a) >= 0)


def _cmov_imm(name: str, cond: Callable[[int], bool]) -> Opcode:
    """Conditional move of an immediate: reads (test, old destination)."""
    return _register(
        Opcode(
            name,
            OpCategory.CMOV,
            num_srcs=2,
            has_dest=True,
            semantics=lambda s, imm, cond=cond: to_unsigned(
                imm if cond(s[0]) else s[1]
            ),
        )
    )


CMOVEQI = _cmov_imm("cmoveqi", lambda a: a == 0)
CMOVNEI = _cmov_imm("cmovnei", lambda a: a != 0)

# --- memory ------------------------------------------------------------------
LDQ = _register(Opcode("ldq", OpCategory.LOAD, 1, True))
LDL = _register(Opcode("ldl", OpCategory.LOAD, 1, True))
LDS = _register(Opcode("lds", OpCategory.LOAD, 1, True, dest_fp=True, srcs_fp=(False,)))
LDT = _register(Opcode("ldt", OpCategory.LOAD, 1, True, dest_fp=True, srcs_fp=(False,)))
# Stores read (value, base); no destination.
STQ = _register(Opcode("stq", OpCategory.STORE, 2, False, srcs_fp=(False, False)))
STL = _register(Opcode("stl", OpCategory.STORE, 2, False, srcs_fp=(False, False)))
STS = _register(Opcode("sts", OpCategory.STORE, 2, False, srcs_fp=(True, False)))
STT = _register(Opcode("stt", OpCategory.STORE, 2, False, srcs_fp=(True, False)))

# --- floating point -----------------------------------------------------------
ADDS = _fp2("adds", OpCategory.FADD, lambda a, b: a + b)
ADDT = _fp2("addt", OpCategory.FADD, lambda a, b: a + b)
SUBS = _fp2("subs", OpCategory.FADD, lambda a, b: a - b)
SUBT = _fp2("subt", OpCategory.FADD, lambda a, b: a - b)
MULS = _fp2("muls", OpCategory.FMUL, lambda a, b: a * b)
MULT = _fp2("mult", OpCategory.FMUL, lambda a, b: a * b)
DIVS = _fp2("divs", OpCategory.FDIV, lambda a, b: a / b)
DIVT = _register(
    Opcode("divt", OpCategory.FDIV, 2, True, dest_fp=True, latency=15,
           semantics=DIVS.semantics)
)
SQRTT = _register(
    Opcode(
        "sqrtt",
        OpCategory.FDIV,
        1,
        True,
        dest_fp=True,
        latency=18,
        semantics=lambda s, imm: math.sqrt(abs(float(s[0]))),
    )
)
CPYS = _register(
    Opcode("cpys", OpCategory.FMOV, 1, True, dest_fp=True,
           semantics=lambda s, imm: float(s[0]))
)
CMPTLT = _register(
    Opcode("cmptlt", OpCategory.FADD, 2, True, dest_fp=True,
           semantics=lambda s, imm: 1.0 if float(s[0]) < float(s[1]) else 0.0)
)
CMPTEQ = _register(
    Opcode("cmpteq", OpCategory.FADD, 2, True, dest_fp=True,
           semantics=lambda s, imm: 1.0 if float(s[0]) == float(s[1]) else 0.0)
)

# --- cross-bank transfers ------------------------------------------------------
ITOFT = _register(
    Opcode("itoft", OpCategory.XFER, 1, True, dest_fp=True, srcs_fp=(False,),
           semantics=lambda s, imm: float(to_signed(s[0])))
)
FTOIT = _register(
    Opcode("ftoit", OpCategory.XFER, 1, True, dest_fp=False, srcs_fp=(True,),
           semantics=lambda s, imm: to_unsigned(int(float(s[0]))))
)

# --- branches -------------------------------------------------------------------
BEQ = _branch("beq", lambda a: a == 0)
BNE = _branch("bne", lambda a: a != 0)
BLT = _branch("blt", lambda a: to_signed(a) < 0)
BLE = _branch("ble", lambda a: to_signed(a) <= 0)
BGT = _branch("bgt", lambda a: to_signed(a) > 0)
BGE = _branch("bge", lambda a: to_signed(a) >= 0)
FBEQ = _branch("fbeq", lambda a: float(a) == 0.0, fp=True)
FBNE = _branch("fbne", lambda a: float(a) != 0.0, fp=True)
BR = _branch("br", None)

# --- no-ops ----------------------------------------------------------------------
NOP = _register(Opcode("nop", OpCategory.NOP, 0, False))


def opcode_by_name(name: str) -> Opcode:
    """Look up an opcode by mnemonic; raises ``KeyError`` for unknown names."""
    return _REGISTRY[name]


def all_opcodes() -> Tuple[Opcode, ...]:
    """Every registered opcode, in registration order."""
    return tuple(_REGISTRY.values())
