"""Register model for the Alpha-EV6-like ISA used throughout the reproduction.

The paper compiles SPEC CPU2000 for the Alpha ISA: 32 integer registers
(``r0``..``r31`` with ``r31`` hardwired to zero) and 32 floating-point
registers (``f0``..``f31`` with ``f31`` hardwired to zero).  After braid
register allocation (paper section 3.1) an operand additionally carries a
*storage space*: the external register file shared by all braids, or the small
per-BEU internal register file that holds values which never escape a braid.
"""

from __future__ import annotations

import enum
from typing import Dict, Tuple


class RegClass(enum.Enum):
    """Architectural register class (which bank a register name lives in)."""

    INT = "int"
    FP = "fp"


class Space(enum.Enum):
    """Storage space of an operand after braid register allocation.

    ``EXTERNAL`` corresponds to a clear T/I bit and ``INTERNAL`` to a set one
    in the braid instruction encoding of paper Figure 3.  Untranslated code
    uses ``EXTERNAL`` everywhere.
    """

    EXTERNAL = "ext"
    INTERNAL = "int"


NUM_INT_REGS = 32
NUM_FP_REGS = 32
INT_ZERO_INDEX = 31
FP_ZERO_INDEX = 31

#: Number of entries in the per-BEU internal register file (paper section 3.3:
#: "Through empirical analysis, 8 internal registers are sufficient").
NUM_INTERNAL_REGS = 8


class Register:
    """An architectural register name (interned; compare with ``is`` or ``==``).

    A ``Register`` is only a *name*.  Whether a given operand reads or writes
    the external or internal file is carried by the instruction's braid
    annotation, not by the register itself.

    ``is_zero`` (the hardwired zero registers r31 / f31) and ``is_fp`` are
    plain attributes, computed once at interning.
    """

    __slots__ = ("rclass", "index", "is_zero", "is_fp")
    _pool: Dict[Tuple[RegClass, int], "Register"] = {}

    def __new__(cls, rclass: RegClass, index: int) -> "Register":
        key = (rclass, index)
        reg = cls._pool.get(key)
        if reg is None:
            limit = NUM_INT_REGS if rclass is RegClass.INT else NUM_FP_REGS
            if not 0 <= index < limit:
                raise ValueError(f"register index {index} out of range for {rclass}")
            reg = super().__new__(cls)
            reg.rclass = rclass
            reg.index = index
            reg.is_fp = rclass is RegClass.FP
            reg.is_zero = index == (FP_ZERO_INDEX if reg.is_fp else INT_ZERO_INDEX)
            cls._pool[key] = reg
        return reg

    def __reduce__(self):
        # Interned flyweight: serialize as (class, index) and rehydrate
        # through __new__, which restores identity from the pool.
        return (Register, (self.rclass, self.index))

    @property
    def name(self) -> str:
        prefix = "r" if self.rclass is RegClass.INT else "f"
        return f"{prefix}{self.index}"

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash((self.rclass, self.index))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Register)
            and self.rclass == other.rclass
            and self.index == other.index
        )

    # Registers sort by (class, index); handy for deterministic output.
    def __lt__(self, other: "Register") -> bool:
        return (self.rclass.value, self.index) < (other.rclass.value, other.index)


def int_reg(index: int) -> Register:
    """The integer register ``r<index>``."""
    return Register(RegClass.INT, index)


def fp_reg(index: int) -> Register:
    """The floating-point register ``f<index>``."""
    return Register(RegClass.FP, index)


#: Hardwired integer zero register (Alpha r31).
ZERO = int_reg(INT_ZERO_INDEX)
#: Hardwired floating-point zero register (Alpha f31).
FZERO = fp_reg(FP_ZERO_INDEX)


def parse_register(text: str) -> Register:
    """Parse ``r12``/``f3``/``zero``/``fzero`` into a :class:`Register`."""
    text = text.strip().lower()
    if text == "zero":
        return ZERO
    if text == "fzero":
        return FZERO
    if len(text) < 2 or text[0] not in "rf" or not text[1:].isdigit():
        raise ValueError(f"malformed register name: {text!r}")
    index = int(text[1:])
    return int_reg(index) if text[0] == "r" else fp_reg(index)


def all_registers() -> Tuple[Register, ...]:
    """Every architectural register, integer bank first."""
    ints = tuple(int_reg(i) for i in range(NUM_INT_REGS))
    fps = tuple(fp_reg(i) for i in range(NUM_FP_REGS))
    return ints + fps
