"""Gen ISA instructions.

The instruction model covers what the CM compiler back end emits:
typed SIMD ALU instructions with region operands, compares writing flag
registers, predicated moves/selects, math (extended-function) ops, and
``send`` messages to the memory subsystem (2D media block, oword block,
scattered gather/scatter, atomics).

The textual form produced by :meth:`Instruction.asm` matches the style of
the listings in the paper, e.g.::

    mov (16|M0) r11.0<1>:f r4.3<8;8,1>:ub
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.isa.dtypes import DType
from repro.isa.grf import RegOperand


class Opcode(enum.Enum):
    MOV = "mov"
    SEL = "sel"
    ADD = "add"
    SUB = "sub"          # pseudo: emitted as add with negated src1
    MUL = "mul"
    MAD = "mad"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    ASR = "asr"
    MIN = "min"          # pseudo for sel.l
    MAX = "max"          # pseudo for sel.ge
    AVG = "avg"
    CMP = "cmp"
    MATH = "math"
    SEND = "send"
    BARRIER = "barrier"
    NOP = "nop"
    # Structured SIMD control flow (Gen's simd-goto/simd-join, exposed as
    # the IF/ELSE/ENDIF + DO/WHILE/BREAK form vISA uses).  These carry no
    # label operands: IF/ELSE/ENDIF/BREAK are pure execution-mask-stack
    # manipulation executed by *every* thread (empty-mask regions still
    # step through their instructions, which is what keeps JIT and
    # sequential timing bit-identical), and the only back-edge, WHILE,
    # jumps to the instruction after its matching DO.
    SIMD_IF = "simd_if"
    SIMD_ELSE = "simd_else"
    SIMD_ENDIF = "simd_endif"
    SIMD_DO = "simd_do"
    SIMD_WHILE = "simd_while"
    SIMD_BREAK = "simd_break"


#: The structured-control-flow subset of :class:`Opcode`.
CF_OPCODES = frozenset({
    Opcode.SIMD_IF, Opcode.SIMD_ELSE, Opcode.SIMD_ENDIF,
    Opcode.SIMD_DO, Opcode.SIMD_WHILE, Opcode.SIMD_BREAK,
})


class MathFn(enum.Enum):
    INV = "inv"
    SQRT = "sqrt"
    RSQRT = "rsqt"
    LOG = "log"
    EXP = "exp"
    POW = "pow"
    IDIV = "idiv"
    FDIV = "fdiv"
    SIN = "sin"
    COS = "cos"


class CondMod(enum.Enum):
    """Conditional modifiers for ``cmp`` (result written to a flag)."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


@dataclass(frozen=True)
class Immediate:
    """An immediate operand."""

    value: Union[int, float]
    dtype: DType

    def __str__(self) -> str:
        if self.dtype.is_float:
            return f"{self.value}:{self.dtype.name}"
        return f"{int(self.value)}:{self.dtype.name}"


@dataclass(frozen=True)
class FlagOperand:
    """A flag (predicate) register: 32 bits, one per lane."""

    index: int = 0

    def __str__(self) -> str:
        return f"f{self.index}.0"


@dataclass(frozen=True)
class Predicate:
    flag: FlagOperand
    invert: bool = False

    def __str__(self) -> str:
        bang = "~" if self.invert else ""
        return f"({bang}{self.flag})"


class MsgKind(enum.Enum):
    MEDIA_BLOCK_READ = "media_block_read"
    MEDIA_BLOCK_WRITE = "media_block_write"
    OWORD_BLOCK_READ = "oword_block_read"
    OWORD_BLOCK_WRITE = "oword_block_write"
    GATHER = "gather"
    SCATTER = "scatter"
    ATOMIC = "atomic"


@dataclass(frozen=True)
class MessageDesc:
    """A simplified ``send`` message descriptor.

    ``surface`` is a binding-table index resolved by the executor.  The
    address sources (``addr0``/``addr1``) are scalar register operands or
    immediates: (x, y) block origin for media block messages, the oword
    offset for oword block messages.  For gather/scatter/atomic messages
    the per-lane offsets live in a GRF range starting at ``addr_reg``.
    ``payload`` identifies the GRF byte range read (writes) or written
    (reads) by the message.
    """

    kind: MsgKind
    surface: int
    block_width: int = 0          # bytes per row (media block)
    block_height: int = 0         # rows (media block)
    addr0: Optional[Union[RegOperand, Immediate]] = None
    addr1: Optional[Union[RegOperand, Immediate]] = None
    addr_reg: int = -1            # GRF reg holding per-lane dword offsets
    payload_reg: int = -1         # first GRF reg of the data payload
    payload_bytes: int = 0
    atomic_op: str = ""
    elem_dtype: Optional[DType] = None

    def __str__(self) -> str:
        parts = [self.kind.value, f"bti[{self.surface}]"]
        if self.kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
            parts.append(f"{self.block_width}x{self.block_height}")
        if self.atomic_op:
            parts.append(self.atomic_op)
        return " ".join(parts)


Source = Union[RegOperand, Immediate]


@dataclass
class Instruction:
    """One Gen ISA instruction."""

    opcode: Opcode
    exec_size: int = 1
    dst: Optional[RegOperand] = None
    srcs: Sequence[Source] = field(default_factory=tuple)
    pred: Optional[Predicate] = None
    cond_mod: Optional[CondMod] = None
    flag: Optional[FlagOperand] = None
    math_fn: Optional[MathFn] = None
    msg: Optional[MessageDesc] = None
    sat: bool = False
    emask: str = "M0"
    comment: str = ""

    def asm(self) -> str:
        """Gen-assembly-style text for this instruction."""
        name = self.opcode.value
        if self.opcode is Opcode.MATH and self.math_fn is not None:
            name = f"math.{self.math_fn.value}"
        if self.opcode is Opcode.CMP and self.cond_mod is not None:
            name = f"cmp.{self.cond_mod.value}"
        pieces = []
        if self.pred is not None:
            pieces.append(str(self.pred))
        pieces.append(name + (".sat" if self.sat else ""))
        pieces.append(f"({self.exec_size}|{self.emask})")
        if self.opcode is Opcode.CMP and self.flag is not None:
            pieces.append(f"[{self.flag}]")
        if self.dst is not None:
            pieces.append(self.dst.dst_str())
        for s in self.srcs:
            pieces.append(s.src_str() if isinstance(s, RegOperand) else str(s))
        if self.msg is not None:
            pieces.append(str(self.msg))
        text = " ".join(pieces)
        if self.comment:
            text = f"{text}  // {self.comment}"
        return text

    def __str__(self) -> str:
        return self.asm()


def format_program(instructions: Sequence[Instruction]) -> str:
    """Pretty-print a Gen program."""
    return "\n".join(f"{i:>4}) {inst.asm()}" for i, inst in enumerate(instructions, 1))
