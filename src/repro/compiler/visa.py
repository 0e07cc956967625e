"""vISA: the virtual ISA between the middle end and the finalizer.

vISA is "very close to Gen ISA but offers more convenience as a
compilation target as it has unlimited virtual registers and hides
various hardware-specific restrictions" (Section V).  Emission from the
SSA IR happens here together with **legalization**: every operation is
split into chunks that satisfy

- the 2-GRF operand limit (chunk elements x element size <= 64 bytes),
- the native SIMD widths (1/2/4/8/16/32),
- expressibility of each source chunk as a single ``<V;W,H>`` region and
  each destination chunk as a strided run.

The chunk search is what turns the linear filter's 6x24 byte-to-float
select into nine SIMD16 movs whose regions hop across matrix rows
(Fig. 4): a chunk spanning two 24-byte rows legalizes as ``<16;8,1>``.

Legalization is decided from region parameters.  Every operand carries
its element pattern as ``(offset, <V;W,H>)``
(:class:`~repro.compiler.passes.region_collapse.IndexPattern`), and the
search asks of each candidate chunk, by arithmetic on those numbers,
whether the destination chunk is a strided run and which single region
each source chunk is.  The answers equal what
:func:`~repro.compiler.passes.region_collapse.region_from_indices` finds
on the materialized index arrays; no index array is built except for
the rare exact comparison of two aliasing operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.compiler.ir import Function, Instr, Value
from repro.compiler.passes.baling import BaleInfo, ROOT_OPS
from repro.compiler.passes.region_collapse import IndexPattern
from repro.isa.dtypes import D, DType, UW
from repro.isa.instructions import CondMod, MathFn, Opcode

_OPCODE_MAP = {
    "add": Opcode.ADD, "sub": Opcode.SUB, "mul": Opcode.MUL,
    "mad": Opcode.MAD, "min": Opcode.MIN, "max": Opcode.MAX,
    "and": Opcode.AND, "or": Opcode.OR, "xor": Opcode.XOR,
    "shl": Opcode.SHL, "shr": Opcode.SHR, "asr": Opcode.ASR,
    "mov": Opcode.MOV,
}


class CompileError(RuntimeError):
    pass


@dataclass
class VReg:
    """A virtual register: a contiguous byte range, unlimited supply."""

    id: int
    size_bytes: int
    name: str = ""

    def __repr__(self) -> str:
        return f"V{self.id}<{self.size_bytes}B>"


@dataclass
class VOperand:
    """An operand addressing a virtual register with a region."""

    vreg: VReg
    dtype: DType
    offset_bytes: int = 0
    # source region (element units); None means packed contiguous
    vstride: int = 0
    width: int = 1
    hstride: int = 0
    dst_stride: int = 1

    @classmethod
    def packed(cls, vreg: VReg, dtype: DType, offset_bytes: int = 0,
               n: int = 1) -> "VOperand":
        w = min(n, 8)
        return cls(vreg, dtype, offset_bytes, vstride=w, width=w, hstride=1)

    def __repr__(self) -> str:
        return (f"{self.vreg!r}.{self.offset_bytes}"
                f"<{self.vstride};{self.width},{self.hstride}>"
                f":{self.dtype.name}")


@dataclass
class VImm:
    value: Union[int, float]
    dtype: DType

    def __repr__(self) -> str:
        return f"{self.value}:{self.dtype.name}"


@dataclass
class VVectorImm:
    """A packed vector immediate (materializing non-splat constants)."""

    values: np.ndarray
    dtype: DType

    def __repr__(self) -> str:
        return f"{list(self.values)}:{self.dtype.name}"


VSource = Union[VOperand, VImm, VVectorImm]


@dataclass
class VInstr:
    op: Opcode
    exec_size: int = 1
    dst: Optional[VOperand] = None
    srcs: List[VSource] = field(default_factory=list)
    cond_mod: Optional[CondMod] = None
    math_fn: Optional[MathFn] = None
    pred_flag: Optional[int] = None
    msg: Optional[dict] = None  # send message description
    #: first execution-mask channel this instruction covers.  Non-zero
    #: only for chunks of a legalized wide op inside a divergent region:
    #: lane i of the chunk maps to SIMD-CF channel ``emask_off + i``.
    emask_off: int = 0

    def __repr__(self) -> str:
        parts = [self.op.value, f"({self.exec_size})"]
        if self.dst is not None:
            parts.append(repr(self.dst))
        parts.extend(repr(s) for s in self.srcs)
        if self.msg:
            parts.append(str(self.msg))
        return " ".join(parts)


@dataclass
class VProgram:
    """The vISA module for one kernel."""

    name: str
    instrs: List[VInstr] = field(default_factory=list)
    vregs: List[VReg] = field(default_factory=list)
    #: parameter name -> VReg holding its runtime value
    params: Dict[str, VReg] = field(default_factory=dict)

    def new_vreg(self, size_bytes: int, name: str = "") -> VReg:
        vreg = VReg(len(self.vregs) + 1, size_bytes, name)
        self.vregs.append(vreg)
        return vreg

    def __str__(self) -> str:
        lines = [f".kernel {self.name}"]
        lines += [f".decl {v!r} {v.name}" for v in self.vregs]
        lines += [f"  {i!r}" for i in self.instrs]
        return "\n".join(lines)


#: IR control-flow markers -> the structured-CF Gen opcodes.
_CF_OP_MAP = {
    "simd.if": Opcode.SIMD_IF, "simd.else": Opcode.SIMD_ELSE,
    "simd.endif": Opcode.SIMD_ENDIF, "simd.do": Opcode.SIMD_DO,
    "simd.while": Opcode.SIMD_WHILE, "simd.break": Opcode.SIMD_BREAK,
}


class _Emitter:
    def __init__(self, fn: Function, bales: BaleInfo) -> None:
        self.fn = fn
        self.bales = bales
        self.prog = VProgram(fn.name)
        #: storage class representative: value id -> root value id
        self._class: Dict[int, int] = {}
        self._vreg_of_class: Dict[int, VReg] = {}
        self._materialized_consts: Dict[int, VReg] = {}
        #: does this function contain divergent (simd.*) control flow?
        self._has_cf = any(i.op.startswith("simd.") for i in fn.instrs)
        #: storage classes mutated by wrregion chains (set in emit()).
        self._mutated_reps: set = set()
        #: current divergent-region nesting depth during the emit walk.
        self._cf_depth = 0

    # -- storage classes ----------------------------------------------------

    def _rep(self, v: Value) -> int:
        vid = v.id
        while self._class.get(vid, vid) != vid:
            vid = self._class[vid]
        return vid

    def _union(self, child: Value, parent: Value) -> None:
        self._class[self._rep(child)] = self._rep(parent)

    def _assign_classes(self) -> None:
        # wrregion chains share storage with their base vector.
        for instr in self.fn.instrs:
            if instr.op == "wrregion" and isinstance(instr.operands[0], Value):
                self._union(instr.result, instr.operands[0])

    def vreg_for(self, v: Value) -> VReg:
        rep = self._rep(v)
        if rep not in self._vreg_of_class:
            self._vreg_of_class[rep] = self.prog.new_vreg(
                v.vtype.size_bytes, name=v.name)
        vreg = self._vreg_of_class[rep]
        if v.vtype.size_bytes > vreg.size_bytes:
            vreg.size_bytes = v.vtype.size_bytes
        return vreg

    # -- constants ------------------------------------------------------------

    def materialize_constant(self, v: Value) -> VReg:
        """Emit movs filling a vreg with a non-splat constant vector."""
        if v.id in self._materialized_consts:
            return self._materialized_consts[v.id]
        arr = self.fn.constants[v.id]
        dt = v.vtype.dtype
        vreg = self.vreg_for(v)
        # Gen vector immediates pack 8 elements; one mov per 8.
        for i in range(0, arr.size, 8):
            chunk = arr[i:i + 8]
            dst = VOperand(vreg, dt, offset_bytes=i * dt.size)
            self.prog.instrs.append(VInstr(
                Opcode.MOV, exec_size=len(chunk), dst=dst,
                srcs=[VVectorImm(chunk.copy(), dt)]))
        self._materialized_consts[v.id] = vreg
        return vreg

    def _const_splat(self, v: Value):
        arr = self.fn.constant_of(v)
        if arr is None or arr.size == 0:
            return None
        if np.all(arr == arr.flat[0]):
            return arr.flat[0]
        return None

    # -- operand lowering -------------------------------------------------

    def _src_pattern(self, instr: Instr, op_index: int, n: int):
        """(value, element pattern) for operand ``op_index`` of a root."""
        regions = self.bales.src_regions.get(id(instr), {})
        op = instr.operands[op_index]
        if op_index in regions:
            rd = regions[op_index]
            base = rd.operands[0]
            # The region formula covers replicate patterns directly:
            # element i = offset + (i // width) * vstride + (i % width) * h.
            pat = IndexPattern.of_region(rd.region, base.vtype.dtype.size)
            m = rd.result.vtype.n
            if m < n:
                # a shorter read repeats (scalar-region reads broadcast)
                step = pat.step(0, m) if m > 1 else 0
                if step is None:
                    raise CompileError("cannot repeat a multi-row region")
                pat = IndexPattern(pat.off, 0, m, step)
            return base, pat
        if isinstance(op, Value):
            return op, IndexPattern.linear(0, 1 if op.vtype.n == n else 0)
        return op, None

    # -- emission --------------------------------------------------------

    def emit(self) -> VProgram:
        self._assign_classes()
        self._mutated_reps = {
            self._rep(i.operands[0]) for i in self.fn.instrs
            if i.op == "wrregion" and isinstance(i.operands[0], Value)}
        if self._has_cf:
            # Constants must live in registers before the first divergent
            # region: a lazy materialization at the first consumer could
            # land inside a loop body, where the init movs would re-run
            # every iteration under the loop mask (corrupting mutated
            # classes and leaving never-active lanes uninitialized).
            for instr in self.fn.instrs:
                if instr.op == "constant":
                    self.materialize_constant(instr.result)
        for instr in self.fn.instrs:
            if self.bales.is_absorbed(instr):
                continue
            op = instr.op
            if op == "constant":
                uses = self.fn.uses().get(instr.result.id, [])
                del uses  # materialized lazily by consumers
                continue
            if op.startswith("simd."):
                self._emit_cf(instr)
                continue
            if op == "param":
                vreg = self.prog.new_vreg(4, name=instr.attrs["name"])
                self.prog.params[instr.attrs["name"]] = vreg
                self._vreg_of_class[self._rep(instr.result)] = vreg
                continue
            if op in ROOT_OPS:
                self._emit_root(instr)
            elif op == "wrregion":
                self._emit_wrregion_copy(instr)
            elif op == "rdregion":
                self._emit_rdregion_copy(instr)
            elif op.startswith(("media.", "oword.")) or op in ("gather",
                                                               "scatter"):
                self._emit_memory(instr)
            else:
                raise CompileError(f"cannot emit {op!r}")
        return self.prog

    # .. structured control flow .............................................

    def _emit_cf(self, instr: Instr) -> None:
        """Lower a ``simd.*`` marker to its masked-CF Gen instruction.

        Conditional markers (if/while/break) carry a full-width UW
        condition vector; each lowers to ``cmp.ne f0, cond, 0``
        immediately followed by the f0-predicated CF instruction.  The
        unconditional markers (else/endif/do) are bare mask-stack ops.
        """
        op = _CF_OP_MAP[instr.op]
        width = int(instr.attrs.get("width", 0) or 1)
        if width > 32:
            raise CompileError(
                f"divergent control flow is limited to 32 lanes "
                f"(got width {width})")
        if instr.operands:
            cond = instr.operands[0]
            if self.fn.constant_of(cond) is not None:
                self.materialize_constant(cond)
            src = VOperand.packed(self.vreg_for(cond), cond.vtype.dtype,
                                  n=cond.vtype.n)
            self.prog.instrs.append(VInstr(
                Opcode.CMP, exec_size=cond.vtype.n,
                srcs=[src, VImm(0, cond.vtype.dtype)],
                cond_mod=CondMod.NE))
            self.prog.instrs.append(VInstr(op, exec_size=width,
                                           pred_flag=0))
        else:
            self.prog.instrs.append(VInstr(op, exec_size=width))
        if instr.op in ("simd.if", "simd.do"):
            self._cf_depth += 1
        elif instr.op in ("simd.endif", "simd.while"):
            self._cf_depth -= 1

    def _check_cf_dst(self, dst: IndexPattern, n: int) -> None:
        """Divergent-region writes must map element i to lane i.

        Masked execution identifies destination elements with SIMD-CF
        channels; a strided or offset write region inside a divergent
        region would pair element k with channel k's active bit, which
        is only meaningful for full-width lane-major writes.
        """
        if self._cf_depth and n > 1 and \
                (dst.off != 0 or dst.step(0, n) != 1):
            raise CompileError(
                "partial-region writes inside simd_if/simd_while are not "
                "supported; assign whole CF-width vectors in divergent "
                "regions")

    # .. roots ...............................................................

    def _effective_dst(self, instr: Instr):
        """(dst value, element pattern, dtype, n) after dst conv/wrregion
        bales."""
        result = instr.result
        dtype = result.vtype.dtype
        conv = self.bales.dst_conv.get(id(instr))
        if conv is not None:
            result = conv.result
            dtype = result.vtype.dtype
        wr = self.bales.dst_wrregion.get(id(instr))
        if wr is not None:
            elem = wr.operands[0].vtype.dtype.size
            return (wr.result, IndexPattern.of_region(wr.region, elem),
                    wr.result.vtype.dtype, wr.operands[1].vtype.n)
        return result, IndexPattern.linear(), dtype, result.vtype.n

    def _lower_source(self, instr: Instr, i: int, n: int):
        op = instr.operands[i]
        if isinstance(op, Value):
            const_splat = self._const_splat(op)
            if const_splat is not None and op.producer is not None \
                    and op.producer.op == "constant" \
                    and not (self._has_cf
                             and self._rep(op) in self._mutated_reps):
                # A mutated class's init constant cannot fold to an
                # immediate under CF: in-loop reads must see the updated
                # register, not the initial value.
                return ("imm", VImm(const_splat.item(), op.vtype.dtype), None)
            if self.fn.constant_of(op) is not None:
                self.materialize_constant(op)
            base, pat = self._src_pattern(instr, i, n)
            return ("reg", base, pat)
        # python scalar
        dt = D if isinstance(op, (int, np.integer)) else \
            instr.result.vtype.dtype
        return ("imm", VImm(op, dt), None)

    def _overlaps_hazardously(self, dst_val, dst, n, srcs) -> bool:
        """True when a split op could read registers an earlier chunk wrote.

        Gen reads all sources before writing within ONE instruction, but
        legalization splits wide ops: if the destination storage aliases a
        source with a *different* element pattern, a later chunk may read
        data an earlier chunk already overwrote.
        """
        dst_rep = self._rep(dst_val)
        for kind, payload, pat in srcs:
            if kind != "reg" or pat is None:
                continue
            if self._rep(payload) != dst_rep:
                continue
            if pat != dst and not np.array_equal(pat.indices(n),
                                                 dst.indices(n)):
                return True
        return False

    def _emit_root(self, instr: Instr) -> None:
        if instr.op == "sel":
            self._emit_sel(instr)
            return
        is_cmp = instr.op.startswith("cmp.")
        dst_val, dst, dst_dtype, n = self._effective_dst(instr)
        srcs = [self._lower_source(instr, i, n)
                for i in range(len(instr.operands))]
        opcode = Opcode.CMP if is_cmp else _OPCODE_MAP[instr.op]
        cond = CondMod(instr.op.split(".")[1]) if is_cmp else None
        if self._overlaps_hazardously(dst_val, dst, n, srcs):
            # Compute into a fresh temporary, then copy into the aliased
            # destination region (the copy's source cannot alias its dst).
            tmp = self.prog.new_vreg(n * dst_dtype.size, name="ovl")
            packed = IndexPattern.linear()
            self._emit_legalized(opcode, cond, tmp, dst_dtype,
                                 packed, srcs, n)
            dst_vreg = self.vreg_for(dst_val)
            self._emit_legalized(
                Opcode.MOV, None, dst_vreg, dst_dtype, dst,
                [("vreg", (tmp, dst_dtype), packed)], n)
            return
        dst_vreg = self.vreg_for(dst_val)
        self._emit_legalized(opcode, cond, dst_vreg, dst_dtype, dst,
                             srcs, n)

    def _emit_sel(self, instr: Instr) -> None:
        """sel(mask, x, y): cmp to a flag, then predicated sel."""
        dst_val, dst, dst_dtype, n = self._effective_dst(instr)
        srcs = [self._lower_source(instr, i, n) for i in range(3)]
        dst_vreg = self.vreg_for(dst_val)
        self._check_cf_dst(dst, n)
        in_cf = self._cf_depth > 0 and n > 1
        for lo, hi, regions in self._chunks(n, dst_dtype, dst, srcs):
            off = lo if in_cf else 0
            mask, x, y = [self._chunk_operand(s, lo, r)
                          for s, r in zip(srcs, regions)]
            self.prog.instrs.append(VInstr(
                Opcode.CMP, exec_size=hi - lo, dst=None,
                srcs=[mask, VImm(0, UW)], cond_mod=CondMod.NE,
                emask_off=off))
            self.prog.instrs.append(VInstr(
                Opcode.SEL, exec_size=hi - lo,
                dst=self._dst_operand(dst_vreg, dst_dtype, dst, lo, hi),
                srcs=[x, y], pred_flag=0, emask_off=off))

    # .. legalization ........................................................

    def _chunks(self, n: int, dst_dtype: DType, dst: IndexPattern, srcs):
        """Split [0, n) into legal executable chunks.

        Yields ``(lo, hi, regions)``: ``regions[k]`` is source ``k``'s
        ``<V;W,H>`` over the chunk (``None`` for an immediate).  The
        first chunk width (widest first) that keeps the destination a
        non-negative strided run and every source a single region wins.
        """
        max_elem = dst_dtype.size
        for kind, payload, _pat in srcs:
            if kind == "reg":
                max_elem = max(max_elem, payload.vtype.dtype.size)
            elif kind == "vreg":
                max_elem = max(max_elem, payload[1].size)
        pats = [pat if kind in ("reg", "vreg") else None
                for kind, _payload, pat in srcs]
        lo = 0
        while lo < n:
            for e in (32, 16, 8, 4, 2, 1):
                if lo + e > n or e * max_elem > 64:
                    continue
                if e > 1:
                    step = dst.step(lo, e)
                    if step is None or step < 0:
                        continue
                regions = [None if p is None else p.chunk_region(lo, e)
                           for p in pats]
                if all(r is not None for r, p in zip(regions, pats)
                       if p is not None):
                    yield lo, lo + e, regions
                    lo += e
                    break
            else:
                raise CompileError("cannot legalize operation chunk")

    def _chunk_operand(self, src, lo: int, region) -> VSource:
        kind, payload, pat = src
        if kind == "imm":
            return payload
        if kind == "vreg":
            vreg, dtype = payload
        else:
            vreg, dtype = self.vreg_for(payload), payload.vtype.dtype
        return VOperand(vreg, dtype, offset_bytes=pat.at(lo) * dtype.size,
                        vstride=region.vstride, width=region.width,
                        hstride=region.hstride)

    def _dst_operand(self, vreg: VReg, dtype: DType, dst: IndexPattern,
                     lo: int, hi: int) -> VOperand:
        stride = dst.step(lo, hi - lo) if hi - lo > 1 else 1
        return VOperand(vreg, dtype, offset_bytes=dst.at(lo) * dtype.size,
                        dst_stride=max(stride, 1))

    def _emit_legalized(self, opcode, cond, dst_vreg, dst_dtype, dst,
                        srcs, n) -> None:
        self._check_cf_dst(dst, n)
        in_cf = self._cf_depth > 0 and n > 1
        for lo, hi, regions in self._chunks(n, dst_dtype, dst, srcs):
            ops = [self._chunk_operand(s, lo, r)
                   for s, r in zip(srcs, regions)]
            self.prog.instrs.append(VInstr(
                opcode, exec_size=hi - lo,
                dst=self._dst_operand(dst_vreg, dst_dtype, dst, lo, hi),
                srcs=ops, cond_mod=cond, emask_off=lo if in_cf else 0))

    # .. unbaled region ops (plain copies) ..................................

    def _emit_rdregion_copy(self, instr: Instr) -> None:
        base = instr.operands[0]
        if self.fn.constant_of(base) is not None:
            self.materialize_constant(base)
        src = IndexPattern.of_region(instr.region, base.vtype.dtype.size)
        dst_vreg = self.vreg_for(instr.result)
        self._emit_legalized(Opcode.MOV, None, dst_vreg,
                             instr.result.vtype.dtype, IndexPattern.linear(),
                             [("reg", base, src)], instr.result.vtype.n)

    def _emit_wrregion_copy(self, instr: Instr) -> None:
        old, new = instr.operands
        elem = old.vtype.dtype.size
        if isinstance(new, Value) and self.fn.constant_of(new) is not None:
            self.materialize_constant(new)
        n = new.vtype.n
        dst = IndexPattern.of_region(instr.region, elem)
        packed = IndexPattern.linear()
        src = ("reg", new, packed)
        if self._overlaps_hazardously(instr.result, dst, n, [src]):
            tmp = self.prog.new_vreg(n * new.vtype.dtype.size, name="ovl")
            self._emit_legalized(Opcode.MOV, None, tmp, new.vtype.dtype,
                                 packed, [src], n)
            src = ("vreg", (tmp, new.vtype.dtype), packed)
        dst_vreg = self.vreg_for(instr.result)  # same class as old
        self._emit_legalized(Opcode.MOV, None, dst_vreg,
                             instr.result.vtype.dtype, dst, [src], n)

    # .. memory ...............................................................

    def _addr_operand(self, op):
        if isinstance(op, Value):
            return VOperand.packed(self.vreg_for(op), D, 0, 1)
        return VImm(int(op), D)

    def _emit_memory(self, instr: Instr) -> None:
        op = instr.op
        msg: dict = {"kind": op, "bti": instr.operands[0]}
        if op == "media.read":
            msg.update(x=self._addr_operand(instr.operands[1]),
                       y=self._addr_operand(instr.operands[2]),
                       width=instr.attrs["width"],
                       height=instr.attrs["height"])
            dst = VOperand.packed(self.vreg_for(instr.result),
                                  instr.result.vtype.dtype)
            self.prog.instrs.append(VInstr(Opcode.SEND, dst=dst, msg=msg))
        elif op == "media.write":
            data = instr.operands[3]
            msg.update(x=self._addr_operand(instr.operands[1]),
                       y=self._addr_operand(instr.operands[2]),
                       width=instr.attrs["width"],
                       height=instr.attrs["height"],
                       payload=self._payload(data))
            self.prog.instrs.append(VInstr(Opcode.SEND, msg=msg))
        elif op == "oword.read":
            msg.update(offset=self._addr_operand(instr.operands[1]),
                       nbytes=instr.result.vtype.size_bytes)
            dst = VOperand.packed(self.vreg_for(instr.result),
                                  instr.result.vtype.dtype)
            self.prog.instrs.append(VInstr(Opcode.SEND, dst=dst, msg=msg))
        elif op == "oword.write":
            data = instr.operands[2]
            msg.update(offset=self._addr_operand(instr.operands[1]),
                       nbytes=data.vtype.size_bytes,
                       payload=self._payload(data))
            self.prog.instrs.append(VInstr(Opcode.SEND, msg=msg))
        elif op == "gather":
            offs = instr.operands[2]
            msg.update(global_offset=self._addr_operand(instr.operands[1]),
                       addr=self._payload(offs),
                       elem=instr.result.vtype.dtype,
                       n=instr.result.vtype.n)
            dst = VOperand.packed(self.vreg_for(instr.result),
                                  instr.result.vtype.dtype)
            self.prog.instrs.append(VInstr(Opcode.SEND, dst=dst, msg=msg))
        elif op == "scatter":
            offs, data = instr.operands[2], instr.operands[3]
            msg.update(global_offset=self._addr_operand(instr.operands[1]),
                       addr=self._payload(offs),
                       elem=data.vtype.dtype,
                       n=data.vtype.n,
                       payload=self._payload(data))
            self.prog.instrs.append(VInstr(Opcode.SEND, msg=msg))
        else:
            raise CompileError(f"unknown memory op {op!r}")

    def _payload(self, value: Value) -> VOperand:
        if self.fn.constant_of(value) is not None:
            self.materialize_constant(value)
        return VOperand.packed(self.vreg_for(value), value.vtype.dtype,
                               n=value.vtype.n)


def emit_visa(fn: Function, bales: BaleInfo) -> VProgram:
    """Lower an optimized Function to legalized vISA."""
    return _Emitter(fn, bales).emit()
