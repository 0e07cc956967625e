"""Functional executor for Gen ISA programs.

This is the "hardware" that programs produced by the CM compiler back end
run on.  It owns a :class:`~repro.isa.grf.GRFFile` per thread, a set of
flag registers, and a binding table mapping surface indices to memory
objects from :mod:`repro.memory`.

Programs may contain structured SIMD control flow
(:data:`~repro.isa.instructions.CF_OPCODES`): :meth:`run` becomes
PC-driven for those, maintaining a per-thread execution-mask frame stack
— IF/ELSE/ENDIF/BREAK only manipulate masks (every instruction is still
stepped through, even with an all-zero mask, which keeps sequential and
JIT dispatch bit-identical in both results and timing), and WHILE is
the single back-edge, jumping to the instruction after its matching DO.
Vector writes inside a divergent region are merged under the active
mask; scalar (``exec_size == 1``) instructions stay unmasked, matching
CM's rule that non-SIMD-width operations inside SIMD CF are uniform.

The executor is *functional*: it computes architectural state only.
Timing is the job of :mod:`repro.sim.timing` (the eager path); the
compiler path exists to validate codegen (Section V of the paper) by
differential testing against the eager path.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.isa.dtypes import DType, UD, convert, promote, signed, unsigned
from repro.isa.grf import GRFFile, RegOperand, GRF_SIZE_BYTES
from repro.isa.instructions import (
    CF_OPCODES, CondMod, Immediate, Instruction, MathFn, MsgKind, Opcode,
)
from repro.isa.plans import PlanTable
from repro.isa.regions import Region

#: Upper bound on dynamically executed instructions in one CF program
#: run — a runaway-loop guard (a divergent WHILE whose condition never
#: clears), set far above anything a real kernel executes.
CF_STEP_LIMIT = 4_000_000


class ExecutionError(RuntimeError):
    """Raised when a program performs an illegal operation."""


def _emask_off(inst: Instruction) -> int:
    """Lane offset of the instruction's execution-mask window (``M8`` ->
    8).  Cached on the instruction: the asm-text parse runs once."""
    off = inst.__dict__.get("_moff")
    if off is None:
        em = inst.emask
        off = int(em[1:]) if em and em[0] == "M" and em[1:].isdigit() else 0
        inst.__dict__["_moff"] = off
    return off


class FunctionalExecutor:
    """Execute a straight-line Gen program for a single hardware thread.

    The executor may be *pooled*: :meth:`reset` zeroes architectural state
    so the same instance can run another thread of the same (or another)
    program.  Because a compiled program is identical for every thread,
    region byte-index plans and immediate operand arrays are memoized
    across :meth:`reset` calls — this is what makes the batched dispatch
    path in :mod:`repro.sim.device` fast.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128) -> None:
        self.grf = GRFFile(num_regs)
        self.flags: dict[int, np.ndarray] = {}
        self.surfaces = dict(surfaces or {})
        self.instructions_executed = 0
        #: (operand, exec_size) -> byte-index array; survives reset().
        #: Keyed by operand *value* (RegOperand is a frozen dataclass),
        #: so entries are never stale regardless of program lifetime.
        self._region_plans: dict = {}
        #: (Immediate, exec_size) -> read-only broadcast array.
        self._imm_cache: dict = {}
        #: the :class:`~repro.isa.plans.PlanTable` bound to the program
        #: currently being run.  Fully-resolved per-instruction plans
        #: live here, keyed by (program, index) — never by ``id(inst)``,
        #: which goes stale when an Instruction object is recycled into
        #: a new program.  ``run()`` rebinds/rebuilds on program change,
        #: so a pooled executor holds at most one program's plans.
        self.plans: PlanTable | None = None
        #: optional sanitizer hook bundle
        #: (:class:`repro.sanitize.hooks.ExecSanitizer`); when set,
        #: ``before_inst``/``after_inst`` are called around every
        #: instruction.  Sequential dispatch only — the JIT executor
        #: refuses to run with hooks attached.
        self.san = None
        #: SIMD-CF state: the (32,) active-lane mask (``None`` outside a
        #: control-flow program), the mask frame stack, the PC of the
        #: instruction currently executing, and the back-edge request.
        self._active: np.ndarray | None = None
        self._cf_frames: list = []
        self._pc: int | None = None
        self._jump: int | None = None

    def reset(self) -> None:
        """Zero architectural state (GRF, flags) for the next thread.

        Operand plans are kept: they depend only on the program text,
        not on thread state.
        """
        self.grf.bytes.fill(0)
        self.flags.clear()
        self.instructions_executed = 0
        self._active = None
        self._cf_frames = []

    def rebind(self, surfaces: Mapping[int, object]) -> None:
        """Swap the binding table (e.g. for the next launch)."""
        self.surfaces = dict(surfaces)

    # -- operand access ----------------------------------------------------

    def _src_plan(self, operand: RegOperand, n: int) -> np.ndarray:
        key = (operand, n)
        idx = self._region_plans.get(key)
        if idx is None:
            offs = self.grf._element_byte_offsets(
                operand.byte_offset, operand.dtype, operand.region, n)
            idx = offs[:, None] + np.arange(operand.dtype.size)
            self._region_plans[key] = idx
        return idx

    def _dst_plan(self, operand: RegOperand, n: int) -> np.ndarray:
        key = (operand, n, "dst")
        idx = self._region_plans.get(key)
        if idx is None:
            region = Region(n * operand.dst_stride, n, operand.dst_stride)
            offs = self.grf._element_byte_offsets(
                operand.byte_offset, operand.dtype, region, n)
            idx = offs[:, None] + np.arange(operand.dtype.size)
            self._region_plans[key] = idx
        return idx

    def _fetch(self, src, exec_size: int) -> np.ndarray:
        if isinstance(src, Immediate):
            key = (src, exec_size)
            arr = self._imm_cache.get(key)
            if arr is None:
                arr = np.full(exec_size, src.value, dtype=src.dtype.np_dtype)
                arr.flags.writeable = False
                self._imm_cache[key] = arr
            return arr
        if isinstance(src, RegOperand):
            idx = self._src_plan(src, exec_size)
            return self.grf.bytes[idx].view(src.dtype.np_dtype).ravel()
        values = getattr(src, "values", None)
        if values is not None:  # packed vector immediate
            key = (src, exec_size)
            arr = self._imm_cache.get(key)
            if arr is None:
                arr = np.resize(
                    np.asarray(values, dtype=src.dtype.np_dtype), exec_size)
                arr.flags.writeable = False
                self._imm_cache[key] = arr
            return arr
        raise ExecutionError(f"bad source operand {src!r}")

    def _write_dst(self, operand: RegOperand, values: np.ndarray,
                   mask: np.ndarray | None = None,
                   idx: np.ndarray | None = None) -> None:
        """Planned equivalent of ``grf.write_region`` (same semantics)."""
        if values.dtype != operand.dtype.np_dtype or \
                not values.flags["C_CONTIGUOUS"]:
            values = np.ascontiguousarray(values, dtype=operand.dtype.np_dtype)
        n = values.size
        if idx is None:
            idx = self._dst_plan(operand, n)
        raw = values.view(np.uint8).reshape(n, operand.dtype.size)
        if mask is None:
            self.grf.bytes[idx] = raw
        else:
            keep = np.asarray(mask, dtype=bool)
            self.grf.bytes[idx[keep]] = raw[keep]

    def _src_dtype(self, src) -> DType:
        return src.dtype


    def _flag_lanes(self, index: int) -> np.ndarray:
        if index not in self.flags:
            self.flags[index] = np.zeros(32, dtype=bool)
        return self.flags[index]

    def _pred_mask(self, inst: Instruction) -> np.ndarray | None:
        if inst.pred is None:
            return None
        lanes = self._flag_lanes(inst.pred.flag.index)[: inst.exec_size]
        return ~lanes if inst.pred.invert else lanes.copy()

    def _cf_active_lanes(self, inst: Instruction) -> np.ndarray | None:
        """The SIMD-CF active-mask window for this instruction's lanes.

        ``None`` means "no masking needed": either the program has no
        control flow, the instruction is scalar (uniform inside SIMD CF
        per the CM spec), or every covered lane is active.  Lane ``i``
        of an instruction maps to hardware channel ``emask_offset + i``
        (the legalizer stamps split chunks with their channel offset).
        """
        act = self._active
        if act is None:
            return None
        n = inst.exec_size
        if n == 1:
            return None
        off = _emask_off(inst)
        if off + n > 32:
            raise ExecutionError(
                f"operation covers lanes {off}..{off + n - 1} inside SIMD "
                f"control flow (only 32 execution-mask channels exist)")
        lanes = act[off:off + n]
        if lanes.all():
            return None
        return lanes

    def _exec_mask(self, inst: Instruction) -> np.ndarray | None:
        """Combined write-enable: predicate AND SIMD-CF active lanes."""
        pred = self._pred_mask(inst)
        lanes = self._cf_active_lanes(inst)
        if lanes is None:
            return pred
        return lanes.copy() if pred is None else pred & lanes

    # -- main loop -----------------------------------------------------------

    def bind_plans(self, table: PlanTable | None) -> None:
        """Adopt a shared plan table (e.g. one attached to a kernel).

        ``run()`` verifies the binding and replaces it if the program
        differs, so a wrong table can never be *used* — binding merely
        lets executors share plan construction work for the same
        program (and ties plan lifetime to the table's owner).
        """
        if table is not None:
            self.plans = table

    def _bind_program(self, program: Sequence[Instruction]) -> PlanTable:
        table = self.plans
        if table is None or not table.matches(program):
            self.plans = table = PlanTable(program)
        return table

    def run(self, program: Sequence[Instruction]) -> None:
        table = self._bind_program(program)
        if not table.cf_plan().has_cf:
            for inst in program:
                self.execute(inst)
            return
        self._run_cf(program)

    def _run_cf(self, program: Sequence[Instruction]) -> None:
        """PC-driven dispatch for programs with SIMD control flow."""
        self._active = np.ones(32, dtype=bool)
        self._cf_frames = []
        pc = 0
        n = len(program)
        steps = 0
        try:
            while pc < n:
                steps += 1
                if steps > CF_STEP_LIMIT:
                    raise ExecutionError(
                        f"SIMD control flow executed more than "
                        f"{CF_STEP_LIMIT} instructions (runaway loop?)")
                self._pc = pc
                self._jump = None
                self.execute(program[pc])
                pc = pc + 1 if self._jump is None else self._jump
        finally:
            self._active = None
            self._cf_frames = []
            self._pc = None
            self._jump = None

    def execute(self, inst: Instruction) -> None:
        self.instructions_executed += 1
        san = self.san
        if san is not None:
            san.before_inst(self, inst)
        op = inst.opcode
        if op is Opcode.SEND:
            self._execute_send(inst)
        elif op is Opcode.CMP:
            self._execute_cmp(inst)
        elif op in CF_OPCODES:
            self._execute_cf(inst)
        elif op is not Opcode.NOP and op is not Opcode.BARRIER:
            self._execute_alu(inst)
        if san is not None:
            san.after_inst(self, inst)

    # -- SIMD control flow -----------------------------------------------

    def _cf_cond(self, inst: Instruction) -> np.ndarray:
        """The (32,) lane set an IF/WHILE/BREAK acts on: the predicate's
        flag lanes (all lanes when unpredicated) ANDed with the current
        active mask."""
        act = self._active
        if inst.pred is None:
            return act.copy()
        lanes = self._flag_lanes(inst.pred.flag.index)[: inst.exec_size]
        if inst.pred.invert:
            lanes = ~lanes
        cond = np.zeros(32, dtype=bool)
        cond[: inst.exec_size] = lanes
        cond &= act
        return cond

    def _execute_cf(self, inst: Instruction) -> None:
        """Mask-stack semantics of the structured CF opcodes.

        Frames are ``["if", restore_mask, else_mask]`` or
        ``["do", restore_mask, body_pc]``.  No instruction is ever
        skipped; only WHILE changes the PC (via ``self._jump``).
        """
        op = inst.opcode
        act = self._active
        if act is None:
            raise ExecutionError(
                "SIMD control flow requires PC-driven dispatch; "
                "call run() rather than execute()")
        frames = self._cf_frames
        if op is Opcode.SIMD_IF:
            cond = self._cf_cond(inst)
            frames.append(["if", act, act & ~cond])
            self._active = cond
        elif op is Opcode.SIMD_ELSE:
            if not frames or frames[-1][0] != "if":
                raise ExecutionError("simd_else without an open simd_if")
            self._active = frames[-1][2]
        elif op is Opcode.SIMD_ENDIF:
            if not frames or frames[-1][0] != "if":
                raise ExecutionError("simd_endif without an open simd_if")
            self._active = frames.pop()[1]
        elif op is Opcode.SIMD_DO:
            if self._pc is None:
                raise ExecutionError(
                    "simd_do outside run() (no PC to capture)")
            frames.append(["do", act, self._pc + 1])
        elif op is Opcode.SIMD_WHILE:
            if not frames or frames[-1][0] != "do":
                raise ExecutionError("simd_while without an open simd_do")
            cond = self._cf_cond(inst)
            if cond.any():
                self._active = cond
                self._jump = frames[-1][2]
            else:
                self._active = frames.pop()[1]
        elif op is Opcode.SIMD_BREAK:
            cond = self._cf_cond(inst)
            self._active = act & ~cond
            # Broken lanes leave every IF frame up to the innermost loop
            # too — they must not resurrect at an ELSE/ENDIF before the
            # loop exit restores them.
            for fr in reversed(frames):
                if fr[0] == "do":
                    break
                fr[1] = fr[1] & ~cond
                fr[2] = fr[2] & ~cond
            else:
                raise ExecutionError("simd_break outside a simd_do loop")

    # -- ALU ------------------------------------------------------------------

    def _plan_slot(self, inst: Instruction):
        """(table, slot, cached plan) for an instruction of the bound
        program; (None, None, None) for ad-hoc ``execute()`` calls."""
        table = self.plans
        if table is not None:
            slot = table.slot(inst)
            if slot is not None:
                return table, slot, table.plans[slot]
        return None, None, None

    def _alu_plan(self, inst: Instruction) -> tuple:
        """Resolve everything about an ALU instruction that does not
        depend on thread state: source index plans / broadcast arrays and
        the promoted execution type.  A compiled program runs the same
        ``Instruction`` objects for every thread, so plans are built once
        per program and stored in the bound :class:`PlanTable` slot (ad-hoc
        instructions outside the bound program get an unmemoized plan)."""
        table, slot, plan = self._plan_slot(inst)
        if plan is not None:
            return plan
        n = inst.exec_size
        fetchers = []
        for s in inst.srcs:
            if isinstance(s, RegOperand):
                fetchers.append((self._src_plan(s, n), s.dtype.np_dtype))
            else:
                arr = np.asarray(self._fetch(s, n))
                arr.flags.writeable = False
                fetchers.append((None, arr))
        exec_dtype = None
        if inst.opcode is not Opcode.MOV and inst.opcode is not Opcode.SEL:
            exec_dtype = self._src_dtype(inst.srcs[0])
            for s in inst.srcs[1:]:
                exec_dtype = promote(exec_dtype, self._src_dtype(s))
            if not inst.dst.dtype.is_float and exec_dtype.is_float and \
                    inst.opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
                raise ExecutionError("bitwise ops on float operands")
        dst_idx = self._dst_plan(inst.dst, n) if inst.dst is not None else None
        # sel writes all lanes (the predicate only chooses the source), so
        # its write goes through an unpredicated clone.  Clone once here
        # rather than on every execution.
        nopred = _without_pred(inst) \
            if inst.opcode is Opcode.SEL and inst.pred is not None else None
        plan = (inst, fetchers, exec_dtype, dst_idx, nopred)
        if table is not None:
            table.plans[slot] = plan
        return plan

    def _execute_alu(self, inst: Instruction) -> None:
        dst = inst.dst
        if dst is None:
            raise ExecutionError(f"ALU instruction without destination: {inst}")
        _, fetchers, exec_dtype, dst_idx, nopred = self._alu_plan(inst)
        grf_bytes = self.grf.bytes
        srcs = [payload if idx is None else
                grf_bytes[idx].view(payload).ravel()
                for idx, payload in fetchers]

        if inst.opcode is Opcode.MOV:
            result = srcs[0]
        elif inst.opcode is Opcode.SEL:
            mask = self._pred_mask(inst)
            if mask is None:
                raise ExecutionError("sel requires a predicate")
            result = np.where(mask, srcs[0], srcs[1])
            # sel writes all lanes; the predicate only chooses the source.
            inst = nopred
        else:
            ops = [s if s.dtype == exec_dtype.np_dtype else
                   convert(s, exec_dtype) for s in srcs]
            result = _alu_compute(inst, exec_dtype, ops)

        if inst.sat or result.dtype != dst.dtype.np_dtype:
            result = convert(result, dst.dtype, saturate=inst.sat)
        self._write_dst(dst, result, mask=self._exec_mask(inst), idx=dst_idx)

    def _cmp_plan(self, inst: Instruction) -> tuple:
        """Like :meth:`_alu_plan`, for CMP: source plans, the promoted
        comparison dtype, the resolved comparison ufunc, and the planned
        destination indices (when CMP also writes a bool-vector dst)."""
        table, slot, plan = self._plan_slot(inst)
        if plan is not None:
            return plan
        n = inst.exec_size
        fetchers = []
        for s in inst.srcs:
            if isinstance(s, RegOperand):
                fetchers.append((self._src_plan(s, n), s.dtype.np_dtype))
            else:
                arr = np.asarray(self._fetch(s, n))
                arr.flags.writeable = False
                fetchers.append((None, arr))
        exec_dtype = promote(self._src_dtype(inst.srcs[0]),
                             self._src_dtype(inst.srcs[1]))
        cmp_fn = {
            CondMod.EQ: np.equal, CondMod.NE: np.not_equal,
            CondMod.LT: np.less, CondMod.LE: np.less_equal,
            CondMod.GT: np.greater, CondMod.GE: np.greater_equal,
        }[inst.cond_mod]
        dst_idx = self._dst_plan(inst.dst, n) if inst.dst is not None else None
        plan = (inst, fetchers, exec_dtype, cmp_fn, dst_idx)
        if table is not None:
            table.plans[slot] = plan
        return plan

    def _execute_cmp(self, inst: Instruction) -> None:
        _, fetchers, exec_dtype, cmp_fn, dst_idx = self._cmp_plan(inst)
        grf_bytes = self.grf.bytes
        a, b = [payload if idx is None else
                grf_bytes[idx].view(payload).ravel()
                for idx, payload in fetchers]
        result = cmp_fn(convert(a, exec_dtype), convert(b, exec_dtype))
        flag = self._flag_lanes(inst.flag.index if inst.flag else 0)
        lanes = self._cf_active_lanes(inst)
        if lanes is None:
            flag[: inst.exec_size] = result
        else:
            # Inside divergent control flow only active lanes update the
            # flag (inactive lanes keep their previous flag bits).
            np.copyto(flag[: inst.exec_size], result, where=lanes)
        if inst.dst is not None:
            self._write_dst(inst.dst, result.astype(inst.dst.dtype.np_dtype),
                            mask=lanes, idx=dst_idx)

    # -- memory ------------------------------------------------------------

    def _surface(self, index: int):
        try:
            return self.surfaces[index]
        except KeyError:
            raise ExecutionError(f"no surface bound at BTI {index}") from None

    def _scalar(self, src) -> int:
        if isinstance(src, Immediate):
            return int(src.value)
        return int(self.grf.read_region(src, 1)[0])

    def _execute_send(self, inst: Instruction) -> None:
        msg = inst.msg
        if msg is None:
            raise ExecutionError("send without message descriptor")
        surf = self._surface(msg.surface)
        kind = msg.kind
        base = msg.payload_reg * GRF_SIZE_BYTES

        if kind is MsgKind.MEDIA_BLOCK_READ:
            x = self._scalar(msg.addr0)
            y = self._scalar(msg.addr1)
            block = surf.read_block(x, y, msg.block_width, msg.block_height)
            self.grf.write_bytes(base, block)
        elif kind is MsgKind.MEDIA_BLOCK_WRITE:
            x = self._scalar(msg.addr0)
            y = self._scalar(msg.addr1)
            data = self.grf.read_bytes(base, msg.block_width * msg.block_height)
            surf.write_block(x, y, msg.block_width, msg.block_height, data)
        elif kind is MsgKind.OWORD_BLOCK_READ:
            offset = self._scalar(msg.addr0)
            data = surf.read_linear(offset, msg.payload_bytes)
            self.grf.write_bytes(base, data)
        elif kind is MsgKind.OWORD_BLOCK_WRITE:
            offset = self._scalar(msg.addr0)
            data = self.grf.read_bytes(base, msg.payload_bytes)
            surf.write_linear(offset, data)
        elif kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
            self._execute_scattered(inst, surf)
        else:
            raise ExecutionError(f"unhandled message kind {kind}")

    def _execute_scattered(self, inst: Instruction, surf) -> None:
        msg = inst.msg
        n = inst.exec_size
        addr_op = RegOperand(msg.addr_reg, 0, UD,
                             region=_contiguous_region(n))
        offsets = self._fetch(addr_op, n).astype(np.int64)
        global_off = self._scalar(msg.addr0) if msg.addr0 is not None else 0
        elem = msg.elem_dtype
        # Scattered messages take element-granular offsets (CM semantics).
        offsets = (offsets + global_off) * elem.size
        base = msg.payload_reg * GRF_SIZE_BYTES
        mask = self._exec_mask(inst)

        if msg.kind is MsgKind.GATHER:
            data = surf.gather(offsets, elem, mask=mask)
            self.grf.write_bytes(base, np.ascontiguousarray(data))
        elif msg.kind is MsgKind.SCATTER:
            raw = self.grf.read_bytes(base, n * elem.size).view(elem.np_dtype)
            surf.scatter(offsets, raw, mask=mask)
        else:  # ATOMIC
            raw = None
            if msg.payload_bytes:
                raw = self.grf.read_bytes(base, n * elem.size).view(elem.np_dtype)
            old = surf.atomic(msg.atomic_op, offsets, raw, elem, mask=mask)
            if inst.dst is not None:
                # The return payload lands only in the *active* lanes of the
                # destination region; lanes the predicate disabled keep their
                # previous contents (hardware leaves them untouched).
                self._write_dst(inst.dst, np.ascontiguousarray(old),
                                mask=mask)


def _without_pred(inst: Instruction) -> Instruction:
    clone = Instruction(**{k: v for k, v in inst.__dict__.items()
                           if not k.startswith("_")})
    clone.pred = None
    return clone


def _alu_compute(inst: Instruction, exec_dtype: DType,
                 ops: list[np.ndarray]) -> np.ndarray:
    op = inst.opcode
    if op is Opcode.ADD:
        return ops[0] + ops[1]
    if op is Opcode.SUB:
        return ops[0] - ops[1]
    if op is Opcode.MUL:
        return ops[0] * ops[1]
    if op is Opcode.MAD:
        return ops[0] + ops[1] * ops[2]
    if op is Opcode.AND:
        return ops[0] & ops[1]
    if op is Opcode.OR:
        return ops[0] | ops[1]
    if op is Opcode.XOR:
        return ops[0] ^ ops[1]
    if op is Opcode.NOT:
        return ~ops[0]
    if op is Opcode.SHL:
        return ops[0] << ops[1]
    if op is Opcode.SHR:
        # Logical shift right: signed operands are reinterpreted as
        # unsigned so negative values shift in zero bits.
        if exec_dtype.is_float:
            raise ExecutionError("shr on float operands")
        if exec_dtype.is_signed:
            ut = unsigned(exec_dtype).np_dtype
            return ops[0].view(ut) >> ops[1].view(ut)
        return ops[0] >> ops[1]
    if op is Opcode.ASR:
        # Arithmetic shift right: unsigned operands are reinterpreted as
        # signed so the sign bit replicates.
        if exec_dtype.is_float:
            raise ExecutionError("asr on float operands")
        if not exec_dtype.is_signed:
            st = signed(exec_dtype).np_dtype
            return ops[0].view(st) >> ops[1].view(st)
        return ops[0] >> ops[1]
    if op is Opcode.MIN:
        return np.minimum(ops[0], ops[1])
    if op is Opcode.MAX:
        return np.maximum(ops[0], ops[1])
    if op is Opcode.AVG:
        return (ops[0] + ops[1] + 1) >> 1
    if op is Opcode.MATH:
        return _math_compute(inst.math_fn, ops)
    raise ExecutionError(f"unhandled opcode {op}")


def _math_compute(fn: MathFn, ops: list[np.ndarray]) -> np.ndarray:
    if fn is MathFn.INV:
        return 1.0 / ops[0]
    if fn is MathFn.SQRT:
        return np.sqrt(ops[0])
    if fn is MathFn.RSQRT:
        return 1.0 / np.sqrt(ops[0])
    if fn is MathFn.LOG:
        return np.log2(ops[0])
    if fn is MathFn.EXP:
        return np.exp2(ops[0])
    if fn is MathFn.POW:
        return np.power(ops[0], ops[1])
    if fn is MathFn.FDIV:
        return ops[0] / ops[1]
    if fn is MathFn.IDIV:
        return (ops[0] // ops[1]).astype(ops[0].dtype)
    if fn is MathFn.SIN:
        return np.sin(ops[0])
    if fn is MathFn.COS:
        return np.cos(ops[0])
    raise ExecutionError(f"unhandled math fn {fn}")


def _contiguous_region(n: int) -> Region:
    width = min(n, 8)
    return Region(width, width, 1)
