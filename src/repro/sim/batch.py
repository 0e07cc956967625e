"""Timing-aware execution of compiled kernels (the batched dispatch path).

The plain :class:`~repro.isa.executor.FunctionalExecutor` computes
architectural state only; the eager path gets its timing from the CM
intrinsics recording trace events as they run.  :class:`TracingExecutor`
closes the gap for *compiled* programs: it subclasses the functional
executor and records the same :class:`~repro.sim.trace.ThreadTrace`
events the eager intrinsics would — ALU issue, memory messages with
cache-line footprints, load-use dependency distances, atomics, barriers
— so a compiled launch can be timed with the same analytic model.

Message accounting matches :mod:`repro.cm.intrinsics` exactly (media
blocks split into 32Bx8 messages, oword blocks into 128B messages,
scattered messages into 16-lane messages, extra messages charged as two
scalar ops each): both paths take the split geometry from the shared
leaf module :mod:`repro.isa.msg_geometry`.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.isa.dtypes import DType, UD, promote
from repro.isa.executor import FunctionalExecutor, _contiguous_region
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import CF_OPCODES, Instruction, MsgKind, Opcode
from repro.isa.msg_geometry import (
    media_block_messages, oword_block_messages, scatter_messages,
)
from repro.isa.plans import source_regs
from repro.sim.trace import MemKind, ThreadTrace


def _alu_cost(inst: Instruction, machine) -> tuple:
    """(n_inst, issue_cycles) for one legalized ALU instruction.

    Same math as :meth:`ThreadTrace.alu` with ``inst_factor`` folded to
    1, precomputed so per-thread replay is two additions.  Shared with
    the JIT (:mod:`repro.isa.jit`), which sums these costs into the
    static blocks its megakernel charges once per row set.
    """
    exec_dtype: Optional[DType] = None
    for s in inst.srcs:
        t = getattr(s, "dtype", None)
        if t is not None:
            exec_dtype = t if exec_dtype is None else promote(exec_dtype, t)
    if exec_dtype is None and inst.dst is not None:
        exec_dtype = inst.dst.dtype
    n = inst.exec_size
    n_inst = -(-n // machine.native_simd(exec_dtype.size))
    lanes = machine.alu_lanes_per_cycle(exec_dtype,
                                        inst.opcode is Opcode.MATH)
    return (n_inst, max(n_inst * machine.issue_cycles_per_inst, n / lanes))


#: Scalar-op cost of each structured-CF opcode, mirroring the eager
#: path's accounting (simd-goto ≈ 2 scalar ops at a divergent branch,
#: simd-join ≈ 1 at a reconvergence point).  Thread-invariant, so the
#: JIT's static block costs charge the identical amounts per thread.
CF_COSTS = {
    Opcode.SIMD_IF: 2, Opcode.SIMD_ELSE: 1, Opcode.SIMD_ENDIF: 1,
    Opcode.SIMD_DO: 1, Opcode.SIMD_WHILE: 2, Opcode.SIMD_BREAK: 2,
}


class TracingExecutor(FunctionalExecutor):
    """A :class:`FunctionalExecutor` that also records a thread trace.

    Pooled use: call :meth:`begin_thread` with a fresh trace before each
    thread (after :meth:`reset`); the operand-plan caches inherited from
    the base class survive across threads, as do the per-operand register
    footprints used for load-use dependency tracking.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128) -> None:
        super().__init__(surfaces, num_regs)
        self.trace: Optional[ThreadTrace] = None
        #: GRF register index -> MemEvent still awaiting its first use.
        self._pending_loads: dict = {}
        # Per-instruction memos (source registers, ALU issue
        # costs) live in the inherited program-scoped ``self.plans``
        # PlanTable — keyed by (program, index), never ``id(inst)``, so
        # a recycled Instruction in a new program cannot alias a stale
        # entry and pooled executors stay bounded (one program's worth
        # of plans at a time).  Costs are sub-keyed per machine, so one
        # kernel-attached table serves heterogeneous devices.

    def begin_thread(self, trace: ThreadTrace) -> None:
        """Attach the trace for the next thread and clear dependency state."""
        self.trace = trace
        self._pending_loads.clear()

    # -- load-use dependency tracking -------------------------------------

    def _consume_regs(self, regs) -> None:
        pending = self._pending_loads
        if not pending:
            return
        for reg in regs:
            ev = pending.get(reg)
            if ev is not None:
                self.trace.consume(ev)
                # One consume retires the whole message's payload.
                for r in [r for r, e in pending.items() if e is ev]:
                    del pending[r]

    def _note_src_consumption(self, inst: Instruction) -> None:
        if not self._pending_loads:
            return
        table = self.plans
        slot = None if table is None else table.slot(inst)
        if slot is None:  # ad-hoc instruction outside the bound program
            self._consume_regs(source_regs(inst))
        else:
            self._consume_regs(table.source_regs(slot))

    def _register_load(self, first_reg: int, nbytes: int, ev) -> None:
        for reg in range(first_reg, first_reg + -(-nbytes // GRF_SIZE_BYTES)):
            self._pending_loads[reg] = ev

    # -- instruction dispatch ---------------------------------------------

    def execute(self, inst: Instruction) -> None:
        op = inst.opcode
        if op is Opcode.BARRIER:
            # base execute() handles the count and the sanitizer hooks
            # (a barrier is a happens-before edge for the race detector)
            self.trace.barrier()
            super().execute(inst)
            return
        if op is Opcode.NOP:
            super().execute(inst)
            return
        if op in CF_OPCODES:
            super().execute(inst)
            self.trace.scalar_op(CF_COSTS[op])
            return
        if op is Opcode.SEND:
            super().execute(inst)
            self._account_send(inst)
            return
        self._note_src_consumption(inst)
        super().execute(inst)
        self._account_alu(inst)

    def _account_alu(self, inst: Instruction) -> None:
        trace = self.trace
        cost = None
        slots = None
        table = self.plans
        if table is not None:
            slot = table.slot(inst)
            if slot is not None:
                slots = table.cost_slots(trace.machine)
                cost = slots[slot]
        if cost is None:
            cost = _alu_cost(inst, trace.machine)
            if slots is not None:
                slots[slot] = cost
        trace.inst_count += cost[0]
        trace.issue_cycles += cost[1]

    # -- memory accounting --------------------------------------------------

    def _account_send(self, inst: Instruction) -> None:
        msg = inst.msg
        surf = self._surface(msg.surface)
        trace = self.trace
        kind = msg.kind
        label = getattr(surf, "obs_label", None) or f"bti{msg.surface}"

        if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
            x = self._scalar(msg.addr0)
            y = self._scalar(msg.addr1)
            w, h = msg.block_width, msg.block_height
            nbytes = w * h
            lines, new = surf.mark_lines_block2d(x, y, w, h, surf.pitch)
            messages = media_block_messages(w, h)
            self._extra_messages(messages)
            is_read = kind is MsgKind.MEDIA_BLOCK_READ
            ev = trace.memory(
                MemKind.BLOCK2D_READ if is_read else MemKind.BLOCK2D_WRITE,
                nbytes=nbytes, lines=lines, dram_lines=new, l3_bytes=nbytes,
                msgs=messages, is_read=is_read, surface=label)
            if is_read:
                self._register_load(msg.payload_reg, nbytes, ev)
        elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
            offset = self._scalar(msg.addr0)
            nbytes = msg.payload_bytes
            lines, new = surf.mark_lines_range(offset, nbytes)
            messages = oword_block_messages(nbytes)
            self._extra_messages(messages)
            is_read = kind is MsgKind.OWORD_BLOCK_READ
            ev = trace.memory(
                MemKind.OWORD_READ if is_read else MemKind.OWORD_WRITE,
                nbytes=nbytes, lines=lines, dram_lines=new, l3_bytes=nbytes,
                msgs=messages, is_read=is_read, surface=label)
            if is_read:
                self._register_load(msg.payload_reg, nbytes, ev)
        else:  # GATHER / SCATTER / ATOMIC
            n = inst.exec_size
            elem = msg.elem_dtype
            byte_offs = self._scattered_offsets(inst)
            mask = self._exec_mask(inst)
            lines, new = surf.mark_lines_offsets(byte_offs, elem.size,
                                                 mask=mask)
            messages = scatter_messages(n)
            nbytes = n * elem.size
            if kind is MsgKind.GATHER:
                self._extra_messages(messages)
                ev = trace.memory(MemKind.GATHER, nbytes=nbytes, lines=lines,
                                  dram_lines=new, msgs=messages,
                                  surface=label)
                self._register_load(msg.payload_reg, nbytes, ev)
            elif kind is MsgKind.SCATTER:
                self._extra_messages(messages)
                trace.memory(MemKind.SCATTER, nbytes=nbytes, lines=lines,
                             dram_lines=new, msgs=messages, is_read=False,
                             surface=label)
            else:  # ATOMIC
                ev = trace.memory(MemKind.ATOMIC, nbytes=nbytes, lines=lines,
                                  dram_lines=new, msgs=messages,
                                  surface=label)
                active = byte_offs if mask is None else \
                    byte_offs[np.asarray(mask, dtype=bool)]
                trace.atomic_global(active // 4, surface_id=id(surf))
                if inst.dst is not None:
                    self._register_load(
                        inst.dst.byte_offset // GRF_SIZE_BYTES, nbytes, ev)

    def _scattered_offsets(self, inst: Instruction) -> np.ndarray:
        """Recompute the per-lane byte offsets (same math as the base)."""
        msg = inst.msg
        n = inst.exec_size
        addr_op = RegOperand(msg.addr_reg, 0, UD,
                             region=_contiguous_region(n))
        offsets = self._fetch(addr_op, n).astype(np.int64)
        global_off = self._scalar(msg.addr0) if msg.addr0 is not None else 0
        return (offsets + global_off) * msg.elem_dtype.size

    def _extra_messages(self, count: int) -> None:
        """Charge the front end for messages beyond the first."""
        if count > 1:
            self.trace.scalar_op(2 * (count - 1))
