"""Stacked-GRF state and vectorized memory for the JIT vector tier.

The paper's thesis is that explicit SIMD wins by issuing whole-vector
operations in one step instead of emulating lanes.  The JIT tier
(:mod:`repro.isa.jit`) applies that one level up: it runs a compiled
program once for a whole chunk of T hardware threads, on T per-thread
register files stacked into one ``(T, 4096)`` uint8 array.

:class:`WideExecutor` is the state and runtime half of that tier; the
generated megakernel supplies the instruction stream.  It holds

- the stacked GRF (:attr:`~WideExecutor.grf2d`) and ``(T, 32)`` flag
  arrays, with the scalar executor's memoized region plans reused for
  bounds checks and strided writes;
- the vectorized SEND handlers: block messages batch into strided
  copies across threads, gather/scatter/atomic flatten into ``(T*n)``
  offset vectors with a per-thread lane mask.  Atomics apply in thread
  order (integer add/sub/inc/dec through a grouped prefix-sum
  reduction, everything else through the sequential lane loop on the
  flattened vector), so results stay bit-identical to per-thread
  execution;
- the SIMD control-flow row state: the ``(T, 32)`` active mask and the
  rows of the innermost running loop, which a SEND inside a loop
  restricts itself to (:meth:`~WideExecutor._execute_send`);
- timing: a program without loops shares one template trace across
  its threads, plus the per-thread line counts recorded by the
  vectorized surface marking; with loops each thread's dynamic
  instruction stream depends on its data, so ``(T,)``
  issue/instruction accumulators and per-row memory-event records
  replay, for every thread, exactly the accounting the sequential
  :class:`~repro.sim.batch.TracingExecutor` performs in that thread's
  own order.  :meth:`~WideExecutor.fold_chunk` folds either form into a
  :class:`~repro.sim.timing.TimingAccumulator`, and
  :meth:`~WideExecutor.drain_traces` materializes the per-thread traces
  the time-breakdown profiler needs — both exactly what the sequential
  path would have produced.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.isa.dtypes import UD
from repro.isa.executor import (
    ExecutionError, _contiguous_region, _emask_off,
)
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import Immediate, Instruction, MsgKind
from repro.isa.msg_geometry import (
    media_block_messages, oword_block_messages, scatter_messages,
)
from repro.memory.surfaces import Surface
from repro.sim.batch import CF_COSTS, TracingExecutor, _alu_cost
from repro.sim.timing import LINE_BYTES, SCATTER_CLASS
from repro.sim.trace import MemEvent, MemKind, ThreadTrace

#: Message kinds the vectorized handlers cover (currently all of them;
#: the JIT eligibility check guards against future kinds silently
#: mis-executing).
_WIDE_MSG_KINDS = frozenset({
    MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE,
    MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE,
    MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC,
})

#: race-detector access kind (read / write / atomic) of each message
_ACCESS_KIND = {
    MsgKind.MEDIA_BLOCK_READ: "r", MsgKind.MEDIA_BLOCK_WRITE: "w",
    MsgKind.OWORD_BLOCK_READ: "r", MsgKind.OWORD_BLOCK_WRITE: "w",
    MsgKind.GATHER: "r", MsgKind.SCATTER: "w", MsgKind.ATOMIC: "a",
}


class WideScratch(Surface):
    """Per-thread scratch (spill) storage for a wide chunk.

    The sequential path binds one shared scratch surface and zeroes it
    before each thread; threads running *simultaneously* need private
    rows instead, so actual storage is a ``(T, scratch_bytes)`` array.
    Cache-line tracking stays shared across threads (and across chunks,
    via :meth:`resize`): the first thread to spill a line pays DRAM,
    later threads hit L3 — exactly what the sequential shared surface
    models.
    """

    def __init__(self, num_threads: int, nbytes: int) -> None:
        super().__init__(np.zeros(nbytes, dtype=np.uint8))
        self.bytes2d = np.zeros((num_threads, nbytes), dtype=np.uint8)
        self.obs_label = "scratch"

    def resize(self, num_threads: int) -> None:
        """Fresh zeroed rows for the next chunk; line tracking persists."""
        self.bytes2d = np.zeros((num_threads, self.bytes.size),
                                dtype=np.uint8)

    def read_linear_many(self, byte_offsets, nbytes: int,
                         rows=None) -> np.ndarray:
        """Per-thread reads; ``rows`` restricts to a subset of threads
        (one offset per listed row) inside a loop some have left."""
        offs = np.asarray(byte_offsets, dtype=np.int64)
        if offs.size:
            self._check(int(offs.min()), 0)
            self._check(int(offs.max()), nbytes)
        idx = offs[:, None] + np.arange(nbytes)
        src = self.bytes2d if rows is None else self.bytes2d[rows]
        return np.take_along_axis(src, idx, axis=1)

    def write_linear_many(self, byte_offsets, data: np.ndarray,
                          rows=None) -> None:
        offs = np.asarray(byte_offsets, dtype=np.int64)
        raw = np.ascontiguousarray(data).view(np.uint8)
        raw = raw.reshape(offs.shape[0], -1)
        if offs.size:
            self._check(int(offs.min()), 0)
            self._check(int(offs.max()), raw.shape[1])
        idx = offs[:, None] + np.arange(raw.shape[1])
        if rows is None:
            np.put_along_axis(self.bytes2d, idx, raw, axis=1)
        else:
            self.bytes2d[np.asarray(rows)[:, None], idx] = raw


class WideExecutor(TracingExecutor):
    """Architectural state, SENDs and timing for T threads at once.

    The inherited executor machinery serves everything thread-invariant
    — operand region plans, immediate caches (``self.grf`` is only the
    plan builder and bounds checker).  Architectural state lives in
    :attr:`grf2d` (``(T, num_regs*32)`` uint8) and ``(T, 32)`` flag
    arrays.  Instructions are issued by a subclass: the JIT's
    :class:`~repro.isa.jit.JitTracingExecutor` runs a generated
    megakernel against this state.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128, num_threads: int = 0) -> None:
        super().__init__(surfaces, num_regs)
        self.num_threads = num_threads
        self.grf2d = np.zeros((num_threads, self.grf.bytes.size),
                              dtype=np.uint8)
        # SIMD-CF state, live only while a control-flow program runs:
        # the (T, 32) active mask, the innermost loop's rows / (T, 1)
        # row mask, and whether those rows cover every thread.
        self._wact: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None
        self._rowm: Optional[np.ndarray] = None
        self._row_all = True
        self._wide_events: list[_WideEvent] = []
        # Per-row accounting mode: on only for programs with loops.
        self._cf_trace = False
        self._cf_events: list[_CFSendEvent] = []
        self._pending_vec: dict = {}   # GRF reg -> (T,) event index or -1
        self._inst_vec: Optional[np.ndarray] = None
        self._issue_vec: Optional[np.ndarray] = None
        self._barrier_vec: Optional[np.ndarray] = None
        self._icpi = 0.0
        #: a :class:`~repro.sanitize.race.RaceDetector` fed one access
        #: batch per SEND while a launch is race-checked, else ``None``
        self.race = None

    def run(self, program) -> None:
        raise ExecutionError(
            "WideExecutor issues no instructions itself; run programs "
            "on repro.isa.jit.JitTracingExecutor")

    def reset(self, num_threads: Optional[int] = None) -> None:
        """Zero architectural state, optionally resizing to a new T."""
        if num_threads is not None and num_threads != self.num_threads:
            self.num_threads = num_threads
            self.grf2d = np.zeros((num_threads, self.grf.bytes.size),
                                  dtype=np.uint8)
        else:
            self.grf2d.fill(0)
        self.flags.clear()
        self.instructions_executed = 0
        self._end_cf()

    def _end_cf(self) -> None:
        """Leave control-flow row state (every thread, no masks)."""
        self._wact = None
        self._rows = None
        self._rowm = None
        self._row_all = True

    def seed_scalar(self, byte_offset: int, values: np.ndarray) -> None:
        """Seed a 4-byte scalar parameter column (one int32 per thread)."""
        vals = np.ascontiguousarray(np.asarray(values, dtype=np.int32))
        self.grf2d[:, byte_offset:byte_offset + 4] = \
            vals.view(np.uint8).reshape(self.num_threads, 4)

    def begin_launch(self, machine) -> None:
        """Attach a fresh template trace for the next chunk."""
        self.begin_thread(ThreadTrace(machine))
        self._wide_events = []
        self._cf_trace = False
        self._cf_events = []
        self._pending_vec = {}

    def begin_cf_trace(self) -> None:
        """Switch this chunk to per-row (T,) timing accumulators.

        Loop trip counts make each thread's dynamic instruction stream
        depend on its data, so the template trace cannot be shared.
        """
        T = self.num_threads
        self._cf_trace = True
        self._icpi = self.trace.machine.issue_cycles_per_inst
        self._inst_vec = np.zeros(T, dtype=np.int64)
        self._issue_vec = np.zeros(T, dtype=np.float64)
        self._barrier_vec = np.zeros(T, dtype=np.int64)
        self._cf_events = []
        self._pending_vec = {}

    # -- operand access (wide) --------------------------------------------

    def _fetch(self, src, exec_size: int) -> np.ndarray:
        if isinstance(src, RegOperand):
            # np.take (not grf2d[:, idx]): mixed basic/advanced indexing
            # can return an F-ordered copy, which .view() rejects.
            idx = self._src_plan(src, exec_size)
            return np.take(self.grf2d, idx.reshape(-1),
                           axis=1).view(src.dtype.np_dtype)
        return super()._fetch(src, exec_size)  # immediates broadcast (n,)

    def _write_dst(self, operand: RegOperand, values: np.ndarray,
                   mask: np.ndarray | None = None,
                   idx: np.ndarray | None = None) -> None:
        dtype = operand.dtype.np_dtype
        T = self.num_threads
        values = np.asarray(values)
        n = values.shape[-1]
        if idx is None:
            idx = self._dst_plan(operand, n)
        if values.shape != (T, n) or values.dtype != dtype or \
                not values.flags["C_CONTIGUOUS"]:
            values = np.ascontiguousarray(
                np.broadcast_to(values, (T, n)), dtype=dtype)
        raw = values.view(np.uint8).reshape(T, n, operand.dtype.size)
        if mask is None:
            self.grf2d[:, idx] = raw
        else:
            keep = np.asarray(mask, dtype=bool)
            if keep.ndim == 1:
                keep = np.broadcast_to(keep, (T, n))
            cur = self.grf2d[:, idx]  # (T, n, size) read-modify-write
            np.copyto(cur, raw, where=keep[:, :, None])
            self.grf2d[:, idx] = cur

    def _flag_lanes(self, index: int) -> np.ndarray:
        f = self.flags.get(index)
        if f is None:
            f = np.zeros((self.num_threads, 32), dtype=bool)
            self.flags[index] = f
        return f

    def _pred_mask(self, inst: Instruction) -> np.ndarray | None:
        if inst.pred is None:
            return None
        lanes = self._flag_lanes(inst.pred.flag.index)[:, : inst.exec_size]
        return ~lanes if inst.pred.invert else lanes.copy()

    def _cf_active_lanes(self, inst: Instruction) -> np.ndarray | None:
        """SIMD-CF write-enable: active-lane window AND loop rows.

        ``None`` outside control flow, or when every thread runs with
        every covered lane active.  Unlike the sequential version, a
        scalar (exec_size 1) instruction still needs masking inside a
        loop some threads have left — their registers must not observe
        its write — so the row mask applies even then.
        """
        act = self._wact
        if act is None:
            return None
        n = inst.exec_size
        m = None
        if n > 1:
            off = _emask_off(inst)
            if off + n > 32:
                raise ExecutionError(
                    f"operation covers lanes {off}..{off + n - 1} inside "
                    f"SIMD control flow (only 32 execution-mask channels "
                    f"exist)")
            m = act[:, off:off + n]
        if not self._row_all:
            rowm = self._rowm
            m = rowm if m is None else (m & rowm)
        elif m is not None and m.all():
            m = None
        return m

    # -- memory (wide) ----------------------------------------------------

    def _scalar_vec(self, src) -> np.ndarray:
        """A per-message scalar address operand as a (T,) int64 column."""
        if isinstance(src, Immediate):
            return np.full(self.num_threads, int(src.value), dtype=np.int64)
        idx = self._src_plan(src, 1)
        return np.take(self.grf2d, idx.reshape(-1), axis=1) \
            .view(src.dtype.np_dtype).reshape(-1).astype(np.int64)

    def _load_payload(self, base: int, nbytes: int,
                      sel=slice(None)) -> np.ndarray:
        self._check_payload(base, nbytes)
        return self.grf2d[sel, base:base + nbytes]

    def _store_payload(self, base: int, data: np.ndarray,
                       sel=slice(None)) -> None:
        self._check_payload(base, data.shape[1])
        self.grf2d[sel, base:base + data.shape[1]] = data

    def _check_payload(self, base: int, nbytes: int) -> None:
        if base < 0 or base + nbytes > self.grf2d.shape[1]:
            raise IndexError(
                f"GRF payload of {nbytes} bytes at offset {base} overruns "
                f"the {self.grf2d.shape[1]}-byte register file")

    def _execute_send(self, inst: Instruction) -> None:
        msg = inst.msg
        if msg is None:
            raise ExecutionError("send without message descriptor")
        surf = self._surface(msg.surface)
        race = self.race
        # Inside a loop some threads have left: only the rows still
        # looping may touch memory or their payload registers.
        rows = None if self._row_all else self._rows
        sel = slice(None) if rows is None else rows
        kind = msg.kind
        base = msg.payload_reg * GRF_SIZE_BYTES
        if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
            x = self._scalar_vec(msg.addr0)[sel]
            y = self._scalar_vec(msg.addr1)[sel]
            w, h = msg.block_width, msg.block_height
            if kind is MsgKind.MEDIA_BLOCK_READ:
                block = surf.read_block_many(x, y, w, h)  # (R, h, w)
                self._store_payload(base, block.reshape(x.size, -1), sel)
            else:
                data = np.ascontiguousarray(
                    self._load_payload(base, w * h, sel))
                surf.write_block_many(x, y, w, h,
                                      data.reshape(x.size, h, w))
            if race is not None:
                race.note_blocks(surf, _ACCESS_KIND[kind], rows, x, y, w, h)
        elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
            offset = self._scalar_vec(msg.addr0)[sel]
            # scratch rows are per thread; other surfaces are shared
            own = {"rows": rows} if isinstance(surf, WideScratch) else {}
            if kind is MsgKind.OWORD_BLOCK_READ:
                self._store_payload(base, surf.read_linear_many(
                    offset, msg.payload_bytes, **own), sel)
            else:
                surf.write_linear_many(
                    offset, self._load_payload(base, msg.payload_bytes, sel),
                    **own)
            if race is not None:
                race.note_rows(surf, _ACCESS_KIND[kind], rows, offset,
                               msg.payload_bytes)
        elif kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
            self._execute_scattered(inst, surf, sel)
        else:
            raise ExecutionError(f"unhandled message kind {kind}")

    def _execute_scattered(self, inst: Instruction, surf, sel) -> None:
        msg = inst.msg
        n = inst.exec_size
        T = self.num_threads
        addr_op = RegOperand(msg.addr_reg, 0, UD,
                             region=_contiguous_region(n))
        offsets = self._fetch(addr_op, n).astype(np.int64)  # (T, n)
        if msg.addr0 is not None:
            offsets = offsets + self._scalar_vec(msg.addr0)[:, None]
        elem = msg.elem_dtype
        offsets = offsets[sel] * elem.size
        nrows = offsets.shape[0]
        base = msg.payload_reg * GRF_SIZE_BYTES
        # Inside a loop the mask also covers the row mask, so rows that
        # left it keep their destination registers.
        mask = self._exec_mask(inst)
        # Flatten thread-major: lane order within a thread, threads in
        # ascending id — the exact order the sequential dispatch loop
        # performs these accesses, so overlap/atomic semantics match.
        flat = offsets.reshape(-1)
        fmask = None if mask is None else \
            np.broadcast_to(mask[sel], (nrows, n)).reshape(-1)

        if self.race is not None:
            self.race.note_rows(
                surf, _ACCESS_KIND[msg.kind],
                None if isinstance(sel, slice) else sel, offsets, elem.size,
                None if fmask is None else fmask.reshape(nrows, n))
        if msg.kind is MsgKind.GATHER:
            data = surf.gather(flat, elem, mask=fmask)
            self._store_payload(
                base, data.reshape(nrows, n).view(np.uint8), sel)
        elif msg.kind is MsgKind.SCATTER:
            raw = np.ascontiguousarray(
                self._load_payload(base, n * elem.size, sel)) \
                .view(elem.np_dtype)
            surf.scatter(flat, raw.reshape(-1), mask=fmask)
        else:  # ATOMIC
            operands = None
            if msg.payload_bytes:
                operands = np.ascontiguousarray(
                    self._load_payload(base, n * elem.size, sel)) \
                    .view(elem.np_dtype).reshape(-1)
            old = _wide_atomic(surf, msg.atomic_op, flat, operands, elem,
                               fmask)
            if inst.dst is not None:
                vals = np.zeros((T, n), dtype=elem.np_dtype)
                vals[sel] = old.reshape(nrows, n)
                self._write_dst(inst.dst, vals, mask=mask)

    # -- per-row timing under control flow ---------------------------------

    def _account_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        cost = CF_COSTS[inst.opcode]
        self._inst_vec[rows] += cost
        self._issue_vec[rows] += cost * self._icpi

    def _scalar_cf(self, rows: np.ndarray, count: int) -> None:
        self._inst_vec[rows] += count
        self._issue_vec[rows] += count * self._icpi

    def _account_alu_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        """ALU/CMP accounting for the issuing rows: retire the loads its
        sources consume, then charge its issue cost (the sequential
        tracer's order; the instruction's own execution touches neither)."""
        self._note_consumption_cf(inst, rows)
        cost = None
        slots = None
        table = self.plans
        if table is not None:
            slot = table.slot(inst)
            if slot is not None:
                slots = table.cost_slots(self.trace.machine)
                cost = slots[slot]
        if cost is None:
            cost = _alu_cost(inst, self.trace.machine)
            if slots is not None:
                slots[slot] = cost
        self._inst_vec[rows] += cost[0]
        self._issue_vec[rows] += cost[1]

    def _note_consumption_cf(self, inst: Instruction,
                             rows: np.ndarray) -> None:
        """Per-row load-use tracking (mirrors _note_src_consumption)."""
        pend = self._pending_vec
        if not pend:
            return
        regs = None
        table = self.plans
        if table is not None:
            slot = table.slot(inst)
            if slot is not None:
                regs = table.src_regs[slot]
                if regs is None:
                    regs = table.src_regs[slot] = self._merged_src_regs(inst)
        if regs is None:
            regs = self._merged_src_regs(inst)
        for reg in regs:
            vec = pend.get(reg)
            if vec is None:
                continue
            evi = vec[rows]
            for e in np.unique(evi[evi >= 0]):
                ev = self._cf_events[e]
                erows = rows[evi == e]
                pos = np.searchsorted(ev.rows, erows)
                fresh = ev.consumed_at[pos] < 0
                if fresh.any():
                    ev.consumed_at[pos[fresh]] = self._issue_vec[erows[fresh]]
                # One consume retires the whole message's payload.
                for v2 in pend.values():
                    cur = v2[erows]
                    v2[erows] = np.where(cur == e, -1, cur)

    def _register_load_cf(self, first_reg: int, nbytes: int,
                          ev: _CFSendEvent, rows: np.ndarray) -> None:
        for reg in range(first_reg,
                         first_reg + -(-nbytes // GRF_SIZE_BYTES)):
            vec = self._pending_vec.get(reg)
            if vec is None:
                vec = self._pending_vec[reg] = \
                    np.full(self.num_threads, -1, dtype=np.int64)
            vec[rows] = ev.index

    def _memory_cf(self, rows, kind, nbytes, lines, dram, l3_bytes,
                   l3_from_lines, msgs, is_read, surface) -> _CFSendEvent:
        # Same front-end charge as ThreadTrace.memory(): one
        # instruction, two issue slots, issue_at captured *after*.
        self._inst_vec[rows] += 1
        self._issue_vec[rows] += 2 * self._icpi
        ev = _CFSendEvent(kind, nbytes, l3_bytes, l3_from_lines, msgs,
                          is_read, surface, rows.copy(),
                          np.asarray(lines), np.asarray(dram),
                          self._issue_vec[rows].astype(np.float64))
        ev.index = len(self._cf_events)
        self._cf_events.append(ev)
        return ev

    def _account_send_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        """Per-row SEND accounting (mirrors the sequential
        TracingExecutor._account_send for exactly the issuing rows)."""
        msg = inst.msg
        surf = self._surface(msg.surface)
        kind = msg.kind
        label = getattr(surf, "obs_label", None) or f"bti{msg.surface}"

        if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
            x = self._scalar_vec(msg.addr0)[rows]
            y = self._scalar_vec(msg.addr1)[rows]
            w, h = msg.block_width, msg.block_height
            nbytes = w * h
            lines, new = surf.mark_lines_block2d_many(x, y, w, h, surf.pitch)
            messages = media_block_messages(w, h)
            if messages > 1:
                self._scalar_cf(rows, 2 * (messages - 1))
            is_read = kind is MsgKind.MEDIA_BLOCK_READ
            ev = self._memory_cf(
                rows,
                MemKind.BLOCK2D_READ if is_read else MemKind.BLOCK2D_WRITE,
                nbytes, lines, new, nbytes, False, messages, is_read, label)
            if is_read:
                self._register_load_cf(msg.payload_reg, nbytes, ev, rows)
        elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
            offset = self._scalar_vec(msg.addr0)[rows]
            nbytes = msg.payload_bytes
            lines, new = surf.mark_lines_range_many(offset, nbytes)
            messages = oword_block_messages(nbytes)
            if messages > 1:
                self._scalar_cf(rows, 2 * (messages - 1))
            is_read = kind is MsgKind.OWORD_BLOCK_READ
            ev = self._memory_cf(
                rows, MemKind.OWORD_READ if is_read else MemKind.OWORD_WRITE,
                nbytes, lines, new, nbytes, False, messages, is_read, label)
            if is_read:
                self._register_load_cf(msg.payload_reg, nbytes, ev, rows)
        else:  # GATHER / SCATTER / ATOMIC
            n = inst.exec_size
            elem = msg.elem_dtype
            byte_offs = self._scattered_offsets(inst)[rows]
            mask = self._exec_mask(inst)
            sub = None if mask is None else \
                np.broadcast_to(mask[rows], (rows.size, n))
            lines, new = surf.mark_lines_offsets_many(byte_offs, elem.size,
                                                      mask=sub)
            messages = scatter_messages(n)
            nbytes = n * elem.size
            if kind is MsgKind.GATHER:
                if messages > 1:
                    self._scalar_cf(rows, 2 * (messages - 1))
                ev = self._memory_cf(rows, MemKind.GATHER, nbytes, lines,
                                     new, None, True, messages, True, label)
                self._register_load_cf(msg.payload_reg, nbytes, ev, rows)
            elif kind is MsgKind.SCATTER:
                if messages > 1:
                    self._scalar_cf(rows, 2 * (messages - 1))
                self._memory_cf(rows, MemKind.SCATTER, nbytes, lines, new,
                                None, True, messages, False, label)
            else:  # ATOMIC
                ev = self._memory_cf(rows, MemKind.ATOMIC, nbytes, lines,
                                     new, None, True, messages, True, label)
                ev.words = byte_offs // 4
                ev.wmask = sub
                ev.surface_id = id(surf)
                if inst.dst is not None:
                    self._register_load_cf(
                        inst.dst.byte_offset // GRF_SIZE_BYTES, nbytes, ev,
                        rows)

    def _scattered_offsets(self, inst: Instruction) -> np.ndarray:
        """(T, n) per-lane byte offsets (same math as execution)."""
        msg = inst.msg
        n = inst.exec_size
        addr_op = RegOperand(msg.addr_reg, 0, UD,
                             region=_contiguous_region(n))
        offsets = self._fetch(addr_op, n).astype(np.int64)
        if msg.addr0 is not None:
            offsets = offsets + self._scalar_vec(msg.addr0)[:, None]
        return offsets * msg.elem_dtype.size

    # -- trace fan-out -----------------------------------------------------

    def drain_traces(self) -> list[ThreadTrace]:
        """Fan the template trace out into T per-thread traces.

        In per-row mode (loops) there is no template: each thread's trace
        is materialized from the (T,) accumulators and the per-row
        event records, in the thread's own dynamic issue order.
        """
        if self._cf_trace:
            return self._drain_traces_cf()
        tmpl = self.trace
        events = self._wide_events
        out = []
        for t in range(self.num_threads):
            tr = ThreadTrace(tmpl.machine)
            tr.issue_cycles = tmpl.issue_cycles
            tr.inst_count = tmpl.inst_count
            tr.barriers = tmpl.barriers
            for we in events:
                e = we.ev
                lines = int(we.lines[t])
                tr.events.append(MemEvent(
                    kind=e.kind, nbytes=e.nbytes, lines=lines,
                    dram_lines=int(we.dram[t]),
                    l3_bytes=lines * 64 if we.l3_from_lines else e.l3_bytes,
                    msgs=e.msgs, texels=e.texels, slm_cycles=e.slm_cycles,
                    issue_at=e.issue_at, consumed_at=e.consumed_at,
                    is_read=e.is_read, surface=e.surface))
                if we.words is not None:
                    words = we.words[t] if we.wmask is None else \
                        we.words[t][we.wmask[t]]
                    tr.atomic_addrs.update(
                        (we.surface_id, int(w)) for w in words)
            out.append(tr)
        self._wide_events = []
        return out

    def _drain_traces_cf(self) -> list[ThreadTrace]:
        machine = self.trace.machine
        T = self.num_threads
        per_thread: list[list] = [[] for _ in range(T)]
        for ev in self._cf_events:
            for i, t in enumerate(ev.rows):
                per_thread[t].append((ev, i))
        out = []
        for t in range(T):
            tr = ThreadTrace(machine)
            tr.issue_cycles = float(self._issue_vec[t])
            tr.inst_count = int(self._inst_vec[t])
            tr.barriers = int(self._barrier_vec[t])
            for ev, i in per_thread[t]:
                lines = int(ev.lines[i])
                consumed = ev.consumed_at[i]
                tr.events.append(MemEvent(
                    kind=ev.kind, nbytes=ev.nbytes, lines=lines,
                    dram_lines=int(ev.dram[i]),
                    l3_bytes=lines * 64 if ev.l3_from_lines else ev.l3_bytes,
                    msgs=ev.msgs, issue_at=float(ev.issue_at[i]),
                    consumed_at=None if consumed < 0 else float(consumed),
                    is_read=ev.is_read, surface=ev.surface))
                if ev.words is not None:
                    words = ev.words[i] if ev.wmask is None else \
                        ev.words[i][ev.wmask[i]]
                    tr.atomic_addrs.update(
                        (ev.surface_id, int(w)) for w in words)
            out.append(tr)
        self._cf_events = []
        self._pending_vec = {}
        self._cf_trace = False
        return out

    def fold_chunk(self, acc, grf_bytes: int = 0) -> None:
        """Fold this chunk's timing straight into a
        :class:`~repro.sim.timing.TimingAccumulator`.

        Bit-identical to ``acc.extend(self.drain_traces())`` (with
        ``note_grf(grf_bytes)`` applied to each fanned-out trace) but
        without materializing T :class:`ThreadTrace` objects — on short
        programs the per-thread fan-out dominates the whole launch.
        Integer totals vectorize exactly; the float running sums (issue
        cycles, thread completion time) repeat the same per-thread
        addition sequence the scalar fold performs, so ``finalize()``
        produces the same :class:`KernelTiming` to the last bit.  In a
        program without loops every event's issue/consume positions come
        from the template, so the stall is one number for the chunk;
        with loops each thread's stall sums its own events in issue
        order.
        """
        m = self.trace.machine
        count = self.num_threads
        if self._cf_trace:
            events = self._cf_events
            stall = np.zeros(count)
            for ev in events:
                if ev.is_read:
                    hit = ev.consumed_at >= 0
                    covered = ev.consumed_at[hit] - ev.issue_at[hit]
                    stall[ev.rows[hit]] += np.maximum(
                        0.0, MemEvent.latency(ev, m) - covered)
            issue = self._issue_vec.tolist()
            times = (self._issue_vec + stall
                     + self._barrier_vec * m.barrier_cycles).tolist()
            insts = int(self._inst_vec.sum())
            barriers = int(self._barrier_vec.sum())
            folds = [(ev, ev.rows.size, ev) for ev in events]
            self._cf_events = []
            self._pending_vec = {}
            self._cf_trace = False
        else:
            tmpl = self.trace
            stall = 0.0
            for we in self._wide_events:
                e = we.ev
                if e.is_read and e.consumed_at is not None:
                    covered = e.consumed_at - e.issue_at
                    stall += max(0.0, e.latency(m) - covered)
            issue = [tmpl.issue_cycles] * count
            times = [tmpl.issue_cycles + stall
                     + tmpl.barriers * m.barrier_cycles] * count
            insts = tmpl.inst_count * count
            barriers = tmpl.barriers * count
            folds = [(we.ev, count, we) for we in self._wide_events]
            self._wide_events = []

        acc.num_threads += count
        for v in issue:
            acc._total_issue += v
        for v in times:
            acc._total_thread_time += v
        if times:
            acc._max_thread_time = max(acc._max_thread_time, max(times))
        acc.total_instructions += insts
        acc.barriers += barriers
        acc.messages += sum(n for _, n, _ in folds)
        if count and grf_bytes > acc.max_grf_bytes:
            acc.max_grf_bytes = grf_bytes
        for e, n, rec in folds:
            _fold_event(acc, e, n, rec)


def _fold_event(acc, e, count: int, rec) -> None:
    """Fold one SEND's totals over its ``count`` issuing threads.

    ``e`` carries the message shape (kind, bytes, messages); ``rec``
    the per-thread line counts and atomic words (a :class:`_WideEvent`
    or :class:`_CFSendEvent`).
    """
    lines_sum = int(np.sum(rec.lines, dtype=np.int64))
    dram_sum = int(np.sum(rec.dram, dtype=np.int64))
    acc._dram_lines += dram_sum
    acc._l3_bytes += lines_sum * 64 if rec.l3_from_lines \
        else e.l3_bytes * count
    acc.dram_bytes += dram_sum * LINE_BYTES
    if e.is_read:
        acc.global_read_bytes += e.nbytes * count
    else:
        acc.global_write_bytes += e.nbytes * count
    acc._dataport_bytes += e.nbytes * count
    if e.kind in SCATTER_CLASS:
        acc._scatter_msgs += e.msgs * count
    else:
        acc._block_msgs += e.msgs * count
    if rec.words is not None:
        words = rec.words.reshape(-1) if rec.wmask is None \
            else rec.words[rec.wmask]
        uniq, counts = np.unique(words, return_counts=True)
        addrs = acc._atomic_addrs
        for w, c in zip(uniq.tolist(), counts.tolist()):
            addrs[(rec.surface_id, int(w))] += int(c)


_FAST_ATOMIC_OPS = frozenset({"add", "sub", "inc", "dec"})


def _wide_atomic(surf, op: str, offsets: np.ndarray,
                 operands: Optional[np.ndarray], elem,
                 mask: Optional[np.ndarray]) -> np.ndarray:
    """Apply a flattened (T*n)-lane atomic in thread order.

    Integer add/sub/inc/dec commute up to ordering of the *returned* old
    values, which a stable sort by address plus a grouped exclusive
    prefix sum reconstructs exactly (modular integer addition is
    order-independent); everything else (min/max/bitwise/xchg, float
    adds) falls back to the sequential lane loop on the flattened
    vector, which is the same order the per-thread path applies.
    """
    old = _fast_int_atomic(surf, op, offsets, operands, elem, mask)
    if old is None:
        old = surf.atomic(op, offsets, operands, elem, mask=mask)
    return old


def _fast_int_atomic(surf, op, offsets, operands, elem, mask):
    if op not in _FAST_ATOMIC_OPS or elem.is_float:
        return None
    n = len(offsets)
    old = np.zeros(n, dtype=elem.np_dtype)
    act = np.arange(n) if mask is None else \
        np.flatnonzero(np.asarray(mask, dtype=bool))
    if act.size == 0:
        return old
    offs = offsets[act]
    if np.any(offs % elem.size):
        return None  # misaligned: the lane loop raises the right error
    idx = offs // elem.size
    if op in ("add", "sub"):
        delta = operands[act].astype(elem.np_dtype, copy=True)
    else:  # inc / dec
        delta = np.ones(act.size, dtype=elem.np_dtype)
    if op in ("sub", "dec"):
        delta = np.negative(delta)  # modular: wraps like cur - src

    order = np.argsort(idx, kind="stable")  # stable: keeps thread order
    sidx = idx[order]
    sdelta = delta[order]
    csum = np.cumsum(sdelta, dtype=elem.np_dtype)  # wraps like hardware
    head = np.ones(sidx.size, dtype=bool)
    head[1:] = sidx[1:] != sidx[:-1]
    excl = csum - sdelta
    group_base = excl[head]
    seg_id = np.cumsum(head) - 1
    view = surf.bytes.view(elem.np_dtype)
    init = view[sidx[head]]  # value before this message, per address
    old_sorted = init[seg_id] + (excl - group_base[seg_id])
    last = np.flatnonzero(np.concatenate([head[1:], [True]]))
    view[sidx[head]] = init + (csum[last] - group_base)
    old_act = np.empty(act.size, dtype=elem.np_dtype)
    old_act[order] = old_sorted
    old[act] = old_act
    return old


class _WideEvent:
    """Per-thread data for one template memory event."""

    __slots__ = ("ev", "lines", "dram", "l3_from_lines", "words", "wmask",
                 "surface_id")

    def __init__(self, ev: MemEvent, lines: np.ndarray, dram: np.ndarray,
                 l3_from_lines: bool, words=None, wmask=None,
                 surface_id: int = 0) -> None:
        self.ev = ev
        self.lines = lines
        self.dram = dram
        self.l3_from_lines = l3_from_lines
        self.words = words
        self.wmask = wmask
        self.surface_id = surface_id


class _CFSendEvent:
    """One SEND issued by a set of rows under control flow.

    Unlike the straight-line template events, *everything* here is
    per-row: the rows that issued the message, their line footprints,
    and their own issue/consume positions on their own issue timelines.
    """

    __slots__ = ("kind", "nbytes", "l3_bytes", "l3_from_lines", "msgs",
                 "is_read", "surface", "rows", "lines", "dram", "issue_at",
                 "consumed_at", "words", "wmask", "surface_id", "index")

    def __init__(self, kind, nbytes, l3_bytes, l3_from_lines, msgs,
                 is_read, surface, rows, lines, dram, issue_at) -> None:
        self.kind = kind
        self.nbytes = nbytes
        self.l3_bytes = l3_bytes
        self.l3_from_lines = l3_from_lines
        self.msgs = msgs
        self.is_read = is_read
        self.surface = surface
        self.rows = rows                    # (R,) ascending thread ids
        self.lines = lines                  # (R,) L3 lines per row
        self.dram = dram                    # (R,) first-touch lines
        self.issue_at = issue_at            # (R,) per-row issue position
        self.consumed_at = np.full(rows.size, -1.0)  # (R,) or -1 = never
        self.words = None                   # atomics: (R, n) word addrs
        self.wmask = None
        self.surface_id = 0
        self.index = -1                     # position in _cf_events
