"""Executor-side sanitizer hooks.

:class:`ExecSanitizer` is the object a sequential
:class:`~repro.isa.executor.FunctionalExecutor` (or its tracing
subclass) carries in its ``san`` slot.  The executor calls
``before_inst`` / ``after_inst`` around every instruction; the hooks

- keep the attached :class:`~repro.sanitize.race.RaceDetector`'s
  current instruction index fresh and forward BARRIER opcodes as
  happens-before edges, and
- drive the :class:`~repro.sanitize.uninit.UninitTracker` by checking
  the exact byte-index plans the executor itself uses for operand
  access (``_src_plan`` / ``_dst_plan``), so validity tracking follows
  regioning, strides, and execution masks bit-for-bit.

The JIT executor refuses these hooks: they follow one thread's
register file and lane masks, so sanitized launches (``validate=
"always"``, sessions) run sequentially.  The JIT tier's own race check
(``validate="first"``) feeds the detector from its vectorized SENDs
instead (:meth:`~repro.sanitize.race.RaceDetector.note_rows`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.executor import _contiguous_region
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import Immediate, MsgKind, Opcode
from repro.isa.dtypes import UD
from repro.sanitize.race import RaceDetector
from repro.sanitize.uninit import UninitTracker


class ExecSanitizer:
    """Per-launch bundle of executor-driven checkers."""

    def __init__(self, race: Optional[RaceDetector] = None,
                 uninit: Optional[UninitTracker] = None) -> None:
        self.race = race
        self.uninit = uninit

    def begin_thread(self, key) -> None:
        if self.race is not None:
            self.race.begin_thread(key)
        if self.uninit is not None:
            self.uninit.begin_thread(key)

    def mark_grf_valid(self, start: int, nbytes: int) -> None:
        """Host-seeded GRF bytes (scalar kernel parameters) are defined."""
        if self.uninit is not None:
            self.uninit.mark_range(start, nbytes)

    # -- executor hooks ----------------------------------------------------

    def before_inst(self, ex, inst) -> None:
        # instructions_executed was already incremented for this inst
        inst_ix = ex.instructions_executed - 1
        if self.race is not None:
            self.race.cur_inst = inst_ix
            if inst.opcode is Opcode.BARRIER:
                self.race.barrier()
        if self.uninit is not None:
            self._check_sources(ex, inst, inst_ix)

    def after_inst(self, ex, inst) -> None:
        if self.uninit is not None:
            self._mark_dest(ex, inst)

    # -- uninit: source checks --------------------------------------------

    def _check_sources(self, ex, inst, inst_ix: int) -> None:
        op = inst.opcode
        if op is Opcode.NOP or op is Opcode.BARRIER:
            return
        un = self.uninit
        opname = op.name.lower()
        if op is Opcode.SEND:
            self._check_send_sources(ex, inst, inst_ix, opname)
            return
        n = inst.exec_size
        pred = ex._pred_mask(inst)
        act = ex._cf_active_lanes(inst)
        if op is Opcode.SEL and pred is not None:
            # each lane reads exactly one source: src0 where the
            # predicate is set, src1 where it is not; inside divergent
            # control flow only the CF-active lanes read at all.
            for src, lane_mask in ((inst.srcs[0], pred),
                                   (inst.srcs[1], ~pred)):
                if act is not None:
                    lane_mask = lane_mask & act
                if isinstance(src, RegOperand):
                    un.check_plan(ex._src_plan(src, n), lane_mask,
                                  inst_ix, opname, src)
            return
        mask = ex._exec_mask(inst)
        for src in inst.srcs:
            if isinstance(src, RegOperand):
                un.check_plan(ex._src_plan(src, n), mask,
                              inst_ix, opname, src)

    def _check_send_sources(self, ex, inst, inst_ix: int,
                            opname: str) -> None:
        msg = inst.msg
        if msg is None:
            return
        un = self.uninit
        kind = msg.kind
        base = msg.payload_reg * GRF_SIZE_BYTES
        for addr in (msg.addr0, msg.addr1):
            if isinstance(addr, RegOperand):
                un.check_plan(ex._src_plan(addr, 1), None,
                              inst_ix, opname, addr)
        if kind is MsgKind.MEDIA_BLOCK_WRITE:
            self._check_payload(ex, inst_ix, opname, msg.payload_reg, base,
                                msg.block_width * msg.block_height)
        elif kind is MsgKind.OWORD_BLOCK_WRITE:
            self._check_payload(ex, inst_ix, opname, msg.payload_reg, base,
                                msg.payload_bytes)
        elif kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
            n = inst.exec_size
            mask = ex._exec_mask(inst)
            addr_op = RegOperand(msg.addr_reg, 0, UD,
                                 region=_contiguous_region(n))
            un.check_plan(ex._src_plan(addr_op, n), mask,
                          inst_ix, opname, addr_op)
            if kind is MsgKind.SCATTER or (
                    kind is MsgKind.ATOMIC and msg.payload_bytes):
                elem_size = msg.elem_dtype.size
                idx = (base + np.arange(n)[:, None] * elem_size
                       + np.arange(elem_size))
                un.check_plan(idx, mask, inst_ix, opname,
                              RegOperand(msg.payload_reg, 0, msg.elem_dtype))

    def _check_payload(self, ex, inst_ix: int, opname: str, reg: int,
                       base: int, nbytes: int) -> None:
        # block-write payloads are not lane-maskable: check every byte.
        idx = np.arange(base, base + nbytes)[None, :]
        self.uninit.check_plan(idx, None, inst_ix, opname,
                               RegOperand(reg, 0, UD))

    # -- uninit: destination marking --------------------------------------

    def _mark_dest(self, ex, inst) -> None:
        op = inst.opcode
        un = self.uninit
        if op is Opcode.SEND:
            msg = inst.msg
            if msg is None:
                return
            base = msg.payload_reg * GRF_SIZE_BYTES
            kind = msg.kind
            if kind is MsgKind.MEDIA_BLOCK_READ:
                un.mark_range(base, msg.block_width * msg.block_height)
            elif kind is MsgKind.OWORD_BLOCK_READ:
                un.mark_range(base, msg.payload_bytes)
            elif kind is MsgKind.GATHER:
                # inactive lanes receive zeros from the surface gather,
                # so the whole landing pad is defined.
                un.mark_range(base, inst.exec_size * msg.elem_dtype.size)
            elif kind is MsgKind.ATOMIC and inst.dst is not None:
                # the old-value payload lands only in active lanes;
                # disabled lanes keep their previous (possibly
                # undefined) contents.
                un.mark_plan(ex._dst_plan(inst.dst, inst.exec_size),
                             ex._exec_mask(inst))
            return
        dst = inst.dst
        if dst is None or isinstance(dst, Immediate):
            return
        n = inst.exec_size
        if op is Opcode.CMP or op is Opcode.SEL:
            # CMP's bool-vector dst and SEL both write every CF-active
            # lane (SEL's predicate only chooses the source; outside
            # divergent control flow that is every lane).
            un.mark_plan(ex._dst_plan(dst, n), ex._cf_active_lanes(inst))
            return
        un.mark_plan(ex._dst_plan(dst, n), ex._exec_mask(inst))
