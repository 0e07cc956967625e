"""Vectorized memory and SEND records for the JIT vector tier.

The paper's thesis is that explicit SIMD wins by issuing whole-vector
operations in one step instead of emulating lanes.  The JIT tier
(:mod:`repro.isa.jit`) applies that one level up: its
:class:`~repro.isa.jit.JitTracingExecutor` runs a compiled program once
for a whole chunk of T hardware threads, on T per-thread register files
stacked into one ``(T, 4096)`` uint8 array.  This module holds the
pieces of that tier that know nothing about code generation:

- :class:`WideScratch`, per-thread spill rows behind one shared
  cache-line tracker;
- atomics over a flattened ``(T*n)`` offset vector, applied in thread
  order (integer add/sub/inc/dec through a grouped prefix-sum
  reduction, everything else through the sequential lane loop), so
  results stay bit-identical to per-thread execution;
- :class:`_SendEvent`, the per-row timing record of one SEND, and
  :func:`_fold_event`, which folds one into a
  :class:`~repro.sim.timing.TimingAccumulator`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.instructions import MsgKind
from repro.memory.surfaces import Surface
from repro.sim.timing import LINE_BYTES, SCATTER_CLASS
from repro.sim.trace import MemKind

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

#: timing-trace event kind of each message
_MEM_KIND = {
    MsgKind.MEDIA_BLOCK_READ: MemKind.BLOCK2D_READ,
    MsgKind.MEDIA_BLOCK_WRITE: MemKind.BLOCK2D_WRITE,
    MsgKind.OWORD_BLOCK_READ: MemKind.OWORD_READ,
    MsgKind.OWORD_BLOCK_WRITE: MemKind.OWORD_WRITE,
    MsgKind.GATHER: MemKind.GATHER, MsgKind.SCATTER: MemKind.SCATTER,
    MsgKind.ATOMIC: MemKind.ATOMIC,
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


class _SendEvent:
    """One SEND issued by a set of rows.

    The message shape is shared; everything else is per row: the rows
    that issued it, their line footprints, and their own issue and
    first-use positions on their own issue timelines.
    """

    __slots__ = ("kind", "nbytes", "l3_bytes", "msgs", "is_read",
                 "surface", "rows", "lines", "dram", "issue_at",
                 "consumed_at", "words", "wmask", "surface_id")

    def __init__(self, kind, nbytes, l3_bytes, msgs, is_read, surface,
                 rows, lines, dram, issue_at) -> None:
        self.kind = kind
        self.nbytes = nbytes
        self.l3_bytes = l3_bytes            # None: whole lines (scattered)
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


def _fold_event(acc, ev: _SendEvent) -> None:
    """Fold one SEND's totals over its issuing rows."""
    count = ev.rows.size
    lines_sum = int(np.sum(ev.lines, dtype=np.int64))
    dram_sum = int(np.sum(ev.dram, dtype=np.int64))
    acc._dram_lines += dram_sum
    acc._l3_bytes += lines_sum * 64 if ev.l3_bytes is None \
        else ev.l3_bytes * count
    acc.dram_bytes += dram_sum * LINE_BYTES
    if ev.is_read:
        acc.global_read_bytes += ev.nbytes * count
    else:
        acc.global_write_bytes += ev.nbytes * count
    acc._dataport_bytes += ev.nbytes * count
    if ev.kind in SCATTER_CLASS:
        acc._scatter_msgs += ev.msgs * count
    else:
        acc._block_msgs += ev.msgs * count
    if ev.words is not None:
        words = ev.words.reshape(-1) if ev.wmask is None \
            else ev.words[ev.wmask]
        uniq, counts = np.unique(words, return_counts=True)
        addrs = acc._atomic_addrs
        for w, c in zip(uniq.tolist(), counts.tolist()):
            addrs[(ev.surface_id, int(w))] += int(c)


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
