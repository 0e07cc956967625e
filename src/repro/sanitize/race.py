"""Cross-thread data-race detection over surface accesses.

Two hardware threads race when they touch the same byte in the same
*epoch* (a barrier ends an epoch) and at least one access is a plain
write, or one is an atomic and the other a plain read or write.
Sequential dispatch silently orders such accesses by thread id — the
class of bug that makes the grid-vectorized JIT tier
(:mod:`repro.isa.jit`) diverge from sequential dispatch, and undefined
behaviour on real hardware.

:class:`RaceDetector` keeps *access records* (surface, kind, thread,
byte range, instruction) from two feeds:

- ``Surface`` access methods forward every access to their
  ``_san_rec`` recorder when one is set (:meth:`RaceDetector.attach`),
  stamped with ``cur_thread`` / ``cur_inst``; the eager CM intrinsics,
  the sequential executor's SENDs and the OpenCL SLM builtins all go
  through these hooks;
- the JIT tier's vectorized SENDs
  (:class:`~repro.isa.jit.JitTracingExecutor`) append one batch per
  SEND for a whole chunk of threads
  (:meth:`~RaceDetector.note_rows`), which is how ``validate="first"``
  certifies a kernel on its first, vectorized launch.

Each epoch's records expand to bytes and reduce to the minimum and
maximum owner thread of every byte per access kind (two threads touched
a byte exactly when the two differ), so every conflict rule is a few
vectorized comparisons, whatever order the records arrived in.

Known limit: epochs are global across the detector, so a barrier in one
work-group also appears to order *other* work-groups' accesses to shared
global surfaces; a cross-group conflict split across another group's
barrier can be missed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

#: access-category codes used throughout this module
READ, WRITE, ATOMIC = "r", "w", "a"

#: conflict kinds as (name, kind a, kind b): a byte conflicts when a
#: thread's access of kind a and another thread's access of kind b
#: touch it.  Atomics never conflict with atomics.
_RULES = (("write-write", WRITE, WRITE), ("read-write", READ, WRITE),
          ("atomic-write", ATOMIC, WRITE), ("atomic-read", ATOMIC, READ))

#: cap on reported conflicts per (surface, category-pair, epoch); a racy
#: kernel usually conflicts on huge byte ranges, so a few runs suffice.
_MAX_RUNS = 4


@dataclass(frozen=True)
class Conflict:
    """One conflicting pair of cross-thread accesses."""

    surface: str
    kind: str  # "write-write" | "read-write" | "atomic-write" | "atomic-read"
    thread_a: object
    thread_b: object
    inst_a: int
    inst_b: int
    byte_range: Tuple[int, int]
    epoch: int

    def to_dict(self) -> dict:
        return {
            "surface": self.surface, "kind": self.kind,
            "thread_a": _jsonable(self.thread_a),
            "thread_b": _jsonable(self.thread_b),
            "inst_a": self.inst_a, "inst_b": self.inst_b,
            "byte_range": list(self.byte_range), "epoch": self.epoch,
        }

    def __str__(self) -> str:
        lo, hi = self.byte_range
        return (f"{self.kind} race on {self.surface}"
                f"[{lo}:{hi}] between thread {self.thread_a} "
                f"(inst {self.inst_a}) and thread {self.thread_b} "
                f"(inst {self.inst_b}) in epoch {self.epoch}")


@dataclass
class RaceVerdict:
    """Per-kernel outcome of a race-checked launch."""

    race_free: bool
    conflicts: List[Conflict] = field(default_factory=list)
    threads: int = 0
    epochs: int = 1
    events: int = 0
    surfaces: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "race_free": self.race_free,
            "conflicts": [c.to_dict() for c in self.conflicts],
            "threads": self.threads, "epochs": self.epochs,
            "events": self.events, "surfaces": self.surfaces,
        }

    def __str__(self) -> str:
        if self.race_free:
            return (f"race_free ({self.threads} threads, "
                    f"{self.events} accesses, {self.epochs} epoch(s))")
        return "; ".join(str(c) for c in self.conflicts)


class _Owners:
    """One access kind's records on one surface in one epoch: flat
    per-range ``lo/hi/tid/inst`` arrays in arrival order, and the
    min/max owner thread of every byte of the span ``[base, base + span)``."""

    def __init__(self, cols, base: int, span: int) -> None:
        self.lo, self.hi, self.tid, self.inst = cols
        counts = self.hi - self.lo
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        byte = np.repeat(self.lo - base - starts, counts) + np.arange(total)
        owner = np.repeat(self.tid.astype(np.int32), counts)
        self.mn = np.full(span, np.iinfo(np.int32).max, dtype=np.int32)
        self.mx = np.full(span, -1, dtype=np.int32)
        np.minimum.at(self.mn, byte, owner)
        np.maximum.at(self.mx, byte, owner)
        self.touched = self.mx >= 0
        self.single = self.mn == self.mx

    def inst_of(self, byte: int, tid: int, last: bool) -> int:
        """Instruction of ``tid``'s first (or last) access to ``byte``."""
        hit = np.flatnonzero((self.lo <= byte) & (byte < self.hi)
                             & (self.tid == tid))
        return int(self.inst[hit[-1 if last else 0]])


class RaceDetector:
    """Records per-thread surface accesses and judges race freedom.

    Usage: :meth:`attach` the surfaces a kernel binds, call
    :meth:`begin_thread` before each hardware thread runs (any hashable
    key), :meth:`barrier` at every happens-before edge, and
    :meth:`finish` after the grid completes to obtain the verdict (this
    also detaches the recorder).  A vectorized launch attaches with
    ``hook=False``, interns its threads with :meth:`add_threads` and
    feeds :meth:`note_rows` / :meth:`note_blocks` per SEND, with
    :attr:`row_base` at the chunk's first thread.
    """

    #: obs labels of thread-private surfaces (the compiled path's spill
    #: scratch): their accesses can never conflict across threads.
    SKIP_LABELS = ("scratch",)

    def __init__(self) -> None:
        self._surfs: Dict[int, Tuple[str, int]] = {}  # id -> (label, size)
        self._attached: list = []
        self._thread_ids: Dict[object, int] = {}
        self._thread_keys: List[object] = []
        self._recs: list = []  # (surface id, kind, lo, nbytes, tid, inst)
        self.cur_thread = -1
        #: current instruction index from the executor hooks; -1 on the
        #: eager paths, which report the per-access event ordinal.
        self.cur_inst = -1
        #: thread id of row 0 of the chunk a vectorized SEND runs on
        self.row_base = 0
        self.epoch = 0
        self.events = 0
        self.conflicts: List[Conflict] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, surfaces: Iterable, hook: bool = True) -> "RaceDetector":
        """Track ``surfaces``; with ``hook`` their access methods also
        report to this detector (the per-thread sequential feed)."""
        for surf in surfaces:
            self.attach_surface(surf, hook)
        return self

    def attach_surface(self, surf, hook: bool = True) -> None:
        if surf is None or getattr(surf, "obs_label", "") in self.SKIP_LABELS:
            return
        self._surfs.setdefault(id(surf), (
            getattr(surf, "obs_label", "surface"), surf.bytes.size))
        if hook and surf._san_rec is not self:
            surf._san_rec = self
            self._attached.append(surf)

    def detach(self) -> None:
        for surf in self._attached:
            if surf._san_rec is self:
                surf._san_rec = None
        self._attached.clear()

    # -- thread / epoch structure ----------------------------------------

    def begin_thread(self, key) -> None:
        self.add_threads((key,))
        self.cur_thread = self._thread_ids[key]
        self.cur_inst = -1

    def add_threads(self, keys: Iterable) -> None:
        """Intern ``keys`` in first-seen order: the vectorized feed's
        thread ids are positions in the launch's thread list."""
        for key in keys:
            if key not in self._thread_ids:
                self._thread_ids[key] = len(self._thread_keys)
                self._thread_keys.append(key)

    def barrier(self) -> None:
        """End the current epoch: accesses before and after are ordered."""
        self._finalize_epoch()
        self.epoch += 1

    # -- access notifications (called from Surface methods) ---------------

    def note_range(self, surf, kind: str, start: int, nbytes: int) -> None:
        if nbytes > 0:
            self._note(surf, kind, int(start), int(nbytes))

    def note_offsets(self, surf, kind: str, byte_offsets, elem_size: int,
                     mask=None) -> None:
        offs = np.asarray(byte_offsets, dtype=np.int64).ravel()
        if mask is not None:
            offs = offs[np.asarray(mask, dtype=bool).ravel()]
        if offs.size:
            self._note(surf, kind, offs, elem_size)

    def note_rect(self, surf, kind: str, x0: int, x1: int, y0: int, y1: int,
                  pitch: int) -> None:
        """A clamped 2D block access: rows ``[y0, y1)``, byte columns
        ``[x0, x1)`` of a surface with row ``pitch``."""
        if x1 > x0 and y1 > y0:
            self._note(surf, kind, np.arange(y0, y1) * pitch + x0, x1 - x0)

    def _note(self, surf, kind: str, lo, nbytes) -> None:
        self.events += 1
        inst = self.cur_inst if self.cur_inst >= 0 else self.events
        self._recs.append((id(surf), kind, lo, nbytes, self.cur_thread, inst))

    # -- vectorized feed (one call per SEND for a chunk of threads) ---------

    def note_rows(self, surf, kind: str, rows, offsets, nbytes,
                  keep=None) -> None:
        """Accesses of a chunk's threads: row ``r`` of ``offsets`` (shape
        ``(R,)`` or ``(R, k)``) holds byte offsets of thread
        ``row_base + rows[r]`` (``rows=None``: ``row_base + r``), each
        ``nbytes`` long (a scalar or an array shaped like ``offsets``);
        ``keep`` masks out elements that made no access."""
        sid = id(surf)
        if sid not in self._surfs:
            return  # not tracked (e.g. per-thread scratch)
        offs = np.asarray(offsets, dtype=np.int64)
        nrows = offs.shape[0]
        offs = offs.reshape(nrows, -1)
        tid = np.arange(nrows) if rows is None else np.asarray(rows)
        tid = np.broadcast_to((tid + self.row_base)[:, None], offs.shape)
        ln = np.broadcast_to(nbytes, offs.shape)
        if keep is not None:
            keep = np.broadcast_to(keep, offs.shape)
            offs, ln, tid = offs[keep], ln[keep], tid[keep]
        self.events += nrows if keep is None else int(keep.any(axis=1).sum())
        if offs.size:
            self._recs.append((sid, kind, offs.ravel(), ln.ravel(),
                               tid.ravel(), -1))

    def note_blocks(self, surf, kind: str, rows, xs, ys, width: int,
                    height: int) -> None:
        """Media-block accesses of a chunk's threads at ``(xs, ys)``: the
        edge-clamped rectangle of a read, the in-bounds one of a write
        (what ``Image2DSurface.read_block`` / ``write_block`` report)."""
        pitch, rows_max = surf.pitch, surf.height
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if kind == READ:
            x0 = np.clip(xs, 0, pitch - 1)
            x1 = np.clip(xs + width - 1, 0, pitch - 1) + 1
            y0 = np.clip(ys, 0, rows_max - 1)
            y1 = np.clip(ys + height - 1, 0, rows_max - 1) + 1
        else:
            x0, x1 = np.maximum(xs, 0), np.minimum(xs + width, pitch)
            y0, y1 = np.maximum(ys, 0), np.minimum(ys + height, rows_max)
        y = y0[:, None] + np.arange(height)
        keep = (y < y1[:, None]) & (x1 > x0)[:, None]
        self.note_rows(surf, kind, rows, y * pitch + x0[:, None],
                       (x1 - x0)[:, None], keep)

    # -- verdict ----------------------------------------------------------

    def finish(self) -> RaceVerdict:
        self._finalize_epoch()
        self.detach()
        return RaceVerdict(
            race_free=not self.conflicts,
            conflicts=list(self.conflicts),
            threads=len(self._thread_keys),
            epochs=self.epoch + 1,
            events=self.events,
            surfaces=[label for label, _ in self._surfs.values()])

    def _finalize_epoch(self) -> None:
        groups: Dict[tuple, list] = {}
        for seq, (sid, kind, *rec) in enumerate(self._recs):
            groups.setdefault((sid, kind), []).append((seq, *rec))
        self._recs = []
        for sid, (label, size) in self._surfs.items():
            cols = {kind: _columns(groups.get((sid, kind), ()), size)
                    for kind in (READ, WRITE, ATOMIC)}
            self._check_surface(
                label, {k: c for k, c in cols.items() if c is not None})

    def _check_surface(self, label: str, cols: dict) -> None:
        rules = [r for r in _RULES if r[1] in cols and r[2] in cols]
        if not rules:
            return  # e.g. read-only or atomic-only: nothing can conflict
        base = min(int(c[0].min()) for c in cols.values())
        span = max(int(c[1].max()) for c in cols.values()) - base
        owners = {kind: _Owners(c, base, span) for kind, c in cols.items()
                  if any(kind in r[1:] for r in rules)}
        for name, ka, kb in rules:
            a, b = owners[ka], owners[kb]
            if a is b:  # write-write: two distinct writers
                bad = a.touched & ~a.single
            else:
                bad = a.touched & b.touched & ~(
                    a.single & b.single & (a.mn == b.mn))
            self._report(label, name, a, b, base, np.flatnonzero(bad))

    def _report(self, label: str, kind: str, a: _Owners, b: _Owners,
                base: int, bad: np.ndarray) -> None:
        if bad.size == 0:
            return
        # one representative pair per contiguous run of conflicting
        # bytes (capped: racy kernels conflict over huge ranges)
        breaks = np.flatnonzero(np.diff(bad) > 1)
        starts = np.concatenate(([bad[0]], bad[breaks + 1]))
        ends = np.concatenate((bad[breaks], [bad[-1]])) + 1
        for s, e in list(zip(starts, ends))[:_MAX_RUNS]:
            ta, tb, swap = int(a.mn[s]), int(b.mx[s]), False
            if ta == tb:  # same endpoint thread: take the other end
                ta, swap = int(a.mx[s]), True
            b0 = base + int(s)
            self.conflicts.append(Conflict(
                surface=label, kind=kind,
                thread_a=self._key(ta), thread_b=self._key(tb),
                inst_a=a.inst_of(b0, ta, last=swap),
                inst_b=b.inst_of(b0, tb, last=True),
                byte_range=(b0, base + int(e)), epoch=self.epoch))

    def _key(self, tid: int):
        keys = self._thread_keys
        return keys[tid] if 0 <= tid < len(keys) else tid


def _columns(recs, size: int):
    """Flatten ``(seq, lo, nbytes, tid, inst)`` records (scalars or
    arrays) into per-range ``lo, hi, tid, inst`` arrays in ``seq``
    order, clamped to ``[0, size)``, empty ranges dropped; ``None`` if
    none remain.  Scalar records convert in one call."""
    scalar = [r for r in recs if isinstance(r[1], int)]
    parts = [np.array(scalar, dtype=np.int64).reshape(-1, 5).T] \
        if scalar else []
    parts += [np.broadcast_arrays(*(np.asarray(v, dtype=np.int64).ravel()
                                    for v in r))
              for r in recs if not isinstance(r[1], int)]
    if not parts:
        return None
    seq, lo, nbytes, tid, inst = (np.concatenate(c) for c in zip(*parts))
    hi = np.minimum(lo + nbytes, size)
    lo = np.maximum(lo, 0)
    keep = np.flatnonzero(hi > lo)
    keep = keep[np.argsort(seq[keep], kind="stable")]
    return (lo[keep], hi[keep], tid[keep], inst[keep]) if keep.size else None


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value

