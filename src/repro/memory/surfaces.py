"""Surfaces: the memory objects kernels access through binding-table indices.

A CM or OpenCL kernel argument of type ``SurfaceIndex`` is a handle to one
of these objects; host code creates surfaces from numpy arrays and binds
them to kernels (mirroring the runtime API calls described in Section
IV-B of the paper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.dtypes import DType
from repro.memory.traffic import spanned_lines


class SurfaceIndex(int):
    """A binding-table index.  Behaves like an int; exists for API clarity."""

    __slots__ = ()


def apply_atomic(store: np.ndarray, op: str, offsets: np.ndarray,
                 operands: Optional[np.ndarray], elem: DType,
                 mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply a Gen atomic op lane-by-lane against ``store`` (a byte array).

    Lanes execute in lane order, which models the hardware's serialization
    of same-address atomics within one message.  Returns the old value per
    lane (inactive lanes return 0).
    """
    n = len(offsets)
    old = np.zeros(n, dtype=elem.np_dtype)
    view = store.view(elem.np_dtype)
    size = elem.size
    for lane in range(n):
        if mask is not None and not mask[lane]:
            continue
        byte_off = int(offsets[lane])
        if byte_off % size:
            raise ValueError(f"misaligned atomic at byte offset {byte_off}")
        idx = byte_off // size
        cur = view[idx]
        old[lane] = cur
        src = operands[lane] if operands is not None else None
        view[idx] = _atomic_result(op, cur, src, elem)
    return old


def _atomic_result(op: str, cur, src, elem: DType):
    if op == "inc":
        return cur + 1
    if op == "dec":
        return cur - 1
    if op == "add":
        return cur + src
    if op == "sub":
        return cur - src
    if op == "min":
        return min(cur, src)
    if op == "max":
        return max(cur, src)
    if op == "and":
        return cur & src
    if op == "or":
        return cur | src
    if op == "xor":
        return cur ^ src
    if op == "xchg":
        return src
    if op == "cmpxchg":
        # src is a pair packed as (compare, new); we receive new in src and
        # compare via the second operand array handled by the caller.
        raise ValueError("cmpxchg must go through Surface.atomic_cmpxchg")
    raise ValueError(f"unknown atomic op {op!r}")


#: Cache line granularity for DRAM-traffic tracking.
LINE = 64

#: Line-tracking entry of a line not touched since the last reset.
_UNTOUCHED = np.iinfo(np.int32).max

#: Strict OOB mode: clamped/dropped out-of-bounds accesses raise
#: :class:`OOBError` instead of silently counting.  Toggled through
#: ``repro.sanitize.oob`` (the flag lives here so surfaces never import
#: the sanitizer package).
STRICT_OOB = False

#: Per-surface cap on retained OOB diagnostic events (counters keep
#: incrementing past it).
_MAX_OOB_EVENTS = 16


class OOBError(IndexError):
    """A clamped/dropped out-of-bounds access under strict OOB mode."""


class Surface:
    """Base class: flat byte storage + linear/scattered/atomic access.

    Each surface tracks which cache lines have been touched since the last
    :meth:`reset_line_tracking`.  The first touch of a line is *compulsory*
    DRAM traffic; re-touches hit in L3.  The timing model charges the two
    against separate bandwidth bounds.
    """

    def __init__(self, data: np.ndarray) -> None:
        arr = np.ascontiguousarray(data)
        self._host = arr
        self.bytes = arr.view(np.uint8).ravel()
        #: One int32 per cache line: -1 once the line has been touched,
        #: else ``_UNTOUCHED``.  A dense array (1/16th of the surface)
        #: beats a set here because the JIT tier marks whole line
        #: *vectors* per SEND, and its untouched entries double as the
        #: position scratch of :meth:`_first_touches`.
        self._touched = np.full(self.bytes.size // LINE + 1, _UNTOUCHED,
                                dtype=np.int32)
        #: strided window views of the bytes, one per access shape
        #: (see :meth:`_window`)
        self._windows: dict = {}
        #: observability label; the device renames this to ``buf<i>`` /
        #: ``img<i>`` at bind time so breakdowns group traffic per surface.
        self.obs_label = (type(self).__name__.replace("Surface", "").lower()
                          or "surface")
        #: attached ``repro.sanitize`` race recorder; every access method
        #: forwards read/write/atomic byte sets here when one is set.
        self._san_rec = None
        #: lanes clipped or dropped by the edge-clamping access paths
        #: (media blocks, sampler pixels) since creation / last reset.
        self.oob_clipped_lanes = 0
        #: bounded list of (kind, lanes, detail) diagnostic tuples.
        self.oob_events: list = []
        #: high-water mark of lanes already folded into device totals.
        self._oob_reported = 0

    def _note_oob(self, kind: str, lanes: int, detail: str) -> None:
        """Account ``lanes`` clipped/dropped lanes; raise in strict mode."""
        self.oob_clipped_lanes += int(lanes)
        if len(self.oob_events) < _MAX_OOB_EVENTS:
            self.oob_events.append((kind, int(lanes), detail))
        if STRICT_OOB:
            raise OOBError(
                f"{kind} on surface {self.obs_label!r} clipped "
                f"{lanes} out-of-bounds lane(s): {detail}")

    @property
    def size_bytes(self) -> int:
        return self.bytes.size

    def to_numpy(self) -> np.ndarray:
        """The surface contents viewed as the host array it was built from."""
        return self._host

    # -- snapshot / restore (the shared-memory data plane) -------------------

    def snapshot_into(self, dst: np.ndarray) -> None:
        """Copy the surface's bytes straight into ``dst`` (any array of
        matching byte size — typically a view of a
        ``multiprocessing.shared_memory`` block), with no intermediate
        allocation.  The unified-memory write-back half of the zero-copy
        surface idiom."""
        if not dst.flags["C_CONTIGUOUS"]:
            raise ValueError("snapshot target must be C-contiguous")
        out = dst.view(np.uint8).reshape(-1)
        if out.size != self.bytes.size:
            raise ValueError(f"snapshot target holds {out.size} bytes, "
                             f"surface holds {self.bytes.size}")
        out[:] = self.bytes

    def restore_from(self, src: np.ndarray) -> None:
        """Overwrite the surface's bytes from ``src`` in place — the
        companion of :meth:`snapshot_into` for mapping request payloads
        out of a shared-memory block without reallocating the surface.
        Line tracking is untouched: a restore models a host write, not
        device traffic."""
        arr = np.ascontiguousarray(src)
        data = arr.reshape(-1).view(np.uint8)
        if data.size != self.bytes.size:
            raise ValueError(f"restore source holds {data.size} bytes, "
                             f"surface holds {self.bytes.size}")
        self.bytes[:] = data

    # -- cache-line tracking -------------------------------------------------

    def reset_line_tracking(self) -> None:
        self._touched.fill(_UNTOUCHED)

    def mark_lines_range(self, byte_offset: int, nbytes: int):
        """Mark a contiguous access; returns (total_lines, new_lines).

        Offsets are clamped to the surface (block reads clamp at edges).
        """
        byte_offset = min(max(byte_offset, 0), max(self.bytes.size - 1, 0))
        end = min(byte_offset + max(nbytes, 1), self.bytes.size)
        first = byte_offset // LINE
        last = (max(end, byte_offset + 1) - 1) // LINE
        seg = self._touched[first:last + 1]
        new = int(np.count_nonzero(seg >= 0))
        seg[:] = -1
        return last - first + 1, new

    def mark_lines_offsets(self, byte_offsets, access_bytes: int = 4,
                           mask=None):
        """Mark scattered accesses; returns (total_lines, new_lines)."""
        offs = np.asarray(byte_offsets, dtype=np.int64)
        if mask is not None:
            offs = offs[np.asarray(mask, dtype=bool)]
        if offs.size == 0:
            return 0, 0
        lines = np.unique(spanned_lines(offs, access_bytes, LINE))
        touched = self._touched
        new = int(np.count_nonzero(touched[lines] >= 0))
        touched[lines] = -1
        return len(lines), new

    def mark_lines_block2d(self, x: int, y: int, width: int, height: int,
                           pitch: int):
        """Mark a 2D block access row by row; returns (total, new)."""
        total = new = 0
        for row in range(height):
            t, n = self.mark_lines_range((y + row) * pitch + x, width)
            total += t
            new += n
        return total, new

    # -- vectorized tracking (JIT tier: one call covers T threads) ----------
    #
    # Each ``*_many`` method marks in *thread order* (thread 0's lines
    # first), so a line shared between threads is compulsory DRAM traffic
    # for exactly the lowest-id thread that touches it — the same
    # attribution the sequential per-thread loop produces.  None of them
    # sorts across threads: :meth:`_first_touches` finds each line's
    # first appearance in the surface's own line array.

    def _first_touches(self, lines: np.ndarray) -> np.ndarray:
        """Mark the flat ``lines`` (marking order, repeats allowed) and
        return a bool per entry: True where a line no earlier access
        touched appears for the first time.

        An untouched line's entry takes the lowest position the line
        appears at (``np.minimum.at``; a touched line's -1 stays), so
        exactly one entry per new line matches its own position: the
        lowest thread that touches a line pays for it.
        """
        touched = self._touched
        pos = np.arange(lines.size, dtype=np.int32)
        np.minimum.at(touched, lines, pos)
        fresh = touched[lines] == pos
        touched[lines] = -1
        return fresh

    def _line_spans(self, off: np.ndarray, nbytes: int) -> tuple:
        """``(first, last)`` lines of contiguous accesses of ``nbytes`` at
        ``off``, clamped to the surface like :meth:`mark_lines_range`."""
        size = self.bytes.size
        off = np.minimum(np.maximum(off, 0), max(size - 1, 0))
        end = np.minimum(off + max(nbytes, 1), max(size, 1))
        return off // LINE, (end - 1) // LINE

    @staticmethod
    def _expand(first: np.ndarray, last: np.ndarray) -> np.ndarray:
        """Every line of each span ``[first, last]`` along a new last
        axis, short spans padded by repeating their last line."""
        k = int((last - first).max()) + 1 if first.size else 1
        if k == 1:
            return first[..., None]
        return np.minimum(first[..., None] + np.arange(k), last[..., None])

    def mark_lines_range_many(self, byte_offsets, nbytes: int):
        """Vectorized :meth:`mark_lines_range`: one contiguous access per
        thread.  Returns ``(totals, new)`` int64 arrays of shape (T,)."""
        first, last = self._line_spans(
            np.asarray(byte_offsets, dtype=np.int64), nbytes)
        lines = self._expand(first, last)
        new = self._first_touches(lines.reshape(-1))
        return last - first + 1, new.reshape(lines.shape).sum(axis=1)

    def mark_lines_offsets_many(self, byte_offsets, access_bytes: int = 4,
                                mask=None):
        """Vectorized :meth:`mark_lines_offsets`: ``byte_offsets`` is a
        ``(T, n)`` array of per-thread lane offsets, ``mask`` an optional
        ``(T, n)`` lane mask.  Returns ``(totals, new)`` of shape (T,).

        Each thread's lines are sorted within its own row (at most a few
        dozen values) to count its distinct lines; masked lanes become
        -1 and sort first.
        """
        offs = np.asarray(byte_offsets, dtype=np.int64)
        T = offs.shape[0]
        lines = self._expand(offs // LINE,
                             (offs + access_bytes - 1) // LINE)
        if mask is not None:
            lines = np.where(np.asarray(mask, dtype=bool)[:, :, None],
                             lines, -1)
        lines = np.sort(lines.reshape(T, -1), axis=1)
        head = lines >= 0
        head[:, 1:] &= lines[:, 1:] != lines[:, :-1]
        rows = np.nonzero(head)[0]
        new = np.bincount(rows[self._first_touches(lines[head])],
                          minlength=T)
        return head.sum(axis=1), new

    def mark_lines_block2d_many(self, xs, ys, width: int, height: int,
                                pitch: int):
        """Vectorized :meth:`mark_lines_block2d`: one ``width`` x
        ``height`` block per thread at ``(xs[t], ys[t])``.  Returns
        ``(totals, new)`` of shape (T,)."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        first, last = self._line_spans(
            (ys[:, None] + np.arange(height)) * pitch + xs[:, None], width)
        lines = self._expand(first, last)
        new = self._first_touches(lines.reshape(-1))
        return ((last - first + 1).sum(axis=1),
                new.reshape(len(xs), -1).sum(axis=1))

    def _window(self, *shape: int) -> np.ndarray:
        """A strided view of the bytes whose entry at an origin is the
        ``shape`` window starting there: ``[offset]`` -> the ``(n,)``
        bytes at a flat offset, ``[y, x]`` -> the ``(height, width)``
        block at an image position.  Indexing it with one origin per
        thread gathers (or assigns) every thread's bytes at once.  Built
        once per surface and shape; writeable when the bytes are."""
        win = self._windows.get(shape)
        if win is None:
            if len(shape) == 1:
                n, = shape
                dims, steps = (self.bytes.size - n + 1, n), (1, 1)
            else:
                h, w = shape
                p = self.pitch
                dims = (self.height - h + 1, p - w + 1, h, w)
                steps = (p, 1, p, 1)
            win = self._windows[shape] = np.ndarray(
                dims, np.uint8, self.bytes, 0, steps)
        return win

    # -- linear (oword block) access ------------------------------------

    def read_linear(self, byte_offset: int, nbytes: int) -> np.ndarray:
        self._check(byte_offset, nbytes)
        if self._san_rec is not None:
            self._san_rec.note_range(self, "r", byte_offset, nbytes)
        return self.bytes[byte_offset:byte_offset + nbytes].copy()

    def write_linear(self, byte_offset: int, data: np.ndarray) -> None:
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        self._check(byte_offset, raw.size)
        if self._san_rec is not None:
            self._san_rec.note_range(self, "w", byte_offset, raw.size)
        self.bytes[byte_offset:byte_offset + raw.size] = raw

    def read_linear_many(self, byte_offsets, nbytes: int) -> np.ndarray:
        """One contiguous ``nbytes`` read per thread -> (T, nbytes) uint8,
        gathered through the ``(nbytes,)`` window view."""
        offs = np.asarray(byte_offsets, dtype=np.int64)
        if not offs.size:
            return np.empty((0, nbytes), dtype=np.uint8)
        self._check(int(offs.min()), 0)
        self._check(int(offs.max()), nbytes)
        return self._window(nbytes)[offs]

    def write_linear_many(self, byte_offsets, data: np.ndarray) -> None:
        """One contiguous write per thread from ``data`` rows (T, nbytes).

        Overlapping writes resolve in thread order (the later thread
        wins), matching the sequential per-thread dispatch loop: only
        ranges in ascending, disjoint order go through the window view.
        """
        offs = np.asarray(byte_offsets, dtype=np.int64)
        raw = np.asarray(data)
        if raw.dtype != np.uint8:
            raw = np.ascontiguousarray(raw).view(np.uint8)
        raw = raw.reshape(len(offs), -1)
        if not offs.size:
            return
        n = raw.shape[1]
        self._check(int(offs.min()), 0)
        self._check(int(offs.max()), n)
        if n and (offs.size == 1 or (np.diff(offs) >= n).all()):
            self._window(n)[offs] = raw
        else:
            self.bytes[offs[:, None] + np.arange(n)] = raw

    # -- scattered access --------------------------------------------------

    def gather(self, byte_offsets: np.ndarray, elem: DType,
               mask: Optional[np.ndarray] = None) -> np.ndarray:
        offs = np.asarray(byte_offsets, dtype=np.int64)
        out = np.zeros(len(offs), dtype=elem.np_dtype)
        active = slice(None) if mask is None else np.asarray(mask, dtype=bool)
        idx = offs[active]
        if self._san_rec is not None and idx.size:
            self._san_rec.note_offsets(self, "r", idx, elem.size)
        if idx.size:
            self._check(int(idx.min()), 0)
            self._check(int(idx.max()), elem.size)
            byte_idx = idx[:, None] + np.arange(elem.size)
            out[active] = self.bytes[byte_idx].copy().view(elem.np_dtype).ravel()
        return out

    def scatter(self, byte_offsets: np.ndarray, values: np.ndarray,
                mask: Optional[np.ndarray] = None) -> None:
        offs = np.asarray(byte_offsets, dtype=np.int64)
        values = np.ascontiguousarray(values)
        elem_size = values.dtype.itemsize
        raw = values.view(np.uint8).reshape(len(offs), elem_size)
        if mask is not None:
            keep = np.asarray(mask, dtype=bool)
            offs, raw = offs[keep], raw[keep]
        if not offs.size:
            return
        self._check(int(offs.min()), 0)
        self._check(int(offs.max()), elem_size)
        if self._san_rec is not None:
            self._san_rec.note_offsets(self, "w", offs, elem_size)
        # Duplicate offsets take the last lane's value (hardware scatter order).
        byte_idx = offs[:, None] + np.arange(elem_size)
        self.bytes[byte_idx] = raw

    # -- atomics ---------------------------------------------------------

    def atomic(self, op: str, byte_offsets: np.ndarray,
               operands: Optional[np.ndarray], elem: DType,
               mask: Optional[np.ndarray] = None) -> np.ndarray:
        if self._san_rec is not None:
            self._san_rec.note_offsets(self, "a", byte_offsets, elem.size,
                                       mask=mask)
        return apply_atomic(self.bytes, op, np.asarray(byte_offsets, np.int64),
                            operands, elem, mask)

    def atomic_cmpxchg(self, byte_offsets: np.ndarray, compare: np.ndarray,
                       newval: np.ndarray, elem: DType,
                       mask: Optional[np.ndarray] = None) -> np.ndarray:
        offs = np.asarray(byte_offsets, dtype=np.int64)
        if self._san_rec is not None:
            self._san_rec.note_offsets(self, "a", offs, elem.size, mask=mask)
        view = self.bytes.view(elem.np_dtype)
        old = np.zeros(len(offs), dtype=elem.np_dtype)
        for lane in range(len(offs)):
            if mask is not None and not mask[lane]:
                continue
            idx = int(offs[lane]) // elem.size
            old[lane] = view[idx]
            if view[idx] == compare[lane]:
                view[idx] = newval[lane]
        return old

    def _check(self, byte_offset: int, nbytes: int) -> None:
        if byte_offset < 0 or byte_offset + nbytes > self.bytes.size:
            raise IndexError(
                f"surface access [{byte_offset}, {byte_offset + nbytes}) "
                f"outside surface of {self.bytes.size} bytes")


class BufferSurface(Surface):
    """A linearly-addressed buffer surface."""

    @classmethod
    def allocate(cls, nbytes: int) -> "BufferSurface":
        return cls(np.zeros(nbytes, dtype=np.uint8))

    @classmethod
    def from_array(cls, array: np.ndarray) -> "BufferSurface":
        return cls(array)


class Image2DSurface(Surface):
    """A 2D image surface (row-major, ``bytes_per_pixel`` per texel).

    Serves media block reads/writes (raw bytes, coordinates clamped to the
    surface like the Gen media block unit) and sampler-style typed reads
    used by the OpenCL baselines.
    """

    def __init__(self, data: np.ndarray, bytes_per_pixel: int = 1) -> None:
        arr = np.ascontiguousarray(data)
        if arr.ndim == 3:
            height, width_px, channels = arr.shape
            if channels * arr.dtype.itemsize != bytes_per_pixel:
                raise ValueError(
                    f"array channel bytes {channels * arr.dtype.itemsize} "
                    f"!= bytes_per_pixel {bytes_per_pixel}")
        elif arr.ndim == 2:
            height, width_b = arr.shape
            if (width_b * arr.dtype.itemsize) % bytes_per_pixel:
                raise ValueError("row bytes not a multiple of bytes_per_pixel")
            width_px = width_b * arr.dtype.itemsize // bytes_per_pixel
        else:
            raise ValueError("image surfaces require 2D or 3D arrays")
        super().__init__(arr)
        self.height = int(height)
        self.width = int(width_px)
        self.bytes_per_pixel = int(bytes_per_pixel)
        self.pitch = self.width * self.bytes_per_pixel

    @property
    def width_bytes(self) -> int:
        return self.pitch

    # -- media block access ------------------------------------------------

    def read_block(self, x: int, y: int, width: int, height: int) -> np.ndarray:
        """Read a ``height`` x ``width``-byte block at byte column ``x``.

        Out-of-bounds rows/columns are clamped to the surface edge, which
        matches the replication behaviour of the Gen media block read unit
        and is what the paper's linear filter relies on for its borders.
        Clamped lanes are counted (strict OOB mode raises instead).
        """
        vis_h = min(max(min(y + height, self.height) - max(y, 0), 0), height)
        vis_w = min(max(min(x + width, self.pitch) - max(x, 0), 0), width)
        clipped = height * width - vis_h * vis_w
        if clipped:
            self._note_oob("read_block", clipped,
                           f"block ({x},{y}) {width}x{height} vs "
                           f"{self.pitch}x{self.height}")
        if self._san_rec is not None:
            # bytes actually touched: the edge-clamped rectangle
            ry0 = min(max(y, 0), self.height - 1)
            ry1 = min(max(y + height - 1, 0), self.height - 1) + 1
            rx0 = min(max(x, 0), self.pitch - 1)
            rx1 = min(max(x + width - 1, 0), self.pitch - 1) + 1
            self._san_rec.note_rect(self, "r", rx0, rx1, ry0, ry1, self.pitch)
        rows = np.clip(np.arange(y, y + height), 0, self.height - 1)
        cols = np.clip(np.arange(x, x + width), 0, self.pitch - 1)
        img = self.bytes.reshape(self.height, self.pitch)
        return img[np.ix_(rows, cols)].copy()

    def write_block(self, x: int, y: int, width: int, height: int,
                    data: np.ndarray) -> None:
        """Write a block; out-of-bounds texels are dropped (hw behaviour;
        dropped lanes are counted, strict OOB mode raises instead)."""
        block = np.ascontiguousarray(data).view(np.uint8).reshape(height, width)
        img = self.bytes.reshape(self.height, self.pitch)
        y0, y1 = max(y, 0), min(y + height, self.height)
        x0, x1 = max(x, 0), min(x + width, self.pitch)
        kept = max(y1 - y0, 0) * max(x1 - x0, 0)
        if kept != height * width:
            self._note_oob("write_block", height * width - kept,
                           f"block ({x},{y}) {width}x{height} vs "
                           f"{self.pitch}x{self.height}")
        if y0 >= y1 or x0 >= x1:
            return
        if self._san_rec is not None:
            self._san_rec.note_rect(self, "w", x0, x1, y0, y1, self.pitch)
        img[y0:y1, x0:x1] = block[y0 - y:y1 - y, x0 - x:x1 - x]

    def _inside(self, xs: np.ndarray, ys: np.ndarray, width: int,
                height: int) -> bool:
        """Whether every block lies wholly inside the surface."""
        return bool(xs.size) and int(xs.min()) >= 0 and \
            int(ys.min()) >= 0 and \
            int(xs.max()) <= self.pitch - width and \
            int(ys.max()) <= self.height - height

    def read_block_many(self, xs, ys, width: int, height: int) -> np.ndarray:
        """Vectorized :meth:`read_block`: one block per thread at
        ``(xs[t], ys[t])`` -> (T, height, width) uint8, edge-clamped.

        In-bounds blocks are gathered through the ``(height, width)``
        window view; the clamped gather runs only when a block crosses
        an edge."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        if self._inside(xs, ys, width, height):
            return self._window(height, width)[ys, xs]
        vis = (np.clip(np.minimum(ys + height, self.height)
                       - np.maximum(ys, 0), 0, height)
               * np.clip(np.minimum(xs + width, self.pitch)
                         - np.maximum(xs, 0), 0, width))
        clipped = height * width * len(xs) - int(vis.sum())
        if clipped:
            self._note_oob("read_block_many", clipped,
                           f"{len(xs)} thread blocks {width}x{height} vs "
                           f"{self.pitch}x{self.height}")
        rows = np.clip(ys[:, None] + np.arange(height), 0, self.height - 1)
        cols = np.clip(xs[:, None] + np.arange(width), 0, self.pitch - 1)
        img = self.bytes.reshape(self.height, self.pitch)
        return img[rows[:, :, None], cols[:, None, :]]

    def write_block_many(self, xs, ys, width: int, height: int,
                         data: np.ndarray) -> None:
        """Vectorized :meth:`write_block` from ``data`` (T, height, width).

        Out-of-bounds texels are dropped; overlapping in-bounds texels
        resolve in thread order (the later thread wins).  In-bounds
        blocks on strictly ascending tiles of a ``width`` x ``height``
        grid (grid order, x fastest) cannot overlap and are assigned
        through the window view; any other placement takes the ordered,
        clipped scatter.
        """
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        raw = np.asarray(data)
        if raw.dtype != np.uint8:
            raw = np.ascontiguousarray(raw).view(np.uint8)
        raw = raw.reshape(len(xs), height, width)
        if self._inside(xs, ys, width, height) and \
                not (xs % width).any() and not (ys % height).any():
            tiles = (ys // height) * (self.pitch // width) + xs // width
            if (np.diff(tiles) > 0).all():
                self._window(height, width)[ys, xs] = raw
                return
        rows = ys[:, None] + np.arange(height)
        cols = xs[:, None] + np.arange(width)
        ok = ((rows >= 0) & (rows < self.height))[:, :, None] & \
            ((cols >= 0) & (cols < self.pitch))[:, None, :]
        dropped = ok.size - int(ok.sum())
        if dropped:
            self._note_oob("write_block_many", dropped,
                           f"{len(xs)} thread blocks {width}x{height} vs "
                           f"{self.pitch}x{self.height}")
        img = self.bytes.reshape(self.height, self.pitch)
        r = np.broadcast_to(np.clip(rows, 0, self.height - 1)[:, :, None],
                            ok.shape)
        c = np.broadcast_to(np.clip(cols, 0, self.pitch - 1)[:, None, :],
                            ok.shape)
        img[r[ok], c[ok]] = raw[ok]

    # -- sampler-style typed access (OpenCL images) -------------------------

    def read_pixels(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Gather pixels at integer coords, clamped to the edge.

        Returns an ``(n, bytes_per_pixel)`` uint8 array, one row per lane —
        the raw channels of each texel.  The OpenCL layer converts these to
        float, mirroring the image unit's format conversion.
        """
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        ok = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        clipped = ok.size - int(ok.sum())
        if clipped:
            self._note_oob("read_pixels", clipped,
                           f"{clipped}/{ok.size} coords outside "
                           f"{self.width}x{self.height}")
        xs = np.clip(xs, 0, self.width - 1)
        ys = np.clip(ys, 0, self.height - 1)
        img = self.bytes.reshape(self.height, self.pitch)
        base = xs * self.bytes_per_pixel
        if self._san_rec is not None:
            self._san_rec.note_offsets(
                self, "r", ys * self.pitch + base, self.bytes_per_pixel)
        cols = base[:, None] + np.arange(self.bytes_per_pixel)
        return img[ys[:, None], cols].copy()

    def write_pixels(self, xs: np.ndarray, ys: np.ndarray,
                     values: np.ndarray) -> None:
        """Scatter raw pixel bytes at integer coords (OOB writes dropped)."""
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        ok = (xs >= 0) & (xs < self.width) & (ys >= 0) & (ys < self.height)
        dropped = ok.size - int(ok.sum())
        if dropped:
            self._note_oob("write_pixels", dropped,
                           f"{dropped}/{ok.size} coords outside "
                           f"{self.width}x{self.height}")
        raw = np.ascontiguousarray(values).view(np.uint8)
        raw = raw.reshape(len(xs), self.bytes_per_pixel)
        img = self.bytes.reshape(self.height, self.pitch)
        base = xs[ok] * self.bytes_per_pixel
        if self._san_rec is not None:
            self._san_rec.note_offsets(
                self, "w", ys[ok] * self.pitch + base, self.bytes_per_pixel)
        cols = base[:, None] + np.arange(self.bytes_per_pixel)
        img[ys[ok][:, None], cols] = raw[ok]
