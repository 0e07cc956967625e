"""Region collapsing: instruction combining for rdregion/wrregion.

Patterns folded (Section V's "region collapsing" examples):

- ``rdregion(rdregion(x, R1), R2)`` — composes into a single rdregion
  when the combined element pattern is expressible as a ``<V;W,H>``
  region,
- ``rdregion(wrregion(old, new, R), R)`` with the *same* region —
  forwards ``new`` directly,
- ``wrregion`` that overwrites the whole vector contiguously — becomes
  a plain value forward (the old value is irrelevant).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.compiler.ir import Function, Region, Value


class IndexPattern(NamedTuple):
    """The element indices an operand reads or writes, as parameters.

    Element ``i`` is ``off + (i // width) * vstride + (i % width) *
    hstride``: the ``<V;W,H>`` formula of :meth:`Region.element_indices`.
    Legalization asks, per candidate chunk ``[lo, lo + e)``, whether the
    chunk is a strided run (:meth:`step`) or a single ``<V;W,H>`` source
    region (:meth:`chunk_region`), and answers by arithmetic on these
    four numbers instead of materializing index arrays.
    """

    off: int
    vstride: int
    width: int
    hstride: int

    @classmethod
    def of_region(cls, region: Region, elem_size: int) -> "IndexPattern":
        return cls(region.offset_bytes // elem_size, region.vstride,
                   region.width, region.hstride)

    @classmethod
    def linear(cls, off: int = 0, step: int = 1) -> "IndexPattern":
        return cls(off, step, 1, 0)

    def at(self, i: int) -> int:
        """Index of element ``i``."""
        return (self.off + (i // self.width) * self.vstride
                + (i % self.width) * self.hstride)

    def indices(self, n: int) -> np.ndarray:
        """The first ``n`` indices (for the rare exact comparisons)."""
        i = np.arange(n)
        return (self.off + (i // self.width) * self.vstride
                + (i % self.width) * self.hstride)

    def _run(self, lo: int, e: int) -> Tuple[Optional[int], int, int]:
        """``(step, first_jump, jumps)`` of elements ``[lo, lo + e)``.

        ``step`` is the common difference when the chunk has one (it
        stays within a row, or the rows continue each other); otherwise
        ``None``, and the chunk's differences are ``hstride`` except
        the row jumps, which sit at difference positions ``first_jump
        + k * width`` (``jumps`` of them, at least one).
        """
        w, v, h = self.width, self.vstride, self.hstride
        if w == 1:
            return v, 0, 0
        c = lo % w
        if c + e <= w or v == w * h:
            return h, 0, 0
        first = w - 1 - c
        return None, first, (e - 2 - first) // w + 1

    def step(self, lo: int, e: int) -> Optional[int]:
        """Common difference of elements ``[lo, lo + e)`` (``e > 1``),
        or ``None`` when they are not an arithmetic progression."""
        step, _, _ = self._run(lo, e)
        if step is None and e == 2:
            return self.vstride - (self.width - 1) * self.hstride
        return step

    def chunk_region(self, lo: int, e: int) -> Optional[Region]:
        """:func:`region_from_indices` of elements ``[lo, lo + e)``
        relative to the first, decided from the parameters alone.

        Same search order and the same canonical answer: the widest of
        16/8/4/2/1 that divides ``e`` and reproduces the chunk with
        non-negative strides.
        """
        if e == 1:
            return Region(vstride=0, width=1, hstride=0, offset_bytes=0)
        step, first, jumps = self._run(lo, e)
        if step is not None:
            if step < 0:
                return None
            w = next(w for w in (16, 8, 4, 2, 1) if e % w == 0)
            return Region(vstride=w * step, width=w,
                          hstride=step if w > 1 else 0, offset_bytes=0)
        # The chunk crosses a row: its differences are H except `jumps`
        # row jumps J.  A region of width w has a constant difference h
        # inside its rows and a constant g between them.
        wid, h_in = self.width, self.hstride
        jump = self.vstride - (wid - 1) * h_in
        w = 16
        while w >= 2:
            if e % w == 0:
                rows = e // w
                if (first + 1) % w == 0 and (jumps == 1 or wid % w == 0) \
                        and jumps == rows - 1:
                    h, g = h_in, jump  # every row jump ends a region row
                elif w == 2 and first == 0 and (e == 2 or wid == 2):
                    h, g = jump, h_in  # every region row starts with a jump
                else:
                    w //= 2
                    continue
                v = (w - 1) * h + g if rows > 1 else w * h
                if h >= 0 and v >= 0:
                    return Region(vstride=v, width=w, hstride=h,
                                  offset_bytes=0)
            w //= 2
        return None


def region_from_indices(indices: np.ndarray,
                        offset_scale: int = 1) -> Optional[Region]:
    """Find ``<V;W,H>`` region parameters reproducing ``indices``.

    Returns None when no single region matches.  ``offset_scale`` converts
    the leading index into the byte offset (element size).
    """
    n = len(indices)
    base = int(indices[0])
    rel = indices - base
    for width in (16, 8, 4, 2, 1):
        if n % width:
            continue
        h = int(rel[1] - rel[0]) if width > 1 else 0
        v = int(rel[width]) if n > width else 0
        i = np.arange(n)
        candidate = (i // width) * v + (i % width) * h
        if np.array_equal(candidate, rel) and h >= 0 and v >= 0:
            if n == width and v == 0:
                v = width * h  # canonical contiguous form, e.g. <16;16,1>
            return Region(vstride=v, width=width, hstride=max(h, 0),
                          offset_bytes=base * offset_scale)
    return None


def _same_region(a: Region, b: Region) -> bool:
    return (a.vstride, a.width, a.hstride, a.offset_bytes) == \
        (b.vstride, b.width, b.hstride, b.offset_bytes)


def region_collapse(fn: Function) -> int:
    """Collapse regions in place; returns the number of rewrites."""
    rewrites = 0
    uses = fn.uses()
    for instr in fn.instrs:
        if instr.op == "rdregion" and "replicate" not in instr.attrs:
            src = instr.operands[0]
            prod = src.producer
            if prod is None:
                continue
            if prod.op == "rdregion" and "replicate" not in prod.attrs:
                elem = prod.operands[0].vtype.dtype.size
                outer = instr.region.element_indices(
                    instr.result.vtype.n, src.vtype.dtype.size)
                inner = prod.region.element_indices(
                    prod.result.vtype.n, elem)
                combined = region_from_indices(inner[outer], elem)
                if combined is not None:
                    instr.operands[0] = prod.operands[0]
                    instr.region = combined
                    rewrites += 1
            elif prod.op == "wrregion" and _same_region(prod.region,
                                                        instr.region):
                new_val = prod.operands[1]
                if new_val.vtype.n == instr.result.vtype.n:
                    _forward(fn, uses, instr.result, new_val)
                    instr.op = "mov"
                    instr.operands = [new_val]
                    instr.region = None
                    rewrites += 1
        elif instr.op == "wrregion":
            old, new = instr.operands[0], instr.operands[1]
            if isinstance(new, Value) and new.vtype.n == old.vtype.n:
                r = instr.region
                if (r.offset_bytes == 0 and r.hstride == 1
                        and r.width >= 1 and _covers_all(r, old)):
                    instr.op = "mov"
                    instr.operands = [new]
                    instr.region = None
                    rewrites += 1
    return rewrites


def _covers_all(region: Region, old: Value) -> bool:
    idx = region.element_indices(old.vtype.n, old.vtype.dtype.size)
    return bool(np.array_equal(np.sort(idx), np.arange(old.vtype.n)))


def _forward(fn: Function, uses, _from: Value, _to: Value) -> None:
    # Left intentionally minimal: the mov this rewrites into is cleaned up
    # by dead-code elimination after copy propagation at bale time.
    del fn, uses, _from, _to
