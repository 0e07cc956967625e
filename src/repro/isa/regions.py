"""Gen region-based operand addressing.

A source operand region is written ``<V;W,H>`` in Gen assembly:

- ``W`` (width): number of elements in a row,
- ``H`` (horizontal stride): step, in elements, between elements of a row,
- ``V`` (vertical stride): step, in elements, between rows.

Together with the execution size ``N`` the region describes an
``N``-element gather from the register file at zero cost: element ``i``
lives at ``base + (i // W) * V + (i % W) * H`` (in element units).

Destination operands use a simple horizontal stride ``<H>``.

This module contains the arithmetic only; :mod:`repro.isa.grf` applies the
offsets to the register file bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """A ``<V;W,H>`` source region (element units)."""

    vstride: int
    width: int
    hstride: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"region width must be positive, got {self.width}")
        if self.hstride < 0 or self.vstride < 0:
            raise ValueError("region strides must be non-negative")

    def __str__(self) -> str:
        return f"<{self.vstride};{self.width},{self.hstride}>"

    @staticmethod
    def contiguous(width: int = 8) -> "Region":
        """The canonical packed region ``<W;W,1>``."""
        return Region(width, width, 1)

    @staticmethod
    def scalar() -> "Region":
        """The broadcast region ``<0;1,0>``."""
        return Region(0, 1, 0)

    def is_contiguous(self, n: int) -> bool:
        """True if an ``n``-element access through this region is packed."""
        w, v, h = self.width, self.vstride, self.hstride
        if n <= 1:
            return True
        if w == 1:
            return v == 1
        return h == 1 and (n <= w or v == w)

    def is_scalar(self, n: int) -> bool:
        """True if every element of an ``n``-element access is element 0
        (a broadcast)."""
        w, v, h = self.width, self.vstride, self.hstride
        return n <= 1 or ((w == 1 or h == 0) and (n <= w or v == 0))

    def span(self, n: int) -> int:
        """Largest element offset of an ``n``-element access."""
        w, v, h = self.width, self.vstride, self.hstride
        rows, last = divmod(n - 1, w)
        top = rows * v + last * h
        return max(top, (rows - 1) * v + (w - 1) * h) if rows else top


@dataclass(frozen=True)
class RegionDesc:
    """A fully-specified operand region: byte offset + ``<V;W,H>`` + type size.

    ``offset_bytes`` is the byte offset of the first element relative to the
    start of the containing register range (for vISA virtual operands) or of
    the GRF (for physical operands).
    """

    offset_bytes: int
    region: Region
    elem_size: int

    def byte_offsets(self, n: int) -> np.ndarray:
        """Byte offsets of the ``n`` region elements."""
        return self.offset_bytes + region_element_offsets(self.region, n) * self.elem_size


def region_element_offsets(region: Region, n: int) -> np.ndarray:
    """Element-unit offsets of an ``n``-element access through ``region``."""
    idx = np.arange(n)
    rows, cols = np.divmod(idx, region.width)
    return rows * region.vstride + cols * region.hstride


def region_for_strided(n: int, stride: int) -> Region:
    """Region describing a 1D strided select of ``n`` elements."""
    if stride == 1:
        return Region(min(n, 8), min(n, 8), 1)
    return Region(stride * min(n, 8), min(n, 8), stride) if n > 1 else Region.scalar()
