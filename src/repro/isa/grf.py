"""The Gen general register file (GRF).

Each hardware thread owns a dedicated, byte-addressable register file of
128 registers x 32 bytes = 4 KB.  Operands address it as
``r<reg>.<subreg>`` where ``subreg`` is in element units of the operand's
type.  Region addressing (:mod:`repro.isa.regions`) turns a single operand
into a strided gather/scatter over these bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.dtypes import DType
from repro.isa.regions import Region, region_element_offsets

GRF_SIZE_BYTES = 32
NUM_GRF = 128


@dataclass(frozen=True)
class RegOperand:
    """A physical register operand: ``r<reg>.<subreg><region>:<type>``.

    ``subreg`` is in element units of ``dtype`` (Gen assembly convention).
    ``dst_stride`` is used when the operand is a destination (``<H>``).
    """

    reg: int
    subreg: int
    dtype: DType
    region: Region = Region.scalar()
    dst_stride: int = 1

    @property
    def byte_offset(self) -> int:
        return self.reg * GRF_SIZE_BYTES + self.subreg * self.dtype.size

    def regs_read(self, n: int) -> tuple:
        """The GRF registers an ``n``-element source read touches,
        ascending (from the region parameters; no bounds check)."""
        size = self.dtype.size
        base = self.byte_offset
        region = self.region
        if region.is_scalar(n) or region.is_contiguous(n):  # one byte run
            last = base + (region.span(n) + 1) * size - 1
            return tuple(range(base // GRF_SIZE_BYTES,
                               last // GRF_SIZE_BYTES + 1))
        w, v, h = region.width, region.vstride, region.hstride
        regs = set()
        for i in range(n):
            b = base + ((i // w) * v + (i % w) * h) * size
            regs.add(b // GRF_SIZE_BYTES)
            regs.add((b + size - 1) // GRF_SIZE_BYTES)
        return tuple(sorted(regs))

    def src_str(self) -> str:
        return f"r{self.reg}.{self.subreg}{self.region}:{self.dtype.name}"

    def dst_str(self) -> str:
        return f"r{self.reg}.{self.subreg}<{self.dst_stride}>:{self.dtype.name}"

    def __str__(self) -> str:
        return self.src_str()


class GRFFile:
    """A 4 KB byte-addressable register file with region access.

    The backing store is a flat ``uint8`` array; typed views are taken per
    access so that an instruction reading floats out of bytes written by a
    raw block load behaves exactly like hardware.
    """

    def __init__(self, num_regs: int = NUM_GRF) -> None:
        self.bytes = np.zeros(num_regs * GRF_SIZE_BYTES, dtype=np.uint8)

    # -- raw byte access -------------------------------------------------

    def write_bytes(self, byte_offset: int, data: np.ndarray) -> None:
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        end = byte_offset + raw.size
        if end > self.bytes.size:
            raise IndexError(
                f"GRF write of {raw.size} bytes at offset {byte_offset} "
                f"overruns the {self.bytes.size}-byte register file")
        self.bytes[byte_offset:end] = raw

    def read_bytes(self, byte_offset: int, nbytes: int) -> np.ndarray:
        end = byte_offset + nbytes
        if end > self.bytes.size:
            raise IndexError(
                f"GRF read of {nbytes} bytes at offset {byte_offset} "
                f"overruns the {self.bytes.size}-byte register file")
        return self.bytes[byte_offset:end].copy()

    # -- typed region access ----------------------------------------------

    def _element_byte_offsets(self, base_byte: int, dtype: DType,
                              region: Region, n: int) -> np.ndarray:
        offs = base_byte + region_element_offsets(region, n) * dtype.size
        if offs.size and (offs.min() < 0 or offs.max() + dtype.size > self.bytes.size):
            raise IndexError(
                f"region access [{offs.min()}, {offs.max() + dtype.size}) "
                f"outside the {self.bytes.size}-byte register file")
        return offs

    def read_region(self, operand: RegOperand, n: int) -> np.ndarray:
        """Gather ``n`` elements through a source region."""
        offs = self._element_byte_offsets(
            operand.byte_offset, operand.dtype, operand.region, n)
        size = operand.dtype.size
        idx = offs[:, None] + np.arange(size)
        return self.bytes[idx].copy().view(operand.dtype.np_dtype).ravel()

    def write_region(self, operand: RegOperand, values: np.ndarray,
                     mask: np.ndarray | None = None) -> None:
        """Scatter elements through a destination region, honouring a mask."""
        values = np.ascontiguousarray(values, dtype=operand.dtype.np_dtype)
        n = values.size
        region = Region(n * operand.dst_stride, n, operand.dst_stride)
        offs = self._element_byte_offsets(
            operand.byte_offset, operand.dtype, region, n)
        size = operand.dtype.size
        raw = values.view(np.uint8).reshape(n, size)
        idx = offs[:, None] + np.arange(size)
        if mask is None:
            self.bytes[idx] = raw
        else:
            keep = np.asarray(mask, dtype=bool)
            self.bytes[idx[keep]] = raw[keep]

    def dump_reg(self, reg: int, dtype: DType) -> np.ndarray:
        """Debug helper: one register's contents viewed as ``dtype``."""
        start = reg * GRF_SIZE_BYTES
        return self.bytes[start:start + GRF_SIZE_BYTES].view(dtype.np_dtype).copy()
