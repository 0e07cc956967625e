"""Out-of-place matrix transpose, float32 (Section VI-A-5).

- :func:`run_ocl` — the classic SIMT tiling through SLM [Harris 2013]:
  a work-group copies a tile into SLM with coalesced reads, barriers,
  then writes it back transposed (padded SLM stride to dodge bank
  conflicts).  Global traffic is coalesced both ways, but every element
  makes an SLM round trip and every tile pays a barrier.
- :func:`run_cm` — each hardware thread block-reads a tile into
  registers, shuffles it with select/merge regioning (Section VI's
  2x2-recursion idiom, generalized), and block-writes the transposed
  tile.  No SLM, no barriers.

Both sides take their tile edge (and the SLM side its SIMD width) as
parameters, so the autotuner (:mod:`repro.tune`) can search the
SLM-vs-direct choice and the tile size per machine; the defaults are
the paper's hand-tuned 16x16 / SIMD16 configuration.  Tile edges must
be powers of two (the register shuffle recurses by halving) and the
register path needs two tile-sized matrices of GRF per thread, so
``tile=32`` (8 KB) is structurally invalid there — exactly the kind of
point a declared :class:`~repro.tune.space.TuneSpace` constraint
filters before a compile is attempted.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from repro import cm, ocl
from repro.sim.device import Device

TILE = 16


def make_matrix(n: int, seed: int = 23) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)).astype(np.float32)


def reference(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.T)


def _check(a: np.ndarray, tile: int) -> int:
    n = a.shape[0]
    if a.shape != (n, n) or n % tile:
        raise ValueError(f"need a square matrix with n % {tile} == 0")
    if tile & (tile - 1):
        raise ValueError(f"tile must be a power of two, got {tile}")
    return n


# -- CM implementation --------------------------------------------------------


def _register_transpose(m_in: cm.Matrix, m_out: cm.Matrix,
                        tile: int = TILE) -> None:
    """Transpose a register tile with the merge/replicate idiom.

    The paper transposes 2x2 sub-matrices with two ``replicate`` regions
    and a ``merge``, recursing for larger tiles.  The generalized form
    used here swaps the off-diagonal blocks at every power-of-two level:
    log2(tile) levels, each touching all tile^2 elements once with
    region reads (free) plus a predicated merge per block row.
    """
    m_out.assign(m_in)  # movs: the working copy
    size = tile // 2
    while size >= 1:
        for bi in range(0, tile, 2 * size):
            for bj in range(0, tile, 2 * size):
                upper = m_out.select(size, 1, size, 1, bi, bj + size)
                lower = m_out.select(size, 1, size, 1, bi + size, bj)
                tmp = cm.matrix(cm.float32, size, size, upper)
                upper.assign(lower)
                lower.assign(tmp)
        size //= 2


@functools.cache
def cm_kernel_for(tile: int) -> Callable:
    """The register-transpose CM kernel for one tile edge (memoized so
    repeated launches share one kernel identity)."""

    @cm.cm_kernel
    def _cm_transpose(src, dst, n):
        tx = cm.thread_x()
        ty = cm.thread_y()
        t_in = cm.matrix(cm.float32, tile, tile)
        cm.read(src, tx * tile * 4, ty * tile, t_in)
        out = cm.matrix(cm.float32, tile, tile)
        _register_transpose(t_in, out, tile)
        cm.write(dst, ty * tile * 4, tx * tile, out)

    return _cm_transpose


def run_cm(device: Device, a: np.ndarray, tile: int = TILE) -> np.ndarray:
    n = _check(a, tile)
    src = device.image2d(a.copy(), bytes_per_pixel=4)
    dst = device.image2d(np.zeros_like(a), bytes_per_pixel=4)
    device.run_cm(cm_kernel_for(tile), grid=(n // tile, n // tile),
                  args=(src, dst, n), name=f"cm_transpose_t{tile}")
    return dst.to_numpy().copy()


# -- OpenCL implementation ------------------------------------------------------

@functools.cache
def ocl_kernel_for(tile: int) -> Callable:
    """The SLM-tiled SIMT kernel for one tile edge (padded SLM stride
    ``tile + 1`` floats to avoid bank conflicts)."""
    stride = tile + 1

    def _ocl_transpose(src, dst, n, slm):
        lx = ocl.get_local_id(0)
        ly = ocl.get_local_id(1)
        gx = ocl.get_group_id(0) * tile
        gy = ocl.get_group_id(1) * tile
        x = lx + gx
        y = ly + gy
        v = ocl.load(src, y * n + x, dtype=np.float32)
        ocl.slm_store(slm, ly * stride + lx, v)
        yield ocl.barrier()
        # Read the tile transposed out of SLM, write coalesced rows.
        t = ocl.slm_load(slm, lx * stride + ly, dtype=np.float32)
        xo = lx + gy
        yo = ly + gx
        ocl.store(dst, yo * n + xo, t)

    return _ocl_transpose


def run_ocl(device: Device, a: np.ndarray, simd: int = 16,
            tile: int = TILE) -> np.ndarray:
    n = _check(a, tile)
    src = device.buffer(a.copy())
    dst = device.buffer(np.zeros_like(a))
    ocl.enqueue(device, ocl_kernel_for(tile), global_size=(n, n),
                local_size=(tile, tile), args=(src, dst, n), simd=simd,
                slm_bytes=tile * (tile + 1) * 4,
                name=f"ocl_transpose_t{tile}")
    return dst.to_numpy().copy()
