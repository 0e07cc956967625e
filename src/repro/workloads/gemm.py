"""SGEMM / DGEMM: C = alpha*A@B + beta*C (Section VI-A-6).

Both implementations use the same register-blocking strategy (the OpenCL
one mimics CM via ``cl_intel_subgroups``, as the paper notes); the CM
kernel simply holds a **larger C block per thread** because it manages
the register file explicitly — 32x16 accumulators vs the SIMT kernel's
16x16 — so it re-reads A and B tiles proportionally fewer times.  That
resource-management headroom is the whole ~8-10% story.

Matrices are row-major; A is MxK, B is KxN, C is MxN.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import cm, ocl
from repro.sim import context as ctx_mod
from repro.sim.device import Device

#: K-tile depth staged per iteration.
KTILE = 8
#: CM C-block: 32 rows x 16 columns (2 KB of f32 accumulators).
CM_BM, CM_BN = 32, 16
#: OpenCL C-block per subgroup: 16 rows x 16 columns.
OCL_BM, OCL_BN = 16, 16


def make_inputs(m: int, n: int, k: int, dtype=np.float32, seed: int = 29):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k)).astype(dtype)
    b = rng.standard_normal((k, n)).astype(dtype)
    c = rng.standard_normal((m, n)).astype(dtype)
    return a, b, c


def reference(a, b, c, alpha=1.0, beta=0.0):
    return (alpha * (a.astype(np.float64) @ b.astype(np.float64))
            + beta * c.astype(np.float64)).astype(a.dtype)


# -- CM implementation ---------------------------------------------------------


def _cm_gemm_kernel(cmt, np_dtype):
    """Build the CM GEMM kernel for a CM element type (f32 or f64)."""
    elem = np.dtype(np_dtype).itemsize

    @cm.cm_kernel
    def kernel(abuf, bbuf, cbuf, m, n, k, alpha, beta, bm, bn):
        tx = cm.thread_x()  # C-block column index
        ty = cm.thread_y()  # C-block row index
        row0, col0 = ty * bm, tx * bn
        acc = cm.matrix(cmt, bm, bn, 0.0)
        # Double-buffered A/B tiles: the next k-tile's reads are issued
        # before the current tile is consumed, so the loads overlap with
        # the mads (the software pipelining real CM GEMM kernels use).
        atiles = [cm.matrix(cmt, bm, KTILE) for _ in range(2)]
        btiles = [cm.matrix(cmt, KTILE, bn) for _ in range(2)]
        acc_flat = acc.format(cmt)
        cm.read(abuf, 0, row0, atiles[0])
        cm.read(bbuf, col0 * elem, 0, btiles[0])
        n_tiles = k // KTILE
        for tile in range(n_tiles):
            cur, nxt = tile % 2, (tile + 1) % 2
            if tile + 1 < n_tiles:
                k0 = (tile + 1) * KTILE
                cm.read(abuf, k0 * elem, row0, atiles[nxt])
                cm.read(bbuf, col0 * elem, k0, btiles[nxt])
            atile, btile = atiles[cur], btiles[cur]
            for kk in range(KTILE):
                # acc[r, :] += A[r, kk] * B[kk, :] for all rows at once:
                # both operands are vstride-0 replicate regions (free), so
                # this is bm x bn/16 mad instructions and nothing else.
                a_bcast = atile.column(kk).replicate(bm, 1, bn, 0)
                b_bcast = btile.row(kk).replicate(bm, 0, bn, 1)
                cm.cm_mul_add(acc_flat, a_bcast, b_bcast)
        ctile = cm.matrix(cmt, bm, bn)
        cm.read(cbuf, col0 * elem, row0, ctile)
        result = acc * alpha + ctile * beta
        ctile.assign(result)
        cm.write(cbuf, col0 * elem, row0, ctile)

    return kernel


def _run_cm_typed(device, a, b, c, alpha, beta, cmt, bm, bn, name):
    m, k = a.shape
    n = b.shape[1]
    if m % bm or n % bn or k % KTILE:
        raise ValueError(f"dims must divide {bm}x{bn} blocks, K by {KTILE}")
    abuf = device.image2d(a.copy(), bytes_per_pixel=a.itemsize)
    bbuf = device.image2d(b.copy(), bytes_per_pixel=b.itemsize)
    cbuf = device.image2d(c.copy(), bytes_per_pixel=c.itemsize)
    kern = _cm_gemm_kernel(cmt, a.dtype)
    device.run_cm(kern, grid=(n // bn, m // bm),
                  args=(abuf, bbuf, cbuf, m, n, k, alpha, beta, bm, bn),
                  name=name)
    return cbuf.to_numpy().copy()


def run_cm_sgemm(device: Device, a, b, c, alpha=1.0, beta=0.0) -> np.ndarray:
    return _run_cm_typed(device, a, b, c, alpha, beta, cm.float32,
                         CM_BM, CM_BN, "cm_sgemm")


def run_cm_dgemm(device: Device, a, b, c, alpha=1.0, beta=0.0) -> np.ndarray:
    # Double-precision accumulators are twice the size: halve the block rows.
    return _run_cm_typed(device, a, b, c, alpha, beta, cm.double,
                         CM_BM // 2, CM_BN, "cm_dgemm")


# -- CM implementation, compiled path ------------------------------------------

#: Compiled-path C-block (smaller than the eager CM kernel's: the trace
#: frontend fully unrolls the K loop, so keep the program compact).
JIT_BM, JIT_BN = 8, 16

_JIT_SIG = [("abuf", True), ("bbuf", True), ("cbuf", True)]


@functools.cache
def _jit_gemm_body(k: int):
    """One body per K so Device.compile's identity-keyed cache hits
    across launches of the same problem size."""

    def sgemm_jit(cmx, abuf, bbuf, cbuf, tx, ty):
        row0 = ty * JIT_BM
        col0 = tx * JIT_BN
        atile = cmx.matrix(np.float32, JIT_BM, k)
        cmx.read(abuf, 0, row0, atile)
        btile = cmx.matrix(np.float32, k, JIT_BN)
        cmx.read(bbuf, col0 * 4, 0, btile)
        acc = cmx.matrix(np.float32, JIT_BM, JIT_BN,
                         np.zeros(JIT_BM * JIT_BN, np.float32))
        for kk in range(k):
            a_bcast = atile.replicate(JIT_BM, k, JIT_BN, 0, kk)
            b_bcast = btile.replicate(JIT_BM, 0, JIT_BN, 1, kk * JIT_BN)
            acc += a_bcast * b_bcast
        ctile = cmx.matrix(np.float32, JIT_BM, JIT_BN)
        cmx.read(cbuf, col0 * 4, row0, ctile)
        out = cmx.matrix(np.float32, JIT_BM, JIT_BN)
        out.assign(acc + ctile)
        cmx.write(cbuf, col0 * 4, row0, out)

    return sgemm_jit


def run_cm_sgemm_compiled(device: Device, a, b, c) -> np.ndarray:
    """C = A@B + C through the full compile pipeline + batch engine.

    Unlike :func:`run_cm_sgemm` (eager per-thread interpretation), this
    path goes frontend -> passes -> vISA -> finalizer -> pooled
    ``run_compiled`` dispatch, so a traced run shows ``compile`` /
    ``pass:*`` spans next to the ``dispatch`` span.
    """
    m, k = a.shape
    n = b.shape[1]
    if m % JIT_BM or n % JIT_BN:
        raise ValueError(f"dims must divide {JIT_BM}x{JIT_BN} blocks")
    abuf = device.image2d(a.copy(), bytes_per_pixel=4)
    bbuf = device.image2d(b.copy(), bytes_per_pixel=4)
    cbuf = device.image2d(c.copy(), bytes_per_pixel=4)
    kern = device.compile(_jit_gemm_body(k), "cm_sgemm_jit", _JIT_SIG,
                          ["tx", "ty"])
    device.run_compiled(kern, grid=(n // JIT_BN, m // JIT_BM),
                        surfaces=[abuf, bbuf, cbuf],
                        scalars=lambda tid: {"tx": tid[0], "ty": tid[1]},
                        name="cm_sgemm_jit")
    return cbuf.to_numpy().copy()


# -- OpenCL implementation ------------------------------------------------------


def _ocl_gemm_kernel(np_dtype):
    np_dtype = np.dtype(np_dtype)
    cmt = cm.double if np_dtype.itemsize == 8 else cm.float32

    def kernel(abuf, bbuf, cbuf, m, n, k, alpha, beta, bm, bn):
        simd = ocl.get_sub_group_size()
        gx = int(ocl.get_global_id(0).vals[0]) // simd  # block column
        gy = ocl.get_group_id(1)
        row0, col0 = gy * bm, gx * bn
        lane = ocl.get_sub_group_local_id()
        # Each lane owns one C column of the block: bm accumulators.
        acc = np.zeros((bm, simd), dtype=np_dtype)
        for k0 in range(0, k, simd):  # K staged at the subgroup width
            # Multi-row subgroup block reads (intel_sub_group_block_read8).
            a_rows = ocl.intel_sub_group_block_read_rows(
                abuf, row0 * k + k0, bm, k, dtype=np_dtype)
            b_rows = ocl.intel_sub_group_block_read_rows(
                bbuf, k0 * n + col0, simd, n, dtype=np_dtype)
            a_blk = np.stack([v.vals for v in a_rows])
            b_blk = np.stack([v.vals for v in b_rows])
            acc += a_blk @ b_blk
            # bm * simd mad instructions; the subgroup broadcast of the A
            # element folds into the mad operand region (IGC bales it).
            ctx_mod.emit_alu(bm * simd * simd, cmt)
        c_rows = ocl.intel_sub_group_block_read_rows(
            cbuf, row0 * n + col0, bm, n, dtype=np_dtype)
        for r in range(bm):
            out = ocl.SimtValue.of(acc[r], np_dtype) * alpha \
                + c_rows[r] * beta
            ocl.intel_sub_group_block_write(cbuf, (row0 + r) * n + col0,
                                            out.astype(np_dtype))

    return kernel


def _run_ocl_typed(device, a, b, c, alpha, beta, bm, bn, simd, name):
    m, k = a.shape
    n = b.shape[1]
    if m % bm or n % bn or k % simd:
        raise ValueError(f"dims must divide {bm}x{bn} blocks, K by {simd}")
    abuf = device.buffer(a.copy())
    bbuf = device.buffer(b.copy())
    cbuf = device.buffer(c.copy())
    kern = _ocl_gemm_kernel(a.dtype)
    ocl.enqueue(device, kern, global_size=((n // bn) * simd, m // bm),
                local_size=(simd, 1),
                args=(abuf, bbuf, cbuf, m, n, k, alpha, beta, bm, bn),
                simd=simd, name=name)
    return cbuf.to_numpy().copy()


def run_ocl_sgemm(device: Device, a, b, c, alpha=1.0, beta=0.0) -> np.ndarray:
    return _run_ocl_typed(device, a, b, c, alpha, beta, OCL_BM, OCL_BN,
                          16, "ocl_sgemm")


def run_ocl_dgemm(device: Device, a, b, c, alpha=1.0, beta=0.0) -> np.ndarray:
    return _run_ocl_typed(device, a, b, c, alpha, beta, OCL_BM // 2, OCL_BN,
                          16, "ocl_dgemm")
