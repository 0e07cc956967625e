"""Systolic GEMM (Table I row 1).

The paper's systolic GEMM targets a systolic dot-product accumulate
(DPAS-style) unit on a future GPU.  That unit does not exist on Gen11,
so per the substitution rule we model it as a **deeper-K register-blocked
GEMM**: the B tile (the weights) for a K band is block-read once and
held stationary in the register file while A (the activations) streams
through, and the fp32 accumulation chains stay in registers across the
whole band — twice the K depth of :mod:`repro.workloads.gemm`'s kernel.
The data-movement structure (weights stationary, activations streamed
through block reads, accumulators never leaving the GRF) is what
differentiates the CM and SIMT versions, and it is preserved by this
mapping.

The K-band depth is a real knob: deeper bands mean fewer read messages
per element but more live registers per thread, so ``ktile`` (together
with the ``bm`` x ``bn`` accumulator block) is exposed to the autotuner
(:mod:`repro.tune`) — past a machine-dependent point the register
allocator runs out of GRF and the variant is inadmissible.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import cm
from repro.sim.device import Device
from repro.workloads import gemm

#: Weights-stationary K-band depth (deeper than gemm.KTILE = 8).
SYS_KTILE = 16
#: Accumulator block per thread (eager path: explicit GRF management
#: affords the full 16x16 block, the paper's resource-headroom story).
SYS_BM, SYS_BN = 16, 16
#: Compiled-path block: the trace frontend keeps whole tiles live as
#: single virtual registers, so the register allocator caps the block
#: well below the hand-managed eager kernel (and the cap tightens with
#: K: more unrolled bands fragment the free-register space).
SYS_JIT_BM, SYS_JIT_BN = 8, 8

make_inputs = gemm.make_inputs
reference = gemm.reference


# -- CM implementation (eager) -------------------------------------------------


@cm.cm_kernel
def _cm_systolic(abuf, bbuf, cbuf, m, n, k, alpha, beta, bm, bn, ktile):
    tx = cm.thread_x()  # C-block column index
    ty = cm.thread_y()  # C-block row index
    row0, col0 = ty * bm, tx * bn
    acc = cm.matrix(cm.float32, bm, bn, 0.0)
    acc_flat = acc.format(cm.float32)
    for k0 in range(0, k, ktile):
        # Weights for this K band: read once, then stationary while the
        # activation rows stream through the mad chain below.
        btile = cm.matrix(cm.float32, ktile, bn)
        cm.read(bbuf, col0 * 4, k0, btile)
        atile = cm.matrix(cm.float32, bm, ktile)
        cm.read(abuf, k0 * 4, row0, atile)
        for kk in range(ktile):
            a_bcast = atile.column(kk).replicate(bm, 1, bn, 0)
            b_bcast = btile.row(kk).replicate(bm, 0, bn, 1)
            cm.cm_mul_add(acc_flat, a_bcast, b_bcast)
    ctile = cm.matrix(cm.float32, bm, bn)
    cm.read(cbuf, col0 * 4, row0, ctile)
    result = acc * alpha + ctile * beta
    ctile.assign(result)
    cm.write(cbuf, col0 * 4, row0, ctile)


def run_cm(device: Device, a, b, c, alpha=1.0, beta=0.0,
           bm: int = SYS_BM, bn: int = SYS_BN,
           ktile: int = SYS_KTILE) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    if m % bm or n % bn or k % ktile:
        raise ValueError(f"dims must divide {bm}x{bn} blocks, K by {ktile}")
    abuf = device.image2d(a.copy(), bytes_per_pixel=4)
    bbuf = device.image2d(b.copy(), bytes_per_pixel=4)
    cbuf = device.image2d(c.copy(), bytes_per_pixel=4)
    device.run_cm(_cm_systolic, grid=(n // bn, m // bm),
                  args=(abuf, bbuf, cbuf, m, n, k, alpha, beta, bm, bn,
                        ktile),
                  name="cm_systolic_gemm")
    return cbuf.to_numpy().copy()


# -- CM implementation, compiled path ------------------------------------------

_JIT_SIG = [("abuf", True), ("bbuf", True), ("cbuf", True)]


@functools.cache
def _jit_systolic_body(k: int, bm: int, bn: int, ktile: int):
    """One body per (k, bm, bn, ktile) so Device.compile's
    identity-keyed cache hits across launches of the same variant."""
    if k % ktile:
        raise ValueError(f"K={k} must divide the K band ({ktile})")

    def systolic_jit(cmx, abuf, bbuf, cbuf, tx, ty):
        row0 = ty * bm
        col0 = tx * bn
        acc = cmx.matrix(np.float32, bm, bn,
                         np.zeros(bm * bn, np.float32))
        for k0 in range(0, k, ktile):
            # Fresh per-band tiles: their live ranges end with the band,
            # so the linear-scan allocator recycles the registers — the
            # GRF cost of the kernel is one band, not the whole K.
            btile = cmx.matrix(np.float32, ktile, bn)
            cmx.read(bbuf, col0 * 4, k0, btile)
            atile = cmx.matrix(np.float32, bm, ktile)
            cmx.read(abuf, k0 * 4, row0, atile)
            for kk in range(ktile):
                a_bcast = atile.replicate(bm, ktile, bn, 0, kk)
                b_bcast = btile.replicate(bm, 0, bn, 1, kk * bn)
                acc += a_bcast * b_bcast
        ctile = cmx.matrix(np.float32, bm, bn)
        cmx.read(cbuf, col0 * 4, row0, ctile)
        out = cmx.matrix(np.float32, bm, bn)
        out.assign(acc + ctile)
        cmx.write(cbuf, col0 * 4, row0, out)

    return systolic_jit


def run_cm_compiled(device: Device, a, b, c,
                    bm: int = SYS_JIT_BM, bn: int = SYS_JIT_BN,
                    ktile: int = SYS_KTILE) -> np.ndarray:
    """C = A@B + C through the compile pipeline + batch engine."""
    m, k = a.shape
    n = b.shape[1]
    if m % bm or n % bn or k % ktile:
        raise ValueError(f"dims must divide {bm}x{bn} blocks, K by {ktile}")
    abuf = device.image2d(a.copy(), bytes_per_pixel=4)
    bbuf = device.image2d(b.copy(), bytes_per_pixel=4)
    cbuf = device.image2d(c.copy(), bytes_per_pixel=4)
    kern = device.compile(_jit_systolic_body(k, bm, bn, ktile),
                          f"cm_systolic_jit_b{bm}x{bn}k{ktile}",
                          _JIT_SIG, ["tx", "ty"])
    device.run_compiled(kern, grid=(n // bn, m // bm),
                        surfaces=[abuf, bbuf, cbuf],
                        scalars=lambda tid: {"tx": tid[0], "ty": tid[1]},
                        name=f"cm_systolic_jit_b{bm}x{bn}k{ktile}")
    return cbuf.to_numpy().copy()


# -- OpenCL baseline -----------------------------------------------------------


def run_ocl(device: Device, a, b, c, alpha=1.0, beta=0.0) -> np.ndarray:
    return gemm._run_ocl_typed(device, a, b, c, alpha, beta,
                               gemm.OCL_BM, gemm.OCL_BN, 16,
                               "ocl_systolic_gemm")
