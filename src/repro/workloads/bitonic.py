"""Bitonic sort (Section VI-A-1).

Sorts ``n = 2^k`` uint32 keys ascending.

- :func:`run_ocl` — the SIMT baseline: the classic global-memory bitonic
  network, one kernel launch per (stage, pass) step, each work-item
  loading/comparing/storing key pairs.  ``k(k+1)/2`` launches, each a
  full pass over the array plus a global synchronization.
- :func:`run_cm` — each hardware thread holds **256 keys in registers**
  (1 KB of the 4 KB GRF) and runs every split step with stride <= 128
  locally; only strides >= 256 touch global memory.  This collapses the
  first 8 stages into one launch and the tail of every later stage into
  one launch, cutting both launches and memory passes — the effect the
  paper credits for the 1.6x-2.3x win.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import cm, ocl
from repro.sim import context as ctx_mod
from repro.sim.device import Device

#: Keys held in registers per CM hardware thread.
LOCAL_SPAN = 256
#: Strides processed in registers (pairs within a LOCAL_SPAN block).
LOCAL_MAX_STRIDE = LOCAL_SPAN // 2


def make_input(log2n: int, seed: int = 11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**31, size=2**log2n, dtype=np.uint32)


def reference(keys: np.ndarray) -> np.ndarray:
    return np.sort(keys)


# -- CM implementation -------------------------------------------------------


def _asc_mask(size: int, stride: int, base: int, count: int) -> np.ndarray:
    """Direction per pair-lane: 1 where the enclosing size-block ascends."""
    a_idx = _a_indices(stride, base, count)
    return ((a_idx & size) == 0).astype(np.uint16)


def _a_indices(stride: int, base: int, count: int) -> np.ndarray:
    k = base + np.arange(count)
    return (k // stride) * 2 * stride + (k % stride)


@cm.cm_kernel
def _cm_local_sort(buf, sizes, n):
    """Sort a 256-key block in registers through the given split sizes."""
    t = cm.thread_x()
    base = t * LOCAL_SPAN
    v = cm.vector(cm.uint, LOCAL_SPAN)
    cm.read(buf, base * 4, v)
    for size in sizes:
        stride = min(size // 2, LOCAL_MAX_STRIDE)
        while stride >= 1:
            _cm_cmpxchg(v, size, stride, base)
            stride //= 2
    cm.write(buf, base * 4, v)


def _cm_cmpxchg(v: cm.Vector, size: int, stride: int, base: int) -> None:
    """One compare-exchange step on a register-resident block."""
    rows = LOCAL_SPAN // (2 * stride)
    m = v.format(cm.uint, rows, 2 * stride)
    lo = m.select(rows, 1, stride, 1, 0, 0)
    hi = m.select(rows, 1, stride, 1, 0, stride)
    mn = cm.cm_min(lo, hi)
    mx = cm.cm_max(lo, hi)
    mask = _asc_mask(size, stride, base // 2, LOCAL_SPAN // 2)
    mask2d = mask.reshape(rows, stride)
    lo.merge(mn, mx, mask2d)
    hi.merge(mx, mn, mask2d)


@cm.cm_kernel
def _cm_global_step(buf, size, stride, n):
    """One global split step (stride >= 128): 128 pairs per thread."""
    t = cm.thread_x()
    k = t * 128
    a_base = (k // stride) * 2 * stride + (k % stride)
    ascending = (a_base & size) == 0
    a = cm.vector(cm.uint, 128)
    b = cm.vector(cm.uint, 128)
    cm.read(buf, a_base * 4, a)
    cm.read(buf, (a_base + stride) * 4, b)
    mn = cm.cm_min(a, b)
    mx = cm.cm_max(a, b)
    if ascending:
        cm.write(buf, a_base * 4, mn)
        cm.write(buf, (a_base + stride) * 4, mx)
    else:
        cm.write(buf, a_base * 4, mx)
        cm.write(buf, (a_base + stride) * 4, mn)


def run_cm(device: Device, keys: np.ndarray) -> np.ndarray:
    n = len(keys)
    if n & (n - 1) or n < 2 * LOCAL_SPAN:
        raise ValueError(f"need a power-of-two size >= {2 * LOCAL_SPAN}")
    buf = device.buffer(keys.copy())
    threads = n // LOCAL_SPAN

    # Stages up to LOCAL_SPAN entirely in registers, one launch.
    local_sizes = [2 ** s for s in range(1, LOCAL_SPAN.bit_length())]
    device.run_cm(_cm_local_sort, grid=(threads,),
                  args=(buf, local_sizes, n), name="cm_bitonic_local")

    size = 2 * LOCAL_SPAN
    while size <= n:
        stride = size // 2
        while stride >= LOCAL_SPAN:
            device.run_cm(_cm_global_step, grid=(n // 256,),
                          args=(buf, size, stride, n),
                          name=f"cm_bitonic_g{size}_{stride}")
            stride //= 2
        # The rest of this stage (strides <= 128) runs in registers.
        device.run_cm(_cm_local_sort, grid=(threads,),
                      args=(buf, [size], n), name=f"cm_bitonic_l{size}")
        size *= 2
    return buf.to_numpy().copy()


# -- compiled divergent implementation ----------------------------------------
#
# The compare-exchange direction alternates between adjacent lanes, so a
# lane-packed bitonic step is *divergent*: half the lanes take the
# ascending branch, half the descending one.  The compiled path expresses
# that with masked SIMD control flow (``simd_if``/``simd_while``) and
# dispatches on the JIT tier; the eager baseline below serializes the
# same work-items one lane at a time, which is what a per-thread
# interpreter must do without a masked-CF ISA.

#: Keys per hardware thread on the compiled divergent path.
CF_SPAN = 32
#: SIMD lanes per thread (= compare-exchange pairs per masked step).
CF_WIDTH = 16
#: Largest log2(stride) whose pairs stay inside one thread's 32-key span.
CF_LOCAL_MAX_LG = 4


def _cf_local_body(cmx, buf, t, lgs0, lgs1):
    """Run every split step of stages ``2**lgs0 .. 2**lgs1`` whose stride
    fits in the thread's 32-key span (strides 16..1), in one launch.

    ``lgs0``/``lgs1`` are scalar kernel parameters, so one compiled binary
    covers both the initial local sort (stages 2..32) and every later
    stage's local tail.  Both loops are ``simd_while`` loops with uniform
    trip counts; the per-lane divergence is the ascending/descending
    branch of the compare-exchange.
    """
    W = CF_WIDTH
    lane = cmx.vector(np.int32, W, np.arange(W, dtype=np.int32))
    one = cmx.vector(np.int32, W, 1)
    lgsize = cmx.vector(np.int32, W)
    lgsize.assign(lgs0)
    lglim = cmx.vector(np.int32, W)
    lglim.assign(lgs1)
    lg = cmx.vector(np.int32, W)
    a_idx = cmx.vector(np.int32, W)
    b_idx = cmx.vector(np.int32, W)
    va = cmx.vector(np.uint32, W)
    vb = cmx.vector(np.uint32, W)
    out_a = cmx.vector(np.uint32, W)
    out_b = cmx.vector(np.uint32, W)

    def stage():
        lg.assign(cmx.cm_min(lgsize - 1, CF_LOCAL_MAX_LG))

        def step():
            stride = one << lg
            a_loc = ((lane >> lg) << (lg + 1)) | (lane & (stride - 1))
            a_idx.assign(a_loc + t * CF_SPAN)
            b_idx.assign(a_idx + stride)
            cmx.read_scattered(buf, 0, a_idx, va)
            cmx.read_scattered(buf, 0, b_idx, vb)
            asc = ((a_idx >> lgsize) & 1) == 0
            with cmx.simd_if(asc) as br:
                out_a.assign(cmx.cm_min(va, vb))
                out_b.assign(cmx.cm_max(va, vb))
            with br.orelse():
                out_a.assign(cmx.cm_max(va, vb))
                out_b.assign(cmx.cm_min(va, vb))
            cmx.write_scattered(buf, 0, a_idx, out_a)
            cmx.write_scattered(buf, 0, b_idx, out_b)
            lg.assign(lg - 1)
            return lg >= 0

        cmx.simd_while(step)
        lgsize.assign(lgsize + 1)
        return lgsize <= lglim

    cmx.simd_while(stage)


@functools.cache
def _cf_global_body(lg: int, lgsize: int):
    """One global split step (stride ``2**lg`` >= 32), 16 pairs per thread.

    The stride and stage are uniform per launch, so they are baked into
    the trace; the ascending/descending compare-exchange keeps its
    divergent ``simd_if`` (within a thread the direction happens to be
    uniform at these strides, but the masked form is what the ISA
    executes).  Memoized per ``(lg, lgsize)`` so the identity-keyed
    kernel caches hit across sorts.
    """
    stride = 1 << lg

    def body(cmx, buf, t):
        W = CF_WIDTH
        lane = cmx.vector(np.int32, W, np.arange(W, dtype=np.int32))
        k = cmx.vector(np.int32, W)
        k.assign(lane + t * W)
        a_idx = cmx.vector(np.int32, W)
        a_idx.assign(((k >> lg) << (lg + 1)) | (k & (stride - 1)))
        b_idx = cmx.vector(np.int32, W)
        b_idx.assign(a_idx + stride)
        va = cmx.vector(np.uint32, W)
        vb = cmx.vector(np.uint32, W)
        cmx.read_scattered(buf, 0, a_idx, va)
        cmx.read_scattered(buf, 0, b_idx, vb)
        out_a = cmx.vector(np.uint32, W)
        out_b = cmx.vector(np.uint32, W)
        asc = ((a_idx >> lgsize) & 1) == 0
        with cmx.simd_if(asc) as br:
            out_a.assign(cmx.cm_min(va, vb))
            out_b.assign(cmx.cm_max(va, vb))
        with br.orelse():
            out_a.assign(cmx.cm_max(va, vb))
            out_b.assign(cmx.cm_min(va, vb))
        cmx.write_scattered(buf, 0, a_idx, out_a)
        cmx.write_scattered(buf, 0, b_idx, out_b)

    return body


_CF_SIG = [("buf", False)]


def run_cm_bitonic_compiled(device: Device, keys: np.ndarray,
                            tier: str = "auto",
                            validate: str = "off") -> np.ndarray:
    """Sort via the compiled divergent kernels (JIT-tier eligible).

    One local launch covers stages 2..32 (15 split steps); each later
    stage runs its >=32 strides as global steps and its 16..1 strides as
    one local-tail launch of the same compiled binary.
    """
    n = len(keys)
    if n & (n - 1) or n < CF_SPAN:
        raise ValueError(f"need a power-of-two size >= {CF_SPAN}")
    log2n = n.bit_length() - 1
    buf = device.buffer(keys.copy())
    threads = n // CF_SPAN
    local = device.compile(_cf_local_body, "cf_bitonic_local", _CF_SIG,
                           ["t", "lgs0", "lgs1"])

    def launch_local(lgs0: int, lgs1: int) -> None:
        device.run_compiled(
            local, grid=(threads,), surfaces=[buf],
            scalars=lambda tid, a=lgs0, b=lgs1: {"t": tid[0],
                                                 "lgs0": a, "lgs1": b},
            name="cf_bitonic_local", tier=tier, validate=validate)

    launch_local(1, min(5, log2n))
    for lgsize in range(6, log2n + 1):
        for lg in range(lgsize - 1, CF_LOCAL_MAX_LG, -1):
            name = f"cf_bitonic_g{lgsize}_{lg}"
            kern = device.compile(_cf_global_body(lg, lgsize), name,
                                  _CF_SIG, ["t"])
            device.run_compiled(
                kern, grid=(n // CF_SPAN,), surfaces=[buf],
                scalars=lambda tid: {"t": tid[0]},
                name=name, tier=tier, validate=validate)
        launch_local(lgsize, lgsize)
    return buf.to_numpy().view(np.uint32).copy()


# -- eager per-thread divergent baseline ---------------------------------------

#: Work-items (compare-exchange pairs) serialized per eager thread.
EAGER_PAIRS = 16


@cm.cm_kernel
def _cm_divergent_step_eager(buf, size, stride, n):
    """One split step with lane-serialized divergence.

    The per-thread eager interpreter has no masked-CF ISA, so the 16
    work-items the compiled path packs into SIMD lanes execute one at a
    time: scalar loads, a scalar compare-and-branch per pair, scalar
    stores.  This is the baseline the divergent benchmark measures the
    compiled path against.
    """
    t = cm.thread_x()
    log2s = stride.bit_length() - 1
    for j in range(EAGER_PAIRS):
        k = t * EAGER_PAIRS + j
        a_idx = ((k >> log2s) << (log2s + 1)) | (k & (stride - 1))
        b_idx = a_idx + stride
        ctx_mod.emit_scalar(4)  # per-work-item address arithmetic
        a = cm.vector(cm.uint, 1)
        b = cm.vector(cm.uint, 1)
        cm.read_scattered(buf, 0, [a_idx], a)
        cm.read_scattered(buf, 0, [b_idx], b)
        mn = cm.cm_min(a, b)
        mx = cm.cm_max(a, b)
        ctx_mod.emit_scalar(2)  # the diverging compare-and-branch
        if (a_idx & size) == 0:
            cm.write_scattered(buf, 0, [a_idx], mn)
            cm.write_scattered(buf, 0, [b_idx], mx)
        else:
            cm.write_scattered(buf, 0, [a_idx], mx)
            cm.write_scattered(buf, 0, [b_idx], mn)


def run_cm_bitonic_eager(device: Device, keys: np.ndarray) -> np.ndarray:
    """The eager per-thread path: full network, serialized divergence."""
    n = len(keys)
    if n & (n - 1) or n < 2 * EAGER_PAIRS:
        raise ValueError(f"need a power-of-two size >= {2 * EAGER_PAIRS}")
    buf = device.buffer(keys.copy())
    threads = n // 2 // EAGER_PAIRS
    size = 2
    while size <= n:
        stride = size // 2
        while stride >= 1:
            device.run_cm(_cm_divergent_step_eager, grid=(threads,),
                          args=(buf, size, stride, n),
                          name=f"cm_div_bitonic_{size}_{stride}")
            stride //= 2
        size *= 2
    return buf.to_numpy().view(np.uint32).copy()


# -- OpenCL implementation ----------------------------------------------------

#: Pairs handled per work-item (the sample's int4 vectorization).
_OCL_VEC = 4


def _ocl_bitonic_step(buf, size, stride, n):
    wid = ocl.get_global_id(0)
    log2s = stride.bit_length() - 1
    if stride >= _OCL_VEC:
        # The work-item's 4 a-indices (and 4 b-indices) are consecutive:
        # uint4 vector loads/stores, one message each (the int4
        # vectorization the paper credits the SIMT version with).
        k = wid * _OCL_VEC
        a_base = ((k >> log2s) << (log2s + 1)) | (k & (stride - 1))
        a4 = ocl.vload(buf, _OCL_VEC, a_base // _OCL_VEC, dtype=np.uint32)
        b_base = a_base | stride
        b4 = ocl.vload(buf, _OCL_VEC, b_base // _OCL_VEC, dtype=np.uint32)
        ascending = (a_base & size) == 0
        lo4, hi4 = [], []
        for a, b in zip(a4, b4):
            mn = ocl.min_(a, b)
            mx = ocl.max_(a, b)
            lo4.append(ocl.where(ascending, mn, mx))
            hi4.append(ocl.where(ascending, mx, mn))
        ocl.vstore(buf, _OCL_VEC, a_base // _OCL_VEC, lo4)
        ocl.vstore(buf, _OCL_VEC, b_base // _OCL_VEC, hi4)
        return
    # stride < 4: each work-item's 4 pairs live inside 8 consecutive
    # elements — two uint4 loads, compare-exchange between vector
    # components (register swizzles), two uint4 stores.
    base8 = wid * 2  # uint4-granular index of the first of two vectors
    lo4 = ocl.vload(buf, _OCL_VEC, base8, dtype=np.uint32)
    hi4 = ocl.vload(buf, _OCL_VEC, base8 + 1, dtype=np.uint32)
    elems = lo4 + hi4  # components 0..7 of the 8-element window
    first = wid * 2 * _OCL_VEC  # element index of component 0
    out = [None] * 8
    for k_off in range(_OCL_VEC):
        # Pair p within the window: positions computed from the stride.
        p = k_off
        a_off = (p // stride) * 2 * stride + (p % stride)
        b_off = a_off + stride
        a, b = elems[a_off], elems[b_off]
        ascending = ((first + a_off) & size) == 0
        mn = ocl.min_(a, b)
        mx = ocl.max_(a, b)
        out[a_off] = ocl.where(ascending, mn, mx)
        out[b_off] = ocl.where(ascending, mx, mn)
    # Component swizzles back into two uint4 registers cost a few movs.
    ctx_mod.emit_alu(16 * 8, cm.uint)
    ocl.vstore(buf, _OCL_VEC, base8, out[:4])
    ocl.vstore(buf, _OCL_VEC, base8 + 1, out[4:])


def run_ocl(device: Device, keys: np.ndarray, simd: int = 16) -> np.ndarray:
    n = len(keys)
    if n & (n - 1) or n < 2:
        raise ValueError("need a power-of-two input size")
    buf = device.buffer(keys.copy())
    items = n // 2 // _OCL_VEC
    size = 2
    while size <= n:
        stride = size // 2
        while stride >= 1:
            ocl.enqueue(device, _ocl_bitonic_step, global_size=items,
                        local_size=min(items, 8 * simd),
                        args=(buf, size, stride, n), simd=simd,
                        name=f"ocl_bitonic_{size}_{stride}")
            stride //= 2
        size *= 2
    return buf.to_numpy().copy()
