"""K-means clustering (Section VI-A-3).

2D float32 points, ``k`` centroids, a fixed number of Lloyd iterations.
Both implementations alternate two kernels per iteration:

1. *assign*: label every point with its nearest centroid and accumulate
   per-cluster coordinate sums and counts,
2. *update*: reduce the partial sums and recompute centroid positions.

- :func:`run_cm` — centroids and the accumulation table live in the
  **register file** for the whole chunk a hardware thread processes;
  point chunks are double-buffered (the load overlap the paper credits
  to the CM compiler) and one round of global atomics merges each
  thread's partials.  No SLM, no barriers in the hot loop.
- :func:`run_ocl` — the expert SIMT version: centroids staged in SLM
  (barrier), per-point accumulation through SLM atomics, and a per-WG
  merge into global accumulators.  (Gen has no float atomic-add; the real
  kernel pays an equivalent price with fixed-point adds — we model the
  float adds at integer-atomic cost.)
"""

from __future__ import annotations

import functools

import numpy as np

from repro import cm, ocl
from repro.sim import context as ctx_mod
from repro.sim.device import Device

#: Padded cluster count so block reads/writes stay oword aligned.
def _kpad(k: int) -> int:
    return -(-k // 16) * 16


def make_points(n: int, k: int = 20, seed: int = 5):
    """Gaussian blobs around k true centers."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-100, 100, size=(k, 2)).astype(np.float32)
    labels = rng.integers(0, k, size=n)
    pts = centers[labels] + rng.normal(0, 6.0, size=(n, 2))
    return pts.astype(np.float32), centers


def reference(points: np.ndarray, centroids0: np.ndarray,
              iterations: int) -> np.ndarray:
    """Numpy oracle for the same fixed-iteration Lloyd loop."""
    cent = centroids0.astype(np.float64).copy()
    pts = points.astype(np.float64)
    for _ in range(iterations):
        d = ((pts[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        labels = d.argmin(axis=1)
        for c in range(len(cent)):
            sel = labels == c
            if sel.any():
                cent[c] = pts[sel].mean(axis=0)
    return cent.astype(np.float32)


# -- CM implementation -------------------------------------------------------


@cm.cm_kernel
def _cm_assign(xs, ys, cent, acc, k, kp, pts_per_thread):
    t = cm.thread_x()
    base = t * pts_per_thread
    cx = cm.vector(cm.float32, kp)
    cy = cm.vector(cm.float32, kp)
    cm.read(cent, 0, cx)
    cm.read(cent, kp * 4, cy)
    accx = cm.vector(cm.float32, kp, 0.0)
    accy = cm.vector(cm.float32, kp, 0.0)
    accn = cm.vector(cm.float32, kp, 0.0)
    # Double-buffered point chunks: the next chunk's reads issue before
    # the current chunk is consumed (the overlap the paper credits to
    # the CM compiler's scheduling of scattered reads).
    pxs = [cm.vector(cm.float32, 16) for _ in range(2)]
    pys = [cm.vector(cm.float32, 16) for _ in range(2)]
    cm.read(xs, base * 4, pxs[0])
    cm.read(ys, base * 4, pys[0])
    n_chunks = pts_per_thread // 16
    for chunk in range(n_chunks):
        cur, nxt = chunk % 2, (chunk + 1) % 2
        if chunk + 1 < n_chunks:
            off = (chunk + 1) * 16
            cm.read(xs, (base + off) * 4, pxs[nxt])
            cm.read(ys, (base + off) * 4, pys[nxt])
        px, py = pxs[cur], pys[cur]
        best = cm.vector(cm.float32, 16, 3.0e38)
        bidx = cm.vector(cm.uint, 16, 0)
        for c in range(k):
            dx = px - cx[c]
            dy = py - cy[c]
            dist = dx * dx
            cm.cm_mul_add(dist, dy, dy)
            closer = dist < best
            best.merge(dist, closer)
            bidx.merge(c, closer)
        # Register-indirect accumulation: acc[label] += point, one indexed
        # add per lane and coordinate (scalar rate, stays in the GRF).
        labels = bidx.to_numpy()
        np.add.at(accx._buf, labels, px.to_numpy())
        np.add.at(accy._buf, labels, py.to_numpy())
        np.add.at(accn._buf, labels, 1.0)
        ctx_mod.emit_scalar(48)
    # One round of global atomics merges this thread's partial sums
    # (the same merge step the OpenCL version performs per work-group).
    offs = cm.vector(cm.uint, kp, np.arange(kp))
    cm.atomic("add", acc, offs, src=accx)
    cm.atomic("add", acc, offs + kp, src=accy)
    cm.atomic("add", acc, offs + 2 * kp, src=accn)


@cm.cm_kernel
def _cm_update(acc, cent, k, kp):
    sums = cm.vector(cm.float32, 3 * kp)
    cm.read(acc, 0, sums)
    accx = sums.select(kp, 1, 0)
    accy = sums.select(kp, 1, kp)
    accn = sums.select(kp, 1, 2 * kp)
    denom = cm.cm_max(accn, 1.0)
    cx = accx / denom
    cy = accy / denom
    out = cm.vector(cm.float32, kp)
    out.assign(cx)
    cm.write(cent, 0, out)
    out.assign(cy)
    cm.write(cent, kp * 4, out)


def run_cm(device: Device, points: np.ndarray, centroids0: np.ndarray,
           iterations: int = 2, pts_per_thread: int = 256) -> np.ndarray:
    n, k = len(points), len(centroids0)
    kp = _kpad(k)
    if n % pts_per_thread:
        raise ValueError("point count must divide by pts_per_thread")
    n_threads = n // pts_per_thread
    xs = device.buffer(np.ascontiguousarray(points[:, 0]))
    ys = device.buffer(np.ascontiguousarray(points[:, 1]))
    cent_host = np.zeros(2 * kp, dtype=np.float32)
    cent_host[:k] = centroids0[:, 0]
    cent_host[kp:kp + k] = centroids0[:, 1]
    cent = device.buffer(cent_host)
    acc = device.buffer(np.zeros(3 * kp, dtype=np.float32))
    for _ in range(iterations):
        acc.to_numpy()[:] = 0.0
        device.run_cm(_cm_assign, grid=(n_threads,),
                      args=(xs, ys, cent, acc, k, kp, pts_per_thread),
                      name="cm_kmeans_assign")
        device.run_cm(_cm_update, grid=(1,),
                      args=(acc, cent, k, kp),
                      name="cm_kmeans_update")
    out = cent.to_numpy()
    return np.stack([out[:k], out[kp:kp + k]], axis=1)


# -- compiled divergent implementation ----------------------------------------
#
# The nearest-centroid search is a *divergent assignment loop*: each lane
# tracks its own running best, and whether a given centroid improves it
# differs lane by lane.  The compiled kernel expresses the per-centroid
# loop as a ``simd_while`` and the improves-my-best update as a masked
# ``simd_if``; the eager baseline below serializes the same loop one
# point at a time.

#: Points per hardware thread on the compiled divergent path.
CF_PTS = 16


@functools.cache
def _cf_assign_body(k: int, kp: int):
    """Build the divergent assign kernel for a fixed cluster count.

    Memoized per ``(k, kp)`` so the identity-keyed kernel caches
    (``Device.compile``, serve cache-affinity routing) hit across calls.
    """
    def body(cmx, xs, ys, cent, labels, t):
        W = CF_PTS
        lane = cmx.vector(np.int32, W, np.arange(W, dtype=np.int32))
        idx = cmx.vector(np.int32, W)
        idx.assign(lane + t * W)
        px = cmx.vector(np.float32, W)
        py = cmx.vector(np.float32, W)
        cmx.read_scattered(xs, 0, idx, px)
        cmx.read_scattered(ys, 0, idx, py)
        best = cmx.vector(np.float32, W, 3.0e38)
        bidx = cmx.vector(np.int32, W, 0)
        c = cmx.vector(np.int32, W, 0)
        cx = cmx.vector(np.float32, W)
        cy = cmx.vector(np.float32, W)

        def loop():
            cmx.read_scattered(cent, 0, c, cx)
            cmx.read_scattered(cent, 0, c + kp, cy)
            dx = px - cx
            dy = py - cy
            dist = dx * dx + dy * dy
            with cmx.simd_if(dist < best):
                best.assign(dist)
                bidx.assign(c)
            c.assign(c + 1)
            return c < k

        cmx.simd_while(loop)
        cmx.write_scattered(labels, 0, idx, bidx)

    return body


def _labels_oracle(pts: np.ndarray, cent_buf: np.ndarray, k: int,
                   kp: int) -> np.ndarray:
    """Float32 oracle with the kernel's exact op order and tie-breaking."""
    px = pts[:, 0].astype(np.float32)[:, None]
    py = pts[:, 1].astype(np.float32)[:, None]
    cx = cent_buf[:k][None, :]
    cy = cent_buf[kp:kp + k][None, :]
    dx = px - cx
    dy = py - cy
    dist = dx * dx + dy * dy
    # strict < keeps the first minimum, like np.argmin.
    return dist.argmin(axis=1).astype(np.int32)


def _host_update(pts: np.ndarray, labels: np.ndarray,
                 cent_buf: np.ndarray, k: int, kp: int) -> None:
    """Lloyd centroid update from device labels (in-place on cent_buf)."""
    sx = np.zeros(k, dtype=np.float64)
    sy = np.zeros(k, dtype=np.float64)
    cnt = np.zeros(k, dtype=np.float64)
    np.add.at(sx, labels, pts[:, 0].astype(np.float64))
    np.add.at(sy, labels, pts[:, 1].astype(np.float64))
    np.add.at(cnt, labels, 1.0)
    nonzero = cnt > 0
    cent_buf[:k][nonzero] = (sx[nonzero] / cnt[nonzero]).astype(np.float32)
    cent_buf[kp:kp + k][nonzero] = \
        (sy[nonzero] / cnt[nonzero]).astype(np.float32)


def run_cm_kmeans_compiled(device: Device, points: np.ndarray,
                           centroids0: np.ndarray, iterations: int = 2,
                           tier: str = "auto",
                           validate: str = "off") -> np.ndarray:
    """Lloyd iterations with the compiled divergent assign kernel.

    The assign step (where all the divergence lives) runs on the device;
    the small uniform centroid update runs on the host.
    """
    n, k = len(points), len(centroids0)
    kp = _kpad(k)
    if n % CF_PTS:
        raise ValueError(f"point count must divide by {CF_PTS}")
    xs = device.buffer(np.ascontiguousarray(points[:, 0]))
    ys = device.buffer(np.ascontiguousarray(points[:, 1]))
    cent_host = np.zeros(2 * kp, dtype=np.float32)
    cent_host[:k] = centroids0[:, 0]
    cent_host[kp:kp + k] = centroids0[:, 1]
    cent = device.buffer(cent_host)
    labels_buf = device.buffer(np.zeros(n, dtype=np.int32))
    name = f"cf_kmeans_assign_k{k}"
    kern = device.compile(
        _cf_assign_body(k, kp), name,
        [("xs", False), ("ys", False), ("cent", False), ("labels", False)],
        ["t"])
    for _ in range(iterations):
        device.run_compiled(kern, grid=(n // CF_PTS,),
                            surfaces=[xs, ys, cent, labels_buf],
                            scalars=lambda tid: {"t": tid[0]},
                            name=name, tier=tier, validate=validate)
        labels = labels_buf.to_numpy()
        _host_update(points, labels, cent.to_numpy(), k, kp)
    out = cent.to_numpy()
    return np.stack([out[:k], out[kp:kp + k]], axis=1)


# -- eager per-thread divergent baseline ---------------------------------------

#: Points serialized per eager thread on the divergent baseline.
EAGER_PTS = 16


@cm.cm_kernel
def _cm_assign_divergent_eager(xs, ys, cent, labels, k, kp, pts_per_thread):
    """The assignment loop with lane-serialized divergence.

    Op-for-op the same program as :func:`_cf_assign_body`, but without a
    masked-CF ISA the per-thread eager interpreter runs it one point at
    a time: scalar loads, a scalar centroid fetch inside the loop, a
    scalar distance chain, and a scalar compare-and-branch per centroid.
    """
    t = cm.thread_x()
    base = t * pts_per_thread
    for j in range(pts_per_thread):
        px = cm.vector(cm.float32, 1)
        py = cm.vector(cm.float32, 1)
        cm.read_scattered(xs, 0, [base + j], px)
        cm.read_scattered(ys, 0, [base + j], py)
        best = cm.vector(cm.float32, 1, 3.0e38)
        bidx = cm.vector(cm.int32, 1, 0)
        cx = cm.vector(cm.float32, 1)
        cy = cm.vector(cm.float32, 1)
        for c in range(k):
            cm.read_scattered(cent, 0, [c], cx)
            cm.read_scattered(cent, 0, [c + kp], cy)
            dx = px - cx
            dy = py - cy
            dist = dx * dx
            cm.cm_mul_add(dist, dy, dy)
            ctx_mod.emit_scalar(2)  # the diverging compare-and-branch
            if float(dist.to_numpy()[0]) < float(best.to_numpy()[0]):
                best.assign(dist)
                bidx.assign(c)
        cm.write_scattered(labels, 0, [base + j], bidx)


def run_cm_kmeans_eager_divergent(device: Device, points: np.ndarray,
                                  centroids0: np.ndarray,
                                  iterations: int = 2) -> np.ndarray:
    """The eager per-thread path for the divergent assignment loop."""
    n, k = len(points), len(centroids0)
    kp = _kpad(k)
    if n % EAGER_PTS:
        raise ValueError(f"point count must divide by {EAGER_PTS}")
    xs = device.buffer(np.ascontiguousarray(points[:, 0]))
    ys = device.buffer(np.ascontiguousarray(points[:, 1]))
    cent_host = np.zeros(2 * kp, dtype=np.float32)
    cent_host[:k] = centroids0[:, 0]
    cent_host[kp:kp + k] = centroids0[:, 1]
    cent = device.buffer(cent_host)
    labels_buf = device.buffer(np.zeros(n, dtype=np.int32))
    for _ in range(iterations):
        device.run_cm(_cm_assign_divergent_eager, grid=(n // EAGER_PTS,),
                      args=(xs, ys, cent, labels_buf, k, kp, EAGER_PTS),
                      name="cm_div_kmeans_assign")
        labels = labels_buf.to_numpy()
        _host_update(points, labels, cent.to_numpy(), k, kp)
    out = cent.to_numpy()
    return np.stack([out[:k], out[kp:kp + k]], axis=1)


# -- OpenCL implementation ----------------------------------------------------


def _ocl_assign(xs, ys, cent, acc, k, kp, pts_per_item, slm):
    lid = ocl.get_local_id(0)
    gid = ocl.get_global_id(0)
    gsz = ocl.get_global_size(0)
    # Stage centroids into SLM and zero the SLM accumulators.
    first = lid < 2 * kp
    centv = ocl.load(cent, lid, dtype=np.float32, mask=first)
    ocl.slm_store(slm, lid, centv, mask=first)
    zeros = ocl.SimtValue.splat(0.0, lid.width, np.float32)
    accm = lid < 3 * kp
    ocl.slm_store(slm, lid + 2 * kp, zeros, mask=accm)
    yield ocl.barrier()

    for i in range(pts_per_item):
        px = ocl.load(xs, gid + i * gsz, dtype=np.float32)
        py = ocl.load(ys, gid + i * gsz, dtype=np.float32)
        best = ocl.SimtValue.splat(3.0e38, px.width, np.float32)
        bidx = ocl.SimtValue.splat(0, px.width, np.uint32)
        # All centroid loads issue back to back (the compiler schedules
        # them ahead of the distance chain), so their latency overlaps.
        cxs = [ocl.slm_load(slm,
                            ocl.SimtValue.splat(c, px.width, np.uint32),
                            dtype=np.float32) for c in range(k)]
        cys = [ocl.slm_load(slm,
                            ocl.SimtValue.splat(kp + c, px.width, np.uint32),
                            dtype=np.float32) for c in range(k)]
        for c in range(k):
            dx = px - cxs[c]
            dy = py - cys[c]
            dist = ocl.mad(dy, dy, dx * dx)
            closer = dist < best
            best = ocl.where(closer, dist, best)
            bidx = ocl.where(closer, c, bidx).astype(np.uint32)
        slot = bidx + 2 * kp
        ocl.atomic_add_slm(slm, slot, px)
        ocl.atomic_add_slm(slm, slot + kp, py)
        ocl.atomic_add_slm(slm, slot + 2 * kp,
                           ocl.SimtValue.splat(1.0, px.width, np.float32))
    yield ocl.barrier()

    # Work-group leader subgroup merges SLM accumulators into global memory.
    if int(lid.vals[0]) == 0:
        simd = ocl.get_sub_group_size()
        for b0 in range(0, 3 * kp, simd):
            idx = ocl.SimtValue.of(np.arange(b0, b0 + simd), np.uint32)
            vals = ocl.slm_load(slm, idx + 2 * kp, dtype=np.float32)
            ocl.atomic_add_global(acc, idx, vals)


def _ocl_update(acc, cent, k, kp):
    gid = ocl.get_global_id(0)
    sums_x = ocl.load(acc, gid, dtype=np.float32)
    sums_y = ocl.load(acc, gid + kp, dtype=np.float32)
    counts = ocl.load(acc, gid + 2 * kp, dtype=np.float32)
    denom = ocl.fmax_(counts, 1.0)
    ocl.store(cent, gid, sums_x / denom)
    ocl.store(cent, gid + kp, sums_y / denom)


def run_ocl(device: Device, points: np.ndarray, centroids0: np.ndarray,
            iterations: int = 2, pts_per_item: int = 32,
            wg_size: int = 128, simd: int = 16) -> np.ndarray:
    n, k = len(points), len(centroids0)
    kp = _kpad(k)
    items = n // pts_per_item
    if n % pts_per_item or items % wg_size or wg_size < 3 * kp:
        raise ValueError("bad decomposition for the OpenCL k-means")
    xs = device.buffer(np.ascontiguousarray(points[:, 0]))
    ys = device.buffer(np.ascontiguousarray(points[:, 1]))
    cent_host = np.zeros(2 * kp, dtype=np.float32)
    cent_host[:k] = centroids0[:, 0]
    cent_host[kp:kp + k] = centroids0[:, 1]
    cent = device.buffer(cent_host)
    acc = device.buffer(np.zeros(3 * kp, dtype=np.float32))
    for _ in range(iterations):
        acc.to_numpy()[:] = 0.0
        ocl.enqueue(device, _ocl_assign, global_size=items,
                    local_size=wg_size,
                    args=(xs, ys, cent, acc, k, kp, pts_per_item),
                    simd=simd, slm_bytes=(2 * kp + 3 * kp) * 4,
                    name="ocl_kmeans_assign")
        ocl.enqueue(device, _ocl_update, global_size=kp, local_size=kp,
                    args=(acc, cent, k, kp), simd=simd,
                    name="ocl_kmeans_update")
    out = cent.to_numpy()
    return np.stack([out[:k], out[kp:kp + k]], axis=1)
