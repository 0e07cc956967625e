"""Servable workloads: what a :class:`Request` can name.

Two kinds of entries live in the registry:

- **compiled** workloads resolve to a :class:`KernelLaunch` — a compiled
  CM kernel (body + signature + grid) plus a binder that materializes
  the request's input surfaces on the target device.  These go through
  ``Device.compile`` (per-device :class:`KernelCache`, so the
  cache-affinity policy has something to route on) and
  ``Device.run_compiled`` (pooled executor), and same-kernel/same-grid
  requests can be coalesced by the dynamic batcher.
- **eager** workloads resolve to a plain ``device -> output`` closure —
  any Figure 5 pair side from :func:`repro.report.figure5.
  workload_specs` can be served this way (``fig5.gemm``, ``fig5.spmv``,
  ...).  They are never batched and bypass the kernel cache, but they
  exercise the scheduler with realistically lumpy service times.

Input data is derived deterministically from the request parameters
(``seed`` included), so a fixed trace produces identical simulated
totals regardless of how requests interleave across devices — the
property the serving stress test pins down.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.cache import cache_key
from repro.sim.device import Device
from repro.workloads import gemm
from repro.workloads.common import run_on


@dataclass
class KernelLaunch:
    """One compiled-kernel launch, ready to bind to any device."""

    body: Callable
    name: str
    sig: List[Tuple[str, bool]]
    scalar_params: List[str]
    grid: Tuple[int, ...]
    #: device -> (surfaces, scalars); called under the device lock.
    bind: Callable[[Device], tuple] = field(repr=False, default=None)
    #: surfaces -> result summary; raises AssertionError on bad output.
    finish: Optional[Callable[[Sequence], Any]] = field(repr=False,
                                                        default=None)

    @property
    def affinity_key(self) -> tuple:
        """The kernel-cache key: what cache-affinity routing steers on."""
        return cache_key(self.body, self.name, self.sig, self.scalar_params)

    @property
    def batch_key(self) -> tuple:
        """Coalescing key: same compiled program *and* same grid shape."""
        return self.affinity_key + (tuple(self.grid),)


@dataclass
class ServeWorkload:
    """A registry entry: ``make(params)`` builds the request's work."""

    key: str
    kind: str  # "compiled" | "eager"
    make: Callable[[Dict[str, Any]], Any]
    description: str = ""


# -- compiled kernel bodies ---------------------------------------------------
# Bodies are module-level constants so the identity-keyed KernelCache
# hits across requests (and so cache-affinity routing has a stable key).

_VEC = 16  # f32 lanes per thread chunk (one 64-byte oword block)


def _saxpy_body(cmx, xbuf, ybuf, tid):
    off = tid * (_VEC * 4)
    x = cmx.vector(np.float32, _VEC)
    cmx.read(xbuf, off, x)
    y = cmx.vector(np.float32, _VEC)
    cmx.read(ybuf, off, y)
    out = cmx.vector(np.float32, _VEC)
    out.assign(x * np.float32(2.0) + y)
    cmx.write(ybuf, off, out)


_SAXPY_SIG = [("xbuf", False), ("ybuf", False)]


def _scale_body(cmx, buf, tid):
    off = tid * (_VEC * 4)
    v = cmx.vector(np.float32, _VEC)
    cmx.read(buf, off, v)
    out = cmx.vector(np.float32, _VEC)
    out.assign(v * np.float32(3.0))
    cmx.write(buf, off, out)


_SCALE_SIG = [("buf", False)]

_BLUR_W, _BLUR_H = 32, 4  # bytes x rows handled per thread


def _blur_body(cmx, img, tx, ty):
    x0 = tx * _BLUR_W
    y0 = ty * _BLUR_H
    m = cmx.matrix(np.uint8, _BLUR_H, _BLUR_W)
    cmx.read(img, x0, y0, m)
    f = cmx.matrix(np.float32, _BLUR_H, _BLUR_W)
    f.assign(m)
    out = cmx.matrix(np.uint8, _BLUR_H, _BLUR_W)
    out.assign(f * np.float32(0.5))
    cmx.write(img, x0, y0, out)


_BLUR_SIG = [("img", True)]


# -- compiled workload factories ---------------------------------------------


def _make_saxpy(params: Dict[str, Any]) -> KernelLaunch:
    payload = params.get("_payload")
    if payload is not None:
        # Shared-memory data plane: inputs are (views of) caller-owned
        # arrays; the result is snapshotted back into the y view in
        # place, so a shared-memory payload round-trips without a pickle.
        x = np.ascontiguousarray(payload["x"], dtype=np.float32)
        y_io = payload["y"]
        y = np.array(y_io, dtype=np.float32, copy=True)
        n = int(x.size)
        if n % _VEC or np.asarray(y_io).size != n:
            raise ValueError(f"saxpy payload sizes must match and "
                             f"divide {_VEC}")
    else:
        n = int(params.get("n", 256))
        seed = int(params.get("seed", 0))
        if n % _VEC:
            raise ValueError(f"saxpy n must divide {_VEC}")
        rng = np.random.default_rng(seed ^ 0x5a)
        x = rng.standard_normal(n).astype(np.float32)
        y = rng.standard_normal(n).astype(np.float32)
        y_io = None
    expect = 2.0 * x + y

    def bind(device: Device):
        xbuf = device.buffer(n * 4)
        xbuf.restore_from(x)
        ybuf = device.buffer(n * 4)
        ybuf.restore_from(y)
        return [xbuf, ybuf], (lambda tid: {"tid": tid[0]})

    def finish(surfaces):
        out = surfaces[1].to_numpy().view(np.float32)
        assert np.allclose(out, expect, atol=1e-5), "saxpy output mismatch"
        if y_io is not None:
            surfaces[1].snapshot_into(y_io)
        return float(out.sum())

    return KernelLaunch(_saxpy_body, "serve_saxpy", _SAXPY_SIG, ["tid"],
                        (n // _VEC,), bind, finish)


def _make_scale(params: Dict[str, Any]) -> KernelLaunch:
    payload = params.get("_payload")
    if payload is not None:
        v_io = payload["v"]
        v = np.array(v_io, dtype=np.float32, copy=True)
        n = int(v.size)
        if n % _VEC:
            raise ValueError(f"scale payload size must divide {_VEC}")
    else:
        n = int(params.get("n", 256))
        seed = int(params.get("seed", 0))
        if n % _VEC:
            raise ValueError(f"scale n must divide {_VEC}")
        rng = np.random.default_rng(seed ^ 0xc3)
        v = rng.standard_normal(n).astype(np.float32)
        v_io = None
    expect = 3.0 * v

    def bind(device: Device):
        buf = device.buffer(n * 4)
        buf.restore_from(v)
        return [buf], (lambda tid: {"tid": tid[0]})

    def finish(surfaces):
        out = surfaces[0].to_numpy().view(np.float32)
        assert np.allclose(out, expect, atol=1e-5), "scale output mismatch"
        if v_io is not None:
            surfaces[0].snapshot_into(v_io)
        return float(out.sum())

    return KernelLaunch(_scale_body, "serve_scale", _SCALE_SIG, ["tid"],
                        (n // _VEC,), bind, finish)


def _make_blur(params: Dict[str, Any]) -> KernelLaunch:
    bw = int(params.get("blocks_x", 2))
    bh = int(params.get("blocks_y", 2))
    seed = int(params.get("seed", 0))
    rng = np.random.default_rng(seed ^ 0x1f)
    img = rng.integers(0, 200, size=(bh * _BLUR_H, bw * _BLUR_W),
                       dtype=np.uint8)
    expect = (img.astype(np.float32) * 0.5).astype(np.uint8)

    def bind(device: Device):
        surf = device.image2d(img.copy(), bytes_per_pixel=1)
        return [surf], (lambda tid: {"tx": tid[0], "ty": tid[1]})

    def finish(surfaces):
        out = surfaces[0].to_numpy()
        assert np.array_equal(out, expect), "blur output mismatch"
        return float(out.sum())

    return KernelLaunch(_blur_body, "serve_blur", _BLUR_SIG, ["tx", "ty"],
                        (bw, bh), bind, finish)


def _make_bitonic_cf(params: Dict[str, Any]) -> KernelLaunch:
    """One divergent local-sort launch (stages 2..32 in masked SIMD CF)."""
    from repro.workloads import bitonic

    n = int(params.get("n", 512))
    seed = int(params.get("seed", 0))
    if n % bitonic.CF_SPAN or n & (n - 1):
        raise ValueError(f"bitonic_cf n must be a power of two dividing "
                         f"{bitonic.CF_SPAN}")
    rng = np.random.default_rng(seed ^ 0x2b)
    keys = rng.integers(0, 2**31, size=n, dtype=np.uint32)
    # After the local stages every 32-key block is sorted, ascending for
    # even block indices and descending for odd ones (the bitonic
    # direction bit of the enclosing 64-key merge).
    blocks = np.sort(keys.reshape(-1, bitonic.CF_SPAN), axis=1)
    blocks[1::2] = blocks[1::2, ::-1]
    expect = blocks.reshape(-1)

    def bind(device: Device):
        buf = device.buffer(keys.copy())
        return [buf], (lambda tid: {"t": tid[0], "lgs0": 1, "lgs1": 5})

    def finish(surfaces):
        out = surfaces[0].to_numpy().view(np.uint32)
        assert np.array_equal(out, expect), "bitonic_cf output mismatch"
        return float(out[0])

    return KernelLaunch(bitonic._cf_local_body, "cf_bitonic_local",
                        [("buf", False)], ["t", "lgs0", "lgs1"],
                        (n // bitonic.CF_SPAN,), bind, finish)


def _make_kmeans_cf(params: Dict[str, Any]) -> KernelLaunch:
    """One divergent nearest-centroid assignment launch."""
    from repro.workloads import kmeans

    n = int(params.get("n", 256))
    k = int(params.get("k", 8))
    seed = int(params.get("seed", 0))
    if n % kmeans.CF_PTS:
        raise ValueError(f"kmeans_cf n must divide {kmeans.CF_PTS}")
    kp = kmeans._kpad(k)
    pts, _ = kmeans.make_points(n, k=k, seed=seed ^ 0x4d)
    rng = np.random.default_rng(seed ^ 0x4d)
    c0 = pts[rng.choice(n, k, replace=False)].copy()
    cent_host = np.zeros(2 * kp, dtype=np.float32)
    cent_host[:k] = c0[:, 0]
    cent_host[kp:kp + k] = c0[:, 1]
    expect = kmeans._labels_oracle(pts, cent_host, k, kp)

    def bind(device: Device):
        xs = device.buffer(np.ascontiguousarray(pts[:, 0]))
        ys = device.buffer(np.ascontiguousarray(pts[:, 1]))
        cent = device.buffer(cent_host.copy())
        labels = device.buffer(np.zeros(n, dtype=np.int32))
        return [xs, ys, cent, labels], (lambda tid: {"t": tid[0]})

    def finish(surfaces):
        out = surfaces[3].to_numpy()
        assert np.array_equal(out, expect), "kmeans_cf labels mismatch"
        return float(out.sum())

    body = kmeans._cf_assign_body(k, kp)  # memoized: stable cache identity
    return KernelLaunch(body, f"cf_kmeans_assign_k{k}",
                        [("xs", False), ("ys", False), ("cent", False),
                         ("labels", False)], ["t"],
                        (n // kmeans.CF_PTS,), bind, finish)


def _make_sgemm(params: Dict[str, Any]) -> KernelLaunch:
    m = int(params.get("m", 16))
    n = int(params.get("n", 16))
    k = int(params.get("k", 8))
    seed = int(params.get("seed", 0))
    if m % gemm.JIT_BM or n % gemm.JIT_BN:
        raise ValueError(f"sgemm dims must divide "
                         f"{gemm.JIT_BM}x{gemm.JIT_BN} blocks")
    a, b, c = gemm.make_inputs(m, n, k, seed=seed ^ 0x77)
    expect = gemm.reference(a, b, c, 1.0, 1.0)

    def bind(device: Device):
        abuf = device.image2d(a.copy(), bytes_per_pixel=4)
        bbuf = device.image2d(b.copy(), bytes_per_pixel=4)
        cbuf = device.image2d(c.copy(), bytes_per_pixel=4)
        return [abuf, bbuf, cbuf], \
            (lambda tid: {"tx": tid[0], "ty": tid[1]})

    def finish(surfaces):
        out = surfaces[2].to_numpy()
        assert np.allclose(out, expect, atol=1e-3), "sgemm output mismatch"
        return float(np.abs(out).sum())

    body = gemm._jit_gemm_body(k)  # memoized per k: stable cache identity
    return KernelLaunch(body, "cm_sgemm_jit", gemm._JIT_SIG, ["tx", "ty"],
                        (n // gemm.JIT_BN, m // gemm.JIT_BM), bind, finish)


# -- eager Figure 5 adapters --------------------------------------------------

@functools.cache
def _fig5_specs() -> dict:
    """The quick-size Figure 5 workload pairs, built on first use.

    ``functools.cache`` publishes the finished dict with one atomic
    store, so a worker thread never sees a half-built module global.
    """
    from repro.report.figure5 import workload_specs
    return {s.key: s for s in workload_specs(quick=True)}


def _make_fig5(key: str):
    def make(params: Dict[str, Any]) -> Callable[[Device], Any]:
        spec = _fig5_specs()[key]
        side = params.get("side", "cm")
        fn = spec.cm if side == "cm" else spec.ocl

        def run(device: Device):
            return run_on(device, f"fig5.{key}", fn)

        return run
    return make


# -- tuned workload adapters --------------------------------------------------
#
# A "tuned" request names an autotunable family (repro.tune.workloads)
# instead of a concrete kernel.  Resolution stops at a TunedTask — the
# *variant* is deliberately not chosen here, because batches form before
# a device is picked: the DeviceWorker resolves the task against its own
# machine's entry in the cluster's TunedRegistry, so the same request
# stream dispatches different kernels on a Gen9 device than on a Gen12
# or SIMD32 one.


@dataclass
class TunedTask:
    """A resolved tuned request: family + problem + deterministic data."""

    family: str
    problem: Dict[str, Any]
    inputs: Dict[str, Any] = field(repr=False, default_factory=dict)
    #: re-check the output against the family oracle on the device.
    check: bool = False

    @property
    def affinity_key(self) -> tuple:
        from repro.tune.space import param_digest
        return ("tuned", self.family, param_digest(self.problem))

    @property
    def batch_key(self) -> tuple:
        return self.affinity_key


def _make_tuned(family: str):
    def make(params: Dict[str, Any]) -> TunedTask:
        from repro.tune.workloads import get_tunable
        wl = get_tunable(family)
        problem = dict(wl.default_problem)
        problem.update({k: v for k, v in params.items() if k in problem})
        inputs = wl.make_inputs(problem, seed=int(params.get("seed", 0)))
        return TunedTask(family, problem, inputs,
                         check=bool(params.get("check", False)))
    return make


# -- the registry -------------------------------------------------------------

_REGISTRY: Dict[str, ServeWorkload] = {}


def register(wl: ServeWorkload) -> ServeWorkload:
    _REGISTRY[wl.key] = wl
    return wl


register(ServeWorkload("saxpy", "compiled", _make_saxpy,
                       "y = 2x + y over a linear buffer (params: n, seed)"))
register(ServeWorkload("scale", "compiled", _make_scale,
                       "v *= 3 over a linear buffer (params: n, seed)"))
register(ServeWorkload("blur", "compiled", _make_blur,
                       "uint8 image halving via media blocks "
                       "(params: blocks_x, blocks_y, seed)"))
register(ServeWorkload("sgemm", "compiled", _make_sgemm,
                       "C = A@B + C through the JIT pipeline "
                       "(params: m, n, k, seed)"))
register(ServeWorkload("bitonic_cf", "compiled", _make_bitonic_cf,
                       "divergent bitonic local sort via masked SIMD CF "
                       "(params: n, seed)"))
register(ServeWorkload("kmeans_cf", "compiled", _make_kmeans_cf,
                       "divergent nearest-centroid assignment loop "
                       "(params: n, k, seed)"))

for _key in ("linear", "bitonic", "histogram", "kmeans", "spmv",
             "transpose", "gemm", "prefix"):
    register(ServeWorkload(
        f"fig5.{_key}", "eager", _make_fig5(_key),
        f"quick-size Figure 5 {_key} pair side (params: side=cm|ocl)"))

for _fam in ("gemm", "linear_filter", "transpose", "systolic"):
    register(ServeWorkload(
        f"tuned.{_fam}", "tuned", _make_tuned(_fam),
        f"autotuned {_fam}: each device serves its machine's tuned "
        f"variant (params: problem dims, seed, check)"))


def get_workload(key: str) -> ServeWorkload:
    wl = _REGISTRY.get(key)
    if wl is None:
        raise KeyError(f"unknown serve workload {key!r}; "
                       f"choose from {sorted(_REGISTRY)}")
    return wl


def workload_keys() -> List[str]:
    return sorted(_REGISTRY)
