"""Grid-vectorized wide dispatch: wall-clock speedup over scalar dispatch.

Like bench_batch_engine.py this measures *host* wall time — the cost of
the simulator itself — not simulated microseconds.  Two Figure-5-class
compiled workloads (the JIT SGEMM and the media-block linear filter /
blur kernel) run the same launch through both dispatch paths of
``Device.run_compiled``:

- **scalar**: the pooled sequential tier (``tier="sequential"``) — one
  ``TracingExecutor`` re-interprets the program once per hardware
  thread.
- **wide**: the grid-vectorized interpreter (``tier="wide"``) — a
  ``WideTracingExecutor`` stacks all thread GRFs and executes each
  instruction once for the whole grid.

Outputs must be byte-identical and every simulated-timing field of the
resulting ``KernelTiming`` must match exactly: the wide path is a pure
wall-clock optimization, never a model change.  Each launch asserts
that ``KernelRun.path`` is the tier its column names.  A saxpy scaling
sweep records how the speedup grows with grid size.  Results land in
``BENCH_wide.json``.

Run directly (``python benchmarks/bench_wide_dispatch.py [--smoke]``)
or via pytest (smoke sizes).
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.sim.device import Device
from repro.workloads import gemm

SMOKE_MIN_SPEEDUP = 2.0
FULL_MIN_SPEEDUP = 5.0
TRIALS = 2

_VEC = 16
_BLUR_W, _BLUR_H = 32, 4


def _saxpy_body(cmx, xbuf, ybuf, tid):
    off = tid * (_VEC * 4)
    x = cmx.vector(np.float32, _VEC)
    cmx.read(xbuf, off, x)
    y = cmx.vector(np.float32, _VEC)
    cmx.read(ybuf, off, y)
    out = cmx.vector(np.float32, _VEC)
    out.assign(x * np.float32(2.0) + y)
    cmx.write(ybuf, off, out)


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


def _launch_sgemm(mn, k, tier):
    rng = np.random.default_rng(0)
    a = (rng.random((mn, k), dtype=np.float32) - 0.5).astype(np.float32)
    b = (rng.random((k, mn), dtype=np.float32) - 0.5).astype(np.float32)
    dev = Device()
    abuf = dev.image2d(a.copy(), bytes_per_pixel=4)
    bbuf = dev.image2d(b.copy(), bytes_per_pixel=4)
    cbuf = dev.image2d(np.zeros((mn, mn), np.float32), bytes_per_pixel=4)
    kern = dev.compile(gemm._jit_gemm_body(k), "cm_sgemm_jit",
                       gemm._JIT_SIG, ["tx", "ty"])
    grid = (mn // gemm.JIT_BN, mn // gemm.JIT_BM)
    t0 = time.perf_counter()
    run = dev.run_compiled(kern, grid, [abuf, bbuf, cbuf],
                           scalars=lambda t: {"tx": t[0], "ty": t[1]},
                           name="cm_sgemm_jit", tier=tier)
    dt = time.perf_counter() - t0
    assert run.path == tier, (tier, run.path)
    return dt, cbuf.to_numpy().copy(), run.timing, grid[0] * grid[1]


def _launch_blur(bx, by, tier):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 200, size=(by * _BLUR_H, bx * _BLUR_W),
                       dtype=np.uint8)
    dev = Device()
    buf = dev.image2d(img.copy(), bytes_per_pixel=1)
    kern = dev.compile(_blur_body, "wide_blur", [("img", True)],
                       ["tx", "ty"])
    t0 = time.perf_counter()
    run = dev.run_compiled(kern, (bx, by), [buf],
                           scalars=lambda t: {"tx": t[0], "ty": t[1]},
                           name="wide_blur", tier=tier)
    dt = time.perf_counter() - t0
    assert run.path == tier, (tier, run.path)
    return dt, buf.to_numpy().copy(), run.timing, bx * by


def _launch_saxpy(n_threads, tier):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    dev = Device()
    xbuf, ybuf = dev.buffer(x.copy()), dev.buffer(y.copy())
    kern = dev.compile(_saxpy_body, "wide_saxpy",
                       [("xbuf", False), ("ybuf", False)], ["tid"])
    t0 = time.perf_counter()
    run = dev.run_compiled(kern, (n_threads,), [xbuf, ybuf],
                           scalars=lambda t: {"tid": t[0]},
                           name="wide_saxpy", tier=tier)
    dt = time.perf_counter() - t0
    assert run.path == tier, (tier, run.path)
    return dt, ybuf.to_numpy().copy(), run.timing, n_threads


def _compare(launch, *args):
    """Best-of-TRIALS wall clock for both paths + identity checks."""
    wide_t = scalar_t = float("inf")
    for _ in range(TRIALS):
        dt, wide_out, wide_tm, threads = launch(*args, "wide")
        wide_t = min(wide_t, dt)
        dt, scalar_out, scalar_tm, _ = launch(*args, "sequential")
        scalar_t = min(scalar_t, dt)
    assert np.array_equal(wide_out, scalar_out), "outputs diverged"
    for f in dataclasses.fields(scalar_tm):
        w, s = getattr(wide_tm, f.name), getattr(scalar_tm, f.name)
        assert w == s, f"simulated timing field {f.name}: {w} != {s}"
    return {
        "grid_threads": threads,
        "wide_ms": round(wide_t * 1e3, 2),
        "scalar_ms": round(scalar_t * 1e3, 2),
        "speedup": round(scalar_t / wide_t, 2),
        "sim_time_us": round(scalar_tm.time_us, 3),
        "timing_identical": True,
    }


def run_benchmark(smoke=False, out_path="BENCH_wide.json"):
    if smoke:
        workloads = [("sgemm", _launch_sgemm, (64, 16)),
                     ("linear_blur", _launch_blur, (8, 8))]
        sweep_sizes = [64, 256]
        min_speedup = SMOKE_MIN_SPEEDUP
    else:
        workloads = [("sgemm", _launch_sgemm, (256, 16)),
                     ("linear_blur", _launch_blur, (32, 16))]
        sweep_sizes = [64, 256, 1024, 4096]
        min_speedup = FULL_MIN_SPEEDUP

    results = []
    for name, launch, args in workloads:
        r = _compare(launch, *args)
        r["workload"] = name
        results.append(r)
        print(f"  [{name:12s}] threads={r['grid_threads']:5d} "
              f"wide={r['wide_ms']:8.1f}ms scalar={r['scalar_ms']:8.1f}ms "
              f"speedup={r['speedup']:5.1f}x")

    scaling = []
    for n in sweep_sizes:
        r = _compare(_launch_saxpy, n)
        scaling.append({"threads": n, "wide_ms": r["wide_ms"],
                        "scalar_ms": r["scalar_ms"],
                        "speedup": r["speedup"]})
        print(f"  [saxpy sweep ] threads={n:5d} "
              f"wide={r['wide_ms']:8.1f}ms scalar={r['scalar_ms']:8.1f}ms "
              f"speedup={r['speedup']:5.1f}x")

    doc = {
        "benchmark": "wide_dispatch",
        "mode": "smoke" if smoke else "full",
        "min_speedup": min_speedup,
        "workloads": results,
        "scaling": scaling,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  wrote {out_path}")

    worst = min(r["speedup"] for r in results)
    if worst < min_speedup:
        raise SystemExit(
            f"wide dispatch only {worst:.2f}x faster than scalar "
            f"(required {min_speedup}x)")
    return doc


def test_wide_dispatch_speedup(tmp_path, capsys):
    with capsys.disabled():
        print()
        doc = run_benchmark(smoke=True,
                            out_path=str(tmp_path / "BENCH_wide.json"))
    assert all(r["timing_identical"] for r in doc["workloads"])
    assert min(r["speedup"] for r in doc["workloads"]) >= SMOKE_MIN_SPEEDUP


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small grids + 2x threshold (CI)")
    ap.add_argument("--out", default="BENCH_wide.json",
                    help="trajectory JSON path")
    ns = ap.parse_args()
    sys.path.insert(0, "src")
    run_benchmark(smoke=ns.smoke, out_path=ns.out)
