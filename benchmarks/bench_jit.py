"""Kernel JIT megakernels: wall-clock speedup over sequential dispatch.

This measures *host* wall time — the cost of the simulator itself — not
simulated microseconds.  Two Figure-5-class compiled workloads (the JIT
SGEMM and the media-block linear filter / blur kernel) run the same
launch through both dispatch tiers of ``Device.run_compiled``:

- **scalar**: sequential dispatch (``tier="sequential"``) — one
  interpreter step per instruction per hardware thread; the reference
  oracle.
- **jit**: the megakernel tier (``tier="jit"``) — the program is compiled
  once to a generated Python function (:mod:`repro.isa.jit`) with all
  region plans, dtypes, and predication baked in, and each chunk of
  threads executes at once with zero per-instruction dispatch.

Outputs must be byte-identical across the two tiers and every
simulated-timing field of the resulting ``KernelTiming`` must match
exactly: the JIT is a pure wall-clock optimization, never a model
change, and each launch asserts that ``KernelRun.path`` is the tier its
column names.  A saxpy scaling sweep records how the speedup grows with
grid size.  Warm-launch rows time the JIT tier alone (``validate="off"``,
megakernel already built) on each ``serve_straight`` menu entry, the
launches a serving process repeats, and check each entry once against
the sequential tier (same bytes, same ``KernelTiming``).  Results land
in ``BENCH_jit.json`` with the host they were measured on.

Run directly (``python benchmarks/bench_jit.py [--smoke]``) or via
pytest (smoke sizes).
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from bench_shard_throughput import host_block
from repro.serve.loadgen import _MIXES
from repro.serve.workloads import get_workload
from repro.sim.device import Device
from repro.workloads import gemm

SMOKE_MIN_SPEEDUP = 10.0  # jit vs scalar, small grids (CI gate)
FULL_MIN_SPEEDUP = 30.0   # jit vs scalar, Figure-5 grid sizes
TRIALS = 3
WARM_LAUNCHES = {"smoke": 3, "full": 30}  # timed launches per menu entry

_VEC = 16
_BLUR_W, _BLUR_H = 32, 4

#: run_compiled tier per benchmark column.
TIERS = {"jit": "jit", "scalar": "sequential"}


def _launch(dev, kern, grid, surfaces, scalars, name, mode):
    """One timed launch on the column's tier."""
    t0 = time.perf_counter()
    r = dev.run_compiled(kern, grid, surfaces, scalars=scalars, name=name,
                         validate="off", tier=TIERS[mode])
    dt = time.perf_counter() - t0
    assert r.path == TIERS[mode], (mode, r.path)
    return dt, r.timing


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


def _sgemm_case(mn, k):
    """One device + compiled kernel; fresh surfaces per launch."""
    rng = np.random.default_rng(0)
    a = (rng.random((mn, k), dtype=np.float32) - 0.5).astype(np.float32)
    b = (rng.random((k, mn), dtype=np.float32) - 0.5).astype(np.float32)
    dev = Device()
    kern = dev.compile(gemm._jit_gemm_body(k), "cm_sgemm_jit",
                       gemm._JIT_SIG, ["tx", "ty"])
    grid = (mn // gemm.JIT_BN, mn // gemm.JIT_BM)

    def run(mode):
        abuf = dev.image2d(a.copy(), bytes_per_pixel=4)
        bbuf = dev.image2d(b.copy(), bytes_per_pixel=4)
        cbuf = dev.image2d(np.zeros((mn, mn), np.float32),
                           bytes_per_pixel=4)
        dt, timing = _launch(dev, kern, grid, [abuf, bbuf, cbuf],
                             lambda t: {"tx": t[0], "ty": t[1]},
                             "cm_sgemm_jit", mode)
        return dt, cbuf.to_numpy().copy(), timing

    return run, grid[0] * grid[1]


def _blur_case(bx, by):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 200, size=(by * _BLUR_H, bx * _BLUR_W),
                       dtype=np.uint8)
    dev = Device()
    kern = dev.compile(_blur_body, "jit_blur", [("img", True)],
                       ["tx", "ty"])

    def run(mode):
        buf = dev.image2d(img.copy(), bytes_per_pixel=1)
        dt, timing = _launch(dev, kern, (bx, by), [buf],
                             lambda t: {"tx": t[0], "ty": t[1]},
                             "jit_blur", mode)
        return dt, buf.to_numpy().copy(), timing

    return run, bx * by


def _saxpy_case(n_threads):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    dev = Device()
    kern = dev.compile(_saxpy_body, "jit_saxpy",
                       [("xbuf", False), ("ybuf", False)], ["tid"])

    def run(mode):
        xbuf, ybuf = dev.buffer(x.copy()), dev.buffer(y.copy())
        dt, timing = _launch(dev, kern, (n_threads,), [xbuf, ybuf],
                             lambda t: {"tid": t[0]}, "jit_saxpy", mode)
        return dt, ybuf.to_numpy().copy(), timing

    return run, n_threads


def _assert_identical(out, ref_out, timing, ref_timing, label):
    """Byte-identical outputs and equal values in every
    ``KernelTiming`` field, or an AssertionError naming ``label``."""
    assert np.array_equal(out, ref_out), f"outputs diverged: {label}"
    for f in dataclasses.fields(ref_timing):
        a, b = getattr(timing, f.name), getattr(ref_timing, f.name)
        assert a == b, \
            f"simulated timing field {f.name} ({label}): {a} != {b}"


def _compare(case, *args, modes=("jit", "scalar")):
    """Best-of-TRIALS wall clock per tier + identity checks.

    The first (untimed) warmup launch per tier pays one-time costs —
    megakernel compilation, plan-table construction — so the timed
    trials measure the steady state a serving process sees.
    """
    run, threads = case(*args)
    best = {}
    outs = {}
    tms = {}
    for mode in modes:
        run(mode)  # warmup: compile megakernel / build plans
        t = float("inf")
        for _ in range(TRIALS):
            dt, out, tm = run(mode)
            t = min(t, dt)
        best[mode], outs[mode], tms[mode] = t, out, tm
    ref = modes[-1]
    for mode in modes[:-1]:
        _assert_identical(outs[mode], outs[ref], tms[mode], tms[ref], mode)
    return {
        "grid_threads": threads,
        "jit_ms": round(best["jit"] * 1e3, 2),
        "scalar_ms": round(best["scalar"] * 1e3, 2),
        "speedup_vs_scalar": round(best["scalar"] / best["jit"], 2),
        "sim_time_us": round(tms["scalar"].time_us, 3),
        "timing_identical": True,
    }


def warm_launch_rows(launches):
    """Median wall clock of a warm JIT-tier launch (``validate="off"``)
    of each ``serve_straight`` menu entry: loadgen's ``shard`` mix, one
    row per parameter set.  Surfaces are bound fresh and checked after
    every launch, outside the timed span.  One more launch per entry on
    the sequential tier must leave the same surface bytes and equal
    values in every ``KernelTiming`` field as the last JIT launch."""
    rows = []
    for key, variants, _weight in _MIXES["shard"]:
        for params in variants:
            launch = get_workload(key).make(params)
            dev = Device()
            kern = dev.compile(launch.body, launch.name, launch.sig,
                               launch.scalar_params)

            def run(tier):
                surfaces, scalars = launch.bind(dev)
                t0 = time.perf_counter()
                r = dev.run_compiled(kern, launch.grid, surfaces,
                                     scalars=scalars, tier=tier,
                                     validate="off")
                dt = time.perf_counter() - t0
                assert r.path == tier, (tier, r.path)
                launch.finish(surfaces)
                out = np.concatenate([s.bytes for s in surfaces])
                return dt, out, r.timing

            # launch 0 builds the megakernel
            res = [run("jit") for _ in range(launches + 1)]
            times = [dt for dt, _, _ in res[1:]]
            _, out, timing = res[-1]
            _, ref_out, ref_timing = run("sequential")
            _assert_identical(out, ref_out, timing, ref_timing,
                              f"{key} {params} jit vs sequential")
            rows.append({"workload": key, "params": params,
                         "threads": int(np.prod(launch.grid)),
                         "warm_launch_ms": round(
                             float(np.median(times)) * 1e3, 3),
                         "sim_time_us": round(timing.time_us, 3),
                         "timing_identical": True})
    return rows


def run_benchmark(smoke=False, out_path="BENCH_jit.json"):
    if smoke:
        workloads = [("sgemm", _sgemm_case, (64, 16)),
                     ("linear_blur", _blur_case, (8, 8))]
        sweep_sizes = [64, 256]
        min_speedup = SMOKE_MIN_SPEEDUP
    else:
        workloads = [("sgemm", _sgemm_case, (256, 16)),
                     ("linear_blur", _blur_case, (32, 16))]
        sweep_sizes = [64, 256, 1024, 4096]
        min_speedup = FULL_MIN_SPEEDUP

    results = []
    for name, case, args in workloads:
        r = _compare(case, *args)
        r["workload"] = name
        results.append(r)
        print(f"  [{name:12s}] threads={r['grid_threads']:5d} "
              f"jit={r['jit_ms']:7.1f}ms scalar={r['scalar_ms']:8.1f}ms "
              f"vs_scalar={r['speedup_vs_scalar']:6.1f}x")

    scaling = []
    for n in sweep_sizes:
        r = _compare(_saxpy_case, n)
        scaling.append({"threads": n, "jit_ms": r["jit_ms"],
                        "scalar_ms": r["scalar_ms"],
                        "speedup_vs_scalar": r["speedup_vs_scalar"]})
        print(f"  [saxpy sweep ] threads={n:5d} "
              f"jit={r['jit_ms']:7.1f}ms scalar={r['scalar_ms']:8.1f}ms "
              f"vs_scalar={r['speedup_vs_scalar']:6.1f}x")

    mode = "smoke" if smoke else "full"
    warm = warm_launch_rows(WARM_LAUNCHES[mode])
    for r in warm:
        print(f"  [warm launch ] {r['workload']:6s} {r['params']} "
              f"threads={r['threads']:5d} jit={r['warm_launch_ms']:7.3f}ms")

    doc = {
        "benchmark": "jit_megakernel",
        "mode": mode,
        "host": host_block(),
        "min_speedup_vs_scalar": min_speedup,
        "workloads": results,
        "scaling": scaling,
        "warm_launches": warm,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  wrote {out_path}")

    worst = min(r["speedup_vs_scalar"] for r in results)
    if worst < min_speedup:
        raise SystemExit(
            f"JIT only {worst:.2f}x faster than sequential dispatch "
            f"(required {min_speedup}x)")
    return doc


def test_jit_speedup(tmp_path, capsys):
    with capsys.disabled():
        print()
        doc = run_benchmark(smoke=True,
                            out_path=str(tmp_path / "BENCH_jit.json"))
    assert all(r["timing_identical"] for r in doc["workloads"])
    assert min(r["speedup_vs_scalar"] for r in doc["workloads"]) \
        >= SMOKE_MIN_SPEEDUP


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small grids + 10x threshold (CI)")
    ap.add_argument("--out", default="BENCH_jit.json",
                    help="trajectory JSON path")
    ns = ap.parse_args()
    sys.path.insert(0, "src")
    run_benchmark(smoke=ns.smoke, out_path=ns.out)
