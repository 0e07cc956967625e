"""Batch-execution engine: repeated-launch wall-clock microbenchmark.

Unlike the Figure 5 benchmarks (which report *simulated* microseconds),
this one measures *host* wall time — the cost of the simulator itself —
for a workload the paper's runtime hits constantly: re-enqueueing the
same kernel over a large grid.

Two paths run ``LAUNCHES`` launches of a 128-thread SGEMM grid each:

- **seed**: what the repo did before the batch engine — a fresh
  ``compile_kernel`` per launch, then one throwaway
  ``FunctionalExecutor`` per hardware thread via ``CompiledKernel.run``.
  (The program-scoped ``PlanTable`` sped this baseline up too — plans
  are now built once per program instead of once per executor — so the
  bar is measured against a *faster* seed than the original.)
- **batched**: ``Device.compile`` (every launch after the first is a
  kernel-cache hit) plus ``Device.run_compiled`` (default dispatch: the
  first launch runs on the JIT megakernel tier with the race recorder
  attached to certify lockstep execution, and later launches take the
  same tier unchecked).

The batched path must be at least 2x faster even though it does
strictly more work (full ``KernelTiming`` per launch plus the one-time
race certification and megakernel compile; the seed path computes no
timing and never validates).  ``LAUNCHES`` is sized so those one-time
costs amortize the way a serving process would see them.
"""

import time

import numpy as np

from repro.compiler import compile_kernel
from repro.sim import Device
from repro.workloads import gemm

BM, BN, K = 8, 16, 8
M = N = 128
LAUNCHES = 10
MIN_SPEEDUP = 2.0
_SIG = [("abuf", True), ("bbuf", True), ("cbuf", True)]


def _gemm_body(cmx, abuf, bbuf, cbuf, tx, ty):
    row0 = ty * BM
    col0 = tx * BN
    atile = cmx.matrix(np.float32, BM, K)
    cmx.read(abuf, 0, row0, atile)
    btile = cmx.matrix(np.float32, K, BN)
    cmx.read(bbuf, col0 * 4, 0, btile)
    acc = cmx.matrix(np.float32, BM, BN, np.zeros(BM * BN, np.float32))
    for kk in range(K):
        a_bcast = atile.replicate(BM, K, BN, 0, kk)
        b_bcast = btile.replicate(BM, 0, BN, 1, kk * BN)
        acc += a_bcast * b_bcast
    ctile = cmx.matrix(np.float32, BM, BN)
    cmx.read(cbuf, col0 * 4, row0, ctile)
    out = cmx.matrix(np.float32, BM, BN)
    out.assign(acc + ctile * np.float32(0.0))
    cmx.write(cbuf, col0 * 4, row0, out)


def _bind(dev, a, b, c):
    return (dev.image2d(a.copy(), bytes_per_pixel=4),
            dev.image2d(b.copy(), bytes_per_pixel=4),
            dev.image2d(c.copy(), bytes_per_pixel=4))


def _seed_path(a, b, c, grid):
    """Per-launch recompile, per-thread executor (the pre-engine path)."""
    t0 = time.perf_counter()
    dev = Device()
    for _ in range(LAUNCHES):
        kern = compile_kernel(_gemm_body, "gemm_batch", _SIG, ["tx", "ty"])
        abuf, bbuf, cbuf = _bind(dev, a, b, c)
        for ty in range(grid[1]):
            for tx in range(grid[0]):
                kern.run([abuf, bbuf, cbuf], {"tx": tx, "ty": ty})
    return time.perf_counter() - t0, cbuf.to_numpy().copy()


def _batch_path(a, b, c, grid):
    """Cached compile + pooled streaming dispatch, full timing collected."""
    t0 = time.perf_counter()
    dev = Device()
    for _ in range(LAUNCHES):
        kern = dev.compile(_gemm_body, "gemm_batch", _SIG, ["tx", "ty"])
        abuf, bbuf, cbuf = _bind(dev, a, b, c)
        dev.run_compiled(kern, grid, [abuf, bbuf, cbuf],
                         scalars=lambda tid: {"tx": tid[0], "ty": tid[1]})
    return time.perf_counter() - t0, cbuf.to_numpy().copy(), dev


def _measure():
    a, b, c = gemm.make_inputs(M, N, K, seed=3)
    grid = (N // BN, M // BM)
    ref = gemm.reference(a, b, c, 1.0, 0.0)
    # Best of two trials per path smooths host-side jitter.
    seed_t = batch_t = float("inf")
    for _ in range(2):
        t, seed_out = _seed_path(a, b, c, grid)
        seed_t = min(seed_t, t)
        t, batch_out, dev = _batch_path(a, b, c, grid)
        batch_t = min(batch_t, t)
    assert np.allclose(seed_out, ref, atol=1e-3)
    assert np.array_equal(seed_out, batch_out)
    assert dev.profile.compile_cache_hits == LAUNCHES - 1
    assert dev.profile.compile_cache_misses == 1
    return seed_t, batch_t, dev


def test_batched_dispatch_speedup(benchmark, capsys):
    results = {}

    def once():
        results["seed"], results["batch"], results["dev"] = _measure()

    benchmark.pedantic(once, rounds=1, iterations=1)
    seed_t, batch_t = results["seed"], results["batch"]
    speedup = seed_t / batch_t
    benchmark.extra_info.update({
        "workload": f"sgemm {M}x{N}x{K} grid, {LAUNCHES} launches",
        "seed_ms": round(seed_t * 1e3, 1),
        "batch_ms": round(batch_t * 1e3, 1),
        "speedup_seed_over_batch": round(speedup, 2),
    })
    with capsys.disabled():
        print(f"\n  [batch engine] seed={seed_t * 1e3:7.1f}ms "
              f"batch={batch_t * 1e3:7.1f}ms speedup={speedup:5.2f}x")
    assert speedup >= MIN_SPEEDUP, (
        f"batched dispatch only {speedup:.2f}x faster than the seed path "
        f"(required {MIN_SPEEDUP}x)")


if __name__ == "__main__":
    seed_t, batch_t, dev = _measure()
    print(f"seed:  {seed_t * 1e3:8.1f} ms")
    print(f"batch: {batch_t * 1e3:8.1f} ms")
    print(f"speedup: {seed_t / batch_t:.2f}x")
    print(dev.report())
