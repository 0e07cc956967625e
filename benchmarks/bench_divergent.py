"""Divergent control flow: simulated-makespan speedup over eager dispatch.

Unlike bench_jit.py (host wall clock), this gates *simulated*
time: the makespan (kernel time + launch-overhead model) of two
divergent workloads — the compiled bitonic sort and the compiled k-means
assignment loop — against the eager per-thread path for the same
algorithms.

- **eager**: the per-thread interpreter has no masked-CF ISA, so the 16
  work-items the compiled path packs into SIMD lanes execute one at a
  time — scalar loads, a scalar compare-and-branch per work-item, scalar
  stores (``run_cm_bitonic_eager`` / ``run_cm_kmeans_eager_divergent``).
- **compiled**: masked SIMD control flow (``simd_if`` / ``simd_while``
  lowered to the structured-CF opcodes), 16 lanes per instruction,
  dispatched on the JIT tier.

Two gates:

1. the compiled makespan must beat the eager one by ``MIN_SPEEDUP``
   (4x full, 2x smoke), and
2. the compiled JIT launches must be *bit-identical* to sequential
   compiled dispatch — same output bytes, every simulated-timing field
   of every launch equal.  Control-flow support in the JIT is a
   wall-clock optimization, never a model change.

The host wall clock of each side is recorded too (``*_wall_ms``, the
compiled side on the JIT tier), and so is the kernel-only simulated
time (``*_kernel_us``, no launch-overhead model) and its ratio: each
eager baseline serializes the 16 work-items one compiled thread packs
into lanes, so the kernel-only ratio sits just under 16x, and the
makespan speedup is that ratio diluted by launch overhead.  Results land in
``BENCH_divergent.json``.  Run directly
(``python benchmarks/bench_divergent.py [--smoke]``) or via pytest
(smoke sizes).
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.workloads import bitonic, kmeans
from repro.workloads.common import run_and_time

SMOKE_MIN_SPEEDUP = 2.0
FULL_MIN_SPEEDUP = 4.0


def _identical_timings(runs_a, runs_b):
    if len(runs_a) != len(runs_b):
        return False
    for ra, rb in zip(runs_a, runs_b):
        for f in dataclasses.fields(ra.timing):
            if f.name in ("machine", "bounds"):
                continue
            if getattr(ra.timing, f.name) != getattr(rb.timing, f.name):
                return False
    return True


def _compare(name, eager_fn, compiled_fn, check):
    """Eager-vs-compiled makespans plus the JIT/sequential identity gate."""
    t0 = time.perf_counter()
    eager = run_and_time(f"{name}_eager", eager_fn)
    eager_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    jit = run_and_time(f"{name}_jit", lambda d: compiled_fn(d, tier="jit"))
    jit_wall = time.perf_counter() - t0
    seq = run_and_time(f"{name}_seq",
                       lambda d: compiled_fn(d, tier="sequential"))

    check(eager.output)
    check(jit.output)
    results_identical = np.array_equal(jit.output, seq.output)
    timing_identical = _identical_timings(jit.device.runs, seq.device.runs)
    assert results_identical, f"{name}: JIT output diverged from sequential"
    assert timing_identical, f"{name}: JIT timing diverged from sequential"
    for label, tier, res in (("jit", "jit", jit),
                             ("seq", "sequential", seq)):
        paths = {r.path for r in res.device.runs}
        assert paths == {tier}, \
            f"{name}_{label}: expected every launch on the {tier} " \
            f"tier, got {paths}"

    return {
        "workload": name,
        "eager_sim_us": round(eager.total_time_us, 2),
        "compiled_sim_us": round(jit.total_time_us, 2),
        "speedup": round(eager.total_time_us / jit.total_time_us, 2),
        "eager_kernel_us": round(eager.kernel_time_us, 2),
        "compiled_kernel_us": round(jit.kernel_time_us, 2),
        "kernel_speedup": round(eager.kernel_time_us / jit.kernel_time_us,
                                2),
        "eager_launches": eager.launches,
        "compiled_launches": jit.launches,
        "eager_wall_ms": round(eager_wall * 1e3, 1),
        "compiled_wall_ms": round(jit_wall * 1e3, 1),
        "results_identical": True,
        "timing_identical": True,
    }


def _bitonic_case(log2n: int):
    keys = bitonic.make_input(log2n, seed=7)
    expect = np.sort(keys)

    def check(out):
        assert np.array_equal(out, expect), "bitonic output not sorted"

    return (
        lambda d: bitonic.run_cm_bitonic_eager(d, keys),
        lambda d, tier: bitonic.run_cm_bitonic_compiled(d, keys, tier=tier),
        check,
    )


def _kmeans_case(n: int, k: int, iterations: int):
    pts, _ = kmeans.make_points(n, k=k, seed=5)
    rng = np.random.default_rng(0)
    c0 = pts[rng.choice(n, k, replace=False)].copy()
    ref = kmeans.reference(pts, c0, iterations=iterations)

    def check(out):
        assert np.allclose(out, ref, atol=0.5), "kmeans centroids off"

    return (
        lambda d: kmeans.run_cm_kmeans_eager_divergent(
            d, pts, c0, iterations=iterations),
        lambda d, tier: kmeans.run_cm_kmeans_compiled(
            d, pts, c0, iterations=iterations, tier=tier),
        check,
    )


def run_benchmark(smoke=False, out_path="BENCH_divergent.json"):
    if smoke:
        cases = [("bitonic", _bitonic_case(9)),
                 ("kmeans", _kmeans_case(512, 8, 1))]
        min_speedup = SMOKE_MIN_SPEEDUP
    else:
        cases = [("bitonic", _bitonic_case(10)),
                 ("kmeans", _kmeans_case(2048, 8, 2))]
        min_speedup = FULL_MIN_SPEEDUP

    results = []
    for name, (eager_fn, compiled_fn, check) in cases:
        r = _compare(name, eager_fn, compiled_fn, check)
        results.append(r)
        print(f"  [{name:8s}] eager={r['eager_sim_us']:8.1f}us "
              f"({r['eager_launches']:3d} launches) "
              f"compiled={r['compiled_sim_us']:7.1f}us "
              f"({r['compiled_launches']:3d} launches) "
              f"speedup={r['speedup']:5.2f}x "
              f"kernel-only={r['kernel_speedup']:5.2f}x")

    doc = {
        "benchmark": "divergent",
        "mode": "smoke" if smoke else "full",
        "min_speedup": min_speedup,
        "workloads": results,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  wrote {out_path}")

    worst = min(r["speedup"] for r in results)
    if worst < min_speedup:
        raise SystemExit(
            f"compiled divergent path only {worst:.2f}x faster than the "
            f"eager per-thread path (required {min_speedup}x)")
    return doc


def test_divergent_speedup(tmp_path, capsys):
    with capsys.disabled():
        print()
        doc = run_benchmark(smoke=True,
                            out_path=str(tmp_path / "BENCH_divergent.json"))
    assert all(r["results_identical"] and r["timing_identical"]
               for r in doc["workloads"])
    assert min(r["speedup"] for r in doc["workloads"]) >= SMOKE_MIN_SPEEDUP


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes + 2x threshold (CI)")
    ap.add_argument("--out", default="BENCH_divergent.json",
                    help="trajectory JSON path")
    ns = ap.parse_args()
    sys.path.insert(0, "src")
    run_benchmark(smoke=ns.smoke, out_path=ns.out)
