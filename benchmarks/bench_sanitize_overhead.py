"""Sanitizers must be (nearly) free when disabled: host-overhead bench.

The sanitizer subsystem (``repro.sanitize``) threads per-instruction
hooks through the functional executor and a gating check through
``Device.run_compiled``.  Its contract mirrors the observability
layer's: with ``validate="off"`` the executor's ``san`` slot stays
``None``, every hook collapses to a single attribute test, and the
dispatch gate is one dict probe — so the sequential dispatch loop must
stay within ``MAX_OVERHEAD`` of the frozen pre-instrumentation loop
from ``bench_obs_overhead``.

For context the benchmark also reports the cost of a fully sanitized
launch (``validate="always"``: race detector + uninit bitmap + OOB
accounting); that price is informational, not asserted.

The default ``validate="first"`` policy pays its race check once per
kernel, on the JIT tier: :func:`test_jit_gate_cost` times that gate
launch (warm megakernel, no verdict on file) against an unchecked JIT
launch and a sanitized-sequential one on the same grid, requires all
three to model the same kernel time, and bounds the gate's cost over
the unchecked launch by ``MAX_GATE_X``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_batch_engine import (  # noqa: E402
    _SIG, _bind, _gemm_body, BM, BN, K, M, N,
)
from bench_obs_overhead import _frozen_pr1_dispatch  # noqa: E402

from repro.sim import Device  # noqa: E402
from repro.sim.machine import GEN11_ICL  # noqa: E402
from repro.workloads import gemm  # noqa: E402

#: Disabled sanitizers may cost at most this fraction over the frozen
#: pre-sanitizer dispatch loop (the acceptance criterion is < 15%).
MAX_OVERHEAD = 0.15
LAUNCHES = 3
TRIALS = 3
#: A race-checked JIT launch may cost at most this multiple of an
#: unchecked one (measured 1.42-1.45x on a 2-CPU host: the recorder, the
#: surface snapshot and the verdict).
MAX_GATE_X = 2.5


def _measure():
    a, b, c = gemm.make_inputs(M, N, K, seed=3)
    grid = (N // BN, M // BM)
    scalars = lambda tid: {"tx": tid[0], "ty": tid[1]}  # noqa: E731

    dev = Device()
    kern = dev.compile(_gemm_body, "gemm_batch", _SIG, ["tx", "ty"])
    assert not dev.obs.enabled, "benchmark requires disabled observability"

    def run_frozen():
        abuf, bbuf, cbuf = _bind(dev, a, b, c)
        t0 = time.perf_counter()
        for _ in range(LAUNCHES):
            timing = _frozen_pr1_dispatch(
                kern, grid, [abuf, bbuf, cbuf], scalars, GEN11_ICL)
        return time.perf_counter() - t0, timing

    def _run_validated(mode):
        abuf, bbuf, cbuf = _bind(dev, a, b, c)
        t0 = time.perf_counter()
        for _ in range(LAUNCHES):
            run = dev.run_compiled(kern, grid, [abuf, bbuf, cbuf],
                                   scalars=scalars, tier="sequential",
                                   validate=mode)
        return time.perf_counter() - t0, run.timing

    def run_off():
        return _run_validated("off")

    def run_always():
        return _run_validated("always")

    # One untimed warm-up of each path, then best-of-TRIALS with the
    # measurement order alternated per trial — host turbo/allocator
    # drift would otherwise bias whichever path always ran first.
    run_frozen()
    run_off()
    run_always()
    best = {run_frozen: float("inf"), run_off: float("inf"),
            run_always: float("inf")}
    timings = {}
    for trial in range(TRIALS):
        order = (run_frozen, run_off, run_always) if trial % 2 == 0 else \
            (run_always, run_off, run_frozen)
        for fn in order:
            t, timing = fn()
            best[fn] = min(best[fn], t)
            timings[fn] = timing

    # All three paths must model the identical kernel time: sanitizing
    # changes what the host checks, never what the device simulates.
    assert abs(timings[run_frozen].time_us
               - timings[run_off].time_us) < 1e-9
    assert abs(timings[run_frozen].time_us
               - timings[run_always].time_us) < 1e-9
    return best[run_frozen], best[run_off], best[run_always]


def test_disabled_sanitizer_overhead(benchmark, capsys):
    results = {}

    def once():
        results["t"] = _measure()

    benchmark.pedantic(once, rounds=1, iterations=1)
    frozen_t, off_t, always_t = results["t"]
    overhead = off_t / frozen_t - 1.0
    sanitized_x = always_t / frozen_t
    benchmark.extra_info.update({
        "workload": f"sgemm {M}x{N}x{K} grid, {LAUNCHES} launches",
        "frozen_ms": round(frozen_t * 1e3, 1),
        "validate_off_ms": round(off_t * 1e3, 1),
        "validate_always_ms": round(always_t * 1e3, 1),
        "disabled_overhead_pct": round(overhead * 100, 1),
        "sanitized_slowdown_x": round(sanitized_x, 2),
    })
    with capsys.disabled():
        print(f"\n  [sanitize overhead] frozen={frozen_t * 1e3:7.1f}ms "
              f"off={off_t * 1e3:7.1f}ms ({overhead * 100:+5.1f}%) "
              f"always={always_t * 1e3:7.1f}ms ({sanitized_x:4.2f}x)")
    assert overhead < MAX_OVERHEAD, (
        f"disabled sanitizers cost {overhead:.1%} over the frozen "
        f"pre-sanitizer dispatch loop (allowed {MAX_OVERHEAD:.0%})")


def _measure_gate():
    """Best-of-TRIALS seconds for LAUNCHES launches of one warm kernel,
    each on a fresh device: (gate, unchecked JIT, sanitized), plus the
    three launches' KernelRuns."""
    a, b, c = gemm.make_inputs(M, N, K, seed=3)
    grid = (N // BN, M // BM)
    scalars = lambda tid: {"tx": tid[0], "ty": tid[1]}  # noqa: E731
    kern = Device().compile(_gemm_body, "gemm_batch", _SIG, ["tx", "ty"])

    def launch(mode):
        t = 0.0
        for _ in range(LAUNCHES):
            dev = Device()  # no verdict on file: "first" race-checks
            bufs = _bind(dev, a, b, c)
            t0 = time.perf_counter()
            run = dev.run_compiled(kern, grid, bufs, scalars=scalars,
                                   validate=mode)
            t += time.perf_counter() - t0
        return t, run

    modes = ("first", "off", "always")
    for mode in modes:  # warm-up: megakernel, plans, templates
        launch(mode)
    best = dict.fromkeys(modes, float("inf"))
    runs = {}
    for trial in range(TRIALS):
        for mode in modes if trial % 2 == 0 else modes[::-1]:
            t, runs[mode] = launch(mode)
            best[mode] = min(best[mode], t)
    return best, runs


def test_jit_gate_cost(benchmark, capsys):
    results = {}

    def once():
        results["r"] = _measure_gate()

    benchmark.pedantic(once, rounds=1, iterations=1)
    best, runs = results["r"]
    assert [runs[m].path for m in ("first", "off", "always")] == \
        ["jit", "jit", "sequential"]
    # race-checking changes what the host checks, never the model
    assert runs["first"].timing.time_us == runs["off"].timing.time_us \
        == runs["always"].timing.time_us
    gate_x = best["first"] / best["off"]
    benchmark.extra_info.update({
        "workload": f"sgemm {M}x{N}x{K} grid, {LAUNCHES} launches",
        "gate_ms": round(best["first"] * 1e3, 1),
        "unchecked_jit_ms": round(best["off"] * 1e3, 1),
        "validate_always_ms": round(best["always"] * 1e3, 1),
        "gate_cost_x": round(gate_x, 2),
    })
    with capsys.disabled():
        print(f"\n  [jit gate] gate={best['first'] * 1e3:7.1f}ms "
              f"unchecked={best['off'] * 1e3:7.1f}ms ({gate_x:4.2f}x) "
              f"always={best['always'] * 1e3:7.1f}ms")
    assert gate_x < MAX_GATE_X, (
        f"the race-checked first launch costs {gate_x:.2f}x an unchecked "
        f"JIT launch (allowed {MAX_GATE_X}x)")


if __name__ == "__main__":
    frozen_t, off_t, always_t = _measure()
    print(f"frozen loop:       {frozen_t * 1e3:8.1f} ms")
    print(f"validate='off':    {off_t * 1e3:8.1f} ms "
          f"({(off_t / frozen_t - 1) * 100:+.1f}%)")
    print(f"validate='always': {always_t * 1e3:8.1f} ms "
          f"({always_t / frozen_t:.2f}x)")
