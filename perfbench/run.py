#!/usr/bin/env python3
"""Run the repository benchmark.

One measured run of one workload (the form the result schema is for)::

    python3 perfbench/run.py --workload serve_straight --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last stdout line is the JSON result; the line before it,
prefixed ``DETAIL``, adds the host block, all seven end-to-end metrics
and the sample counts.

Every workload, each in a fresh process, end to end and then traced::

    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

The noise floor of one workload: N runs with seeds seed..seed+N-1::

    python3 perfbench/run.py --steady 10 --workload kernel_cold

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("serve_straight", "kernel_cold", "serve_sharded")
#: Every run uses this interpreter hash seed (string hashing decides set
#: and dict iteration order, which shifted warm-up time between runs).
HASH_SEED = "0"
#: Rounds per run.  Each round of an end-to-end run is a fresh set-up
#: followed by ``seconds / ROUNDS`` of the measured phase, so ``setup_s``
#: (the median set-up) and the ops sample the host over the same stretch
#: of time; the traced run alternates traced and untraced rounds.
ROUNDS = 10
#: Rounds an end-to-end run may add in place of disturbed ones.
EXTRA_ROUNDS = 4
#: A round counts as undisturbed when the hypervisor stole at most this
#: share of the CPU time the machine demanded during it.  Stolen time
#: slows every op, and it comes from other tenants of the host.
QUIET_STEAL = 0.03

#: The seven end-to-end metrics, with units.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "fraction"),
    ("sim_us_per_op", "sim_us"),
)
#: The ones on the result line, each with a relative bound in
#: BENCHMARK.json.  ``error_rate`` must be 0 and ``sim_us_per_op`` must
#: never change, so both are gates instead: a failed op makes the result
#: incorrect, a simulated-time change refuses the run.
BOUNDED = ("setup_s", "throughput_ops_s", "latency_p50_ms",
           "latency_p90_ms", "peak_rss_mb")

#: Modules the program imports lazily on first use; importing them up
#: front keeps import time out of ``setup_s``.
_LAZY_MODULES = (
    "repro.compiler.cache", "repro.compiler.finalizer", "repro.compiler.frontend",
    "repro.isa.cfg", "repro.isa.jit", "repro.isa.plans", "repro.isa.wide",
    "repro.sim.timing", "repro.tune.space", "repro.tune.workloads",
    "repro.workloads.bitonic", "repro.workloads.gemm",
    "repro.workloads.kmeans", "repro.workloads.linear_filter",
    "repro.workloads.systolic", "repro.workloads.transpose",
)


def _pin_environment() -> None:
    """Re-execute under the pinned hash seed and sanitizer mode."""
    want = {"PYTHONHASHSEED": HASH_SEED, "REPRO_SANITIZE": "first"}
    if any(os.environ.get(k) != v for k, v in want.items()):
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()),
                   *sys.argv[1:]],
                  {**os.environ, **want})


def _import_program():
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench import layers, loads, stats
    for name in _LAZY_MODULES:
        importlib.import_module(name)
    return layers, loads, stats


def _throughput(rounds) -> float:
    """Completed ops per second of the rounds' own wall time."""
    done = sum(1 for ops in rounds for op in ops if op.ok)
    wall = sum(max(op.t1 for op in ops) - min(op.t0 for op in ops)
               for ops in rounds if ops)
    return done / wall


def _check_same_sims(loads, first: dict, other: dict) -> None:
    for entry, sim_us in other.items():
        if first.get(entry, sim_us) != sim_us:
            raise loads.SimDrift(f"{entry.label}: {sim_us!r} us in one "
                                 f"set-up, {first[entry]!r} us in another")


def _least_stolen(steals) -> list:
    """Indices of the ROUNDS rounds with the least stolen CPU time, the
    earlier round first among equals."""
    return sorted(range(len(steals)), key=lambda i: steals[i])[:ROUNDS]


def measure_plain(modules, workload, seed: int, seconds: float):
    """End-to-end run.  Each round is a fresh set-up (timed) and then
    ``seconds / ROUNDS`` of closed-loop ops on it.  Rounds run until
    ROUNDS of them were undisturbed, or EXTRA_ROUNDS more were added; the
    timings come from the ROUNDS rounds with the least stolen CPU time.
    Rounds are chosen by the host's steal alone, never by their own
    speed, and every op of every round counts towards ``attempted``,
    ``failed`` and the output checks."""
    _, loads, stats = modules
    rss = loads.RssProbe(loads.rss_ops(workload))
    rounds = []  # (steal share, setup seconds, ops)
    sims: dict = {}
    run_ticks = stats.cpu_ticks()
    for round_ in range(ROUNDS + EXTRA_ROUNDS):
        gc.collect()
        harness = loads.harness_for(workload, rss)
        ticks = stats.cpu_ticks()
        try:
            t0 = time.perf_counter()
            harness.setup()
            setup_s = time.perf_counter() - t0
            _check_same_sims(loads, sims or harness.sims, harness.sims)
            sims = sims or dict(harness.sims)
            ops = harness.measure(seed, seconds / ROUNDS, round_=round_)
        finally:
            harness.close()
        steal = stats.steal_share(ticks, stats.cpu_ticks()) or 0.0
        rounds.append((steal, setup_s, ops))
        if sum(1 for r in rounds if r[0] <= QUIET_STEAL) >= ROUNDS:
            break
    kept = _least_stolen([steal for steal, _, _ in rounds])
    kept_ops = [rounds[i][2] for i in sorted(kept)]
    ops = [op for _, _, r in rounds for op in r]
    latencies = [op.latency_s * 1e3 for r in kept_ops for op in r if op.ok]
    if not ops:
        raise loads.BenchError("no op was attempted")
    if not latencies:
        raise loads.BenchError(f"every op failed, e.g. {ops[0].error}")
    failed = sum(1 for op in ops if not op.ok)
    values = {
        "setup_s": statistics.median(rounds[i][1] for i in kept),
        "throughput_ops_s": _throughput(kept_ops),
        "latency_p50_ms": stats.percentile(latencies, 50),
        "latency_p90_ms": stats.percentile(latencies, 90),
        "peak_rss_mb": rss.mb or loads.peak_rss_mb(),
        "error_rate": failed / len(ops),
        "sim_us_per_op": loads.menu_sim_us(workload, sims),
    }
    detail = {
        "samples": len(latencies),
        "samples_beyond_p90": stats.samples_beyond(latencies, 90),
        "rss_read_at_op": rss.n if rss.mb else len(ops),
        "steal_share": stats.steal_share(run_ticks, stats.cpu_ticks()),
        "rounds": [{"setup_s": t, "ops": len(r), "steal_share": st,
                    "kept": i in kept}
                   for i, (st, t, r) in enumerate(rounds)],
        "sim_us_by_entry": {e.label: s for e, s in sims.items()},
        "errors": sorted({op.error for op in ops if not op.ok})[:5],
    }
    return ops, failed, values, dict(END_TO_END), detail


def _traced_round(i: int) -> bool:
    """T U U T T U U T ...: traced and untraced rounds alternate in pairs,
    so a steady drift of host speed falls on both halves alike."""
    return i % 4 in (0, 3)


def measure_traced(modules, workload, seed: int, seconds: float):
    """Per-layer run: one set-up with timers installed, then ROUNDS rounds
    alternating with and without them; the throughput gap between the two
    kinds of round is the timers' overhead.

    The sharded workload's layers are read after the run from span trees
    the program records anyway, so the benchmark adds nothing to its
    measured phase: every round counts as traced and the overhead is 0."""
    layers, loads, _ = modules
    sharded = workload.mode == "sharded"
    clock = None if sharded else layers.LayerClock(
        e.key for e in workload.entries if e.kind == "serve")
    harness = loads.harness_for(workload,
                                loads.RssProbe(loads.rss_ops(workload)))
    traced, plain = [], []
    phase = layers.Tally()
    try:
        if clock is not None:
            clock.install()
        try:
            harness.setup()
        finally:
            if clock is not None:
                clock.uninstall()
        setup = clock.take() if clock else None
        for round_ in range(ROUNDS):
            timed = clock is not None and _traced_round(round_)
            if timed:
                clock.install()
            try:
                ops = harness.measure(seed, seconds / ROUNDS,
                                      clock if timed else None, round_)
            finally:
                if timed:
                    clock.uninstall()
            if timed:
                phase = phase.merged(clock.take())
            (traced if timed or sharded else plain).append(ops)
    finally:
        harness.close()
    traced_ops = [op for ops in traced for op in ops]
    if not traced_ops or (clock is not None and not any(plain)):
        raise loads.BenchError("a measured phase attempted no op")
    if sharded:
        setup = layers.tally_shard_trees(harness.setup_requests)
        phase = layers.tally_shard_trees(
            op.request for op in traced_ops if op.request is not None)
        overhead = 0.0
    else:
        overhead = 1.0 - _throughput(traced) / _throughput(plain)
    values = layers.per_layer_metrics(
        workload.mode, traced_ops, phase, setup.merged(phase),
        loads.menu_sim_us(workload, harness.sims), loads.SHARDS, overhead)
    ops = traced_ops + [op for ops in plain for op in ops]
    failed = sum(1 for op in ops if not op.ok)
    detail = {"samples": len(traced_ops),
              "errors": sorted({op.error for op in ops if not op.ok})[:5]}
    return ops, failed, values, dict(layers.PER_LAYER), detail


def _stop_resource_tracker() -> None:
    """The sharded cluster's shared-memory pool starts multiprocessing's
    resource tracker; stop it and wait, so no process outlives the run."""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def single_run(args) -> int:
    try:
        modules = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    layers, loads, stats = modules
    workload = loads.WORKLOADS[args.workload]
    measure = measure_traced if args.trace else measure_plain
    try:
        ops, failed, values, units, detail = measure(
            modules, workload, args.seed, args.seconds)
    except loads.BenchError as exc:
        print(f"perfbench: {workload.name}: {exc}", file=sys.stderr)
        return 1
    finally:
        _stop_resource_tracker()
    shown = BOUNDED if not args.trace else tuple(values)
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(ops)} failed={failed}")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    detail = {"workload": workload.name, "trace": args.trace,
              "host": stats.host_block(ROOT, args.seed, loads.CPUS),
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n in values}, **detail}
    print("DETAIL " + json.dumps(detail))
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n in shown}}
    print(json.dumps(result), flush=True)
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; return its DETAIL record."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2][len("DETAIL "):])
    detail["result"] = json.loads(lines[-1])
    return detail


def run_all(args) -> int:
    """Every workload end to end, then traced; results go to stdout and
    ``perfbench/results/latest.json``."""
    report = {}
    for name in WORKLOAD_NAMES:
        report[name] = {"end_to_end": _child(name, args.seed, args.seconds, 0),
                        "per_layer": _child(name, args.seed, args.seconds, 1)}
    for kind in ("end_to_end", "per_layer"):
        print(f"\n{kind}")
        names = list(report[WORKLOAD_NAMES[0]][kind]["metrics"])
        print(f"  {'metric':36s} {'unit':8s}" +
              "".join(f" {w:>16s}" for w in WORKLOAD_NAMES))
        for metric in names:
            unit = report[WORKLOAD_NAMES[0]][kind]["metrics"][metric]["unit"]
            cells = "".join(
                f" {report[w][kind]['metrics'][metric]['value']:16.6g}"
                for w in WORKLOAD_NAMES)
            print(f"  {metric:36s} {unit:8s}{cells}")
    correct = all(report[w][k]["result"]["correct"]
                  for w in WORKLOAD_NAMES for k in report[w])
    out = ROOT / "perfbench" / "results" / "latest.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"\ncorrect: {correct}; wrote {out.relative_to(ROOT)}")
    return 0 if correct else 1


def run_steady(args) -> int:
    """Rerun one workload N times; print each metric's median, quartiles,
    IQR/median and max/min.  Refuses a workload whose simulated time
    differs between runs."""
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import spread

    runs = [_child(args.workload, args.seed + i, args.seconds, 0)
            for i in range(args.steady)]
    print(f"{args.workload}: {args.steady} runs, seeds {args.seed}.."
          f"{args.seed + args.steady - 1}, {args.seconds} s each")
    print(f"  {'metric':24s} {'unit':8s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'max/min':>8s}")
    rows = [(m, u, [r["metrics"][m]["value"] for r in runs])
            for m, u in END_TO_END]
    for metric, unit, values in rows:
        if metric in ("error_rate", "sim_us_per_op"):
            print(f"  {metric:24s} {unit:8s} values {sorted(set(values))}")
            continue
        s = spread(values)
        print(f"  {metric:24s} {unit:8s} {s['median']:12.6g} "
              f"{s['q1']:12.6g} {s['q3']:12.6g} "
              f"{s['iqr_over_median']:8.4f} {s['max_over_min']:8.4f}")
    steal = [r["steal_share"] for r in runs if r["steal_share"] is not None]
    if steal:
        print(f"  CPU time stolen by the hypervisor: median "
              f"{statistics.median(steal):.3f}, max {max(steal):.3f} "
              f"of the demanded time")
    sims = {r["metrics"]["sim_us_per_op"]["value"] for r in runs}
    errors = [r["metrics"]["error_rate"]["value"] for r in runs]
    if len(sims) != 1:
        print(f"refused: sim_us_per_op differs between runs: {sorted(sims)}",
              file=sys.stderr)
        return 1
    if any(errors):
        print(f"refused: error_rate {errors}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true",
                      help="run every workload, end to end then traced")
    mode.add_argument("--steady", type=int, metavar="N",
                      help="rerun --workload N times and print the spread")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.steady:
        if args.steady < 2:
            parser.error("--steady needs N >= 2")
        return run_steady(args)
    _pin_environment()
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
