"""Sharded-cluster scaling: one process vs a multi-process fleet.

The same seeded request list (no arrival stamps — capacity-bound, the
saturation shape) is served twice:

- **single**: one :class:`~repro.serve.cluster.ServeCluster` with
  ``DEVICES_PER_SHARD`` devices;
- **sharded**: a :class:`~repro.serve.shard.ShardedCluster` of
  ``SHARDS`` worker processes, each hosting the same device count.

Two properties gate (the PR 8 acceptance criteria):

1. **Simulated throughput scales with the fleet.**  Each shard runs an
   independent simulated timeline, so the cluster-wide makespan is the
   slowest shard's horizon; with ``SHARDS``x the device capacity the
   sharded makespan must come in at least ``MIN_SIM_SPEEDUP``x shorter.
   The gate lives on the simulated clock — the same convention as
   ``bench_serve_throughput.py`` — because wall-clock process
   parallelism is a property of the host's core count (this container
   may have one core; ``host.cpus`` is recorded in the JSON), while the
   simulated timeline measures what the serving stack itself does.
2. **Zero result/timing divergence.**  Every request must report the
   identical ``(kernel_sim_us, dram_bytes, result)`` triple from both
   topologies: crossing a process boundary may not change what any
   kernel computed or how long the cost model says it ran.  (Launch
   *overhead* legitimately differs — batch composition depends on
   interleaving — so it is excluded, as in the determinism tests.)

Round-robin routing is used for the scaling number so the fleet loads
evenly; cache-affinity routing is covered by ``tests/test_shard.py``.

Run standalone with ``--smoke`` (fewer requests, 2 shards, >= 2x gate)
or under pytest-benchmark for the full 4-shard >= 3x configuration::

    PYTHONPATH=src python benchmarks/bench_shard_throughput.py \
        --out BENCH_shard.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np

from repro.serve import ServeCluster
from repro.serve.shard import ShardedCluster

DEVICES_PER_SHARD = 2
SHARDS = 4
REQUESTS = 960
SEED = 11
MIN_SIM_SPEEDUP = 3.0

SMOKE_SHARDS = 2
SMOKE_REQUESTS = 240
SMOKE_MIN_SIM_SPEEDUP = 1.6

#: Deep in-flight budget: this bench is capacity-bound, so the front door
#: floods the shards and lets workers form full batches.  (The default
#: shallow budget exists to keep the backlog in the priority-lane queue
#: for latency protection — the opposite trade.)
SHARD_INFLIGHT = 1024

#: (workload, params) menu; several distinct kernels so batching,
#: caching, and routing all see variety.
_MENU = [
    ("sgemm", {"m": 32, "n": 32, "k": 8}),
    ("sgemm", {"m": 32, "n": 64, "k": 8}),
    ("saxpy", {"n": 512}),
    ("saxpy", {"n": 1024}),
    ("scale", {"n": 512}),
    ("blur", {"blocks_x": 4, "blocks_y": 2}),
]


def _request_list(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        workload, params = _MENU[int(rng.integers(len(_MENU)))]
        params = dict(params)
        params["seed"] = int(rng.integers(1 << 30))
        out.append((workload, params))
    return out


def _signature(req):
    """The divergence triple: what must not change across topologies."""
    result = req.result
    if isinstance(result, float):
        result = round(result, 4)
    return (round(req.kernel_sim_us, 6), req.dram_bytes, result)


def _run_single(work):
    t0 = time.perf_counter()
    with ServeCluster(num_devices=DEVICES_PER_SHARD, policy="round-robin",
                      queue_capacity=2048, recorder=False) as cluster:
        reqs = [cluster.submit(w, p, block=True) for w, p in work]
        assert cluster.drain(timeout=600.0), "single: drain timed out"
        report = cluster.report()
    wall = time.perf_counter() - t0
    assert report["requests"]["done"] == len(work), \
        f"single: {report['requests']} of {len(work)}"
    return {
        "wall_s": wall,
        "horizon_us": report["sim"]["horizon_us"],
        "throughput_rps": report["throughput_rps"],
        "kernel_us": report["sim"]["kernel_us"],
    }, [_signature(r) for r in reqs]


def _run_sharded(work, shards):
    t0 = time.perf_counter()
    with ShardedCluster(shards=shards, devices_per_shard=DEVICES_PER_SHARD,
                        routing="round-robin", policy="round-robin",
                        queue_capacity=2048, ship_traces=False,
                        recorder=False,
                        shard_inflight=SHARD_INFLIGHT) as cluster:
        reqs = [cluster.submit(w, p, block=True) for w, p in work]
        assert cluster.drain(timeout=600.0), "sharded: drain timed out"
        report = cluster.report()
    wall = time.perf_counter() - t0
    assert report["requests"]["done"] == len(work), \
        f"sharded: {report['requests']} of {len(work)}"
    per_shard = [
        {"index": s["index"],
         "requests_done": s["requests_done"],
         "horizon_us": s["horizon_us"]}
        for s in report["per_shard"]
    ]
    return {
        "wall_s": wall,
        "horizon_us": report["sim"]["horizon_us"],
        "throughput_rps": report["throughput_rps"],
        "kernel_us": report["sim"]["kernel_us"],
        "per_shard": per_shard,
        "control": report["control"],
    }, [_signature(r) for r in reqs]


def host_block():
    """Where the numbers were measured: a wall clock read on one CPU
    says nothing about process parallelism.  ``dirty`` is true when
    tracked files differ from ``commit``: the numbers then come from an
    uncommitted tree, not from that commit."""
    here = os.path.dirname(os.path.abspath(__file__))

    def git(*args):
        return subprocess.run(["git", *args], capture_output=True,
                              text=True, cwd=here, timeout=10)

    try:
        commit = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = None if commit is None else \
            git("diff", "--quiet", "HEAD").returncode != 0
    except (OSError, subprocess.TimeoutExpired):
        commit = dirty = None
    return {"cpus": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": commit,
            "dirty": dirty}


def _measure(shards, requests):
    work = _request_list(requests, SEED)
    single, sig_single = _run_single(work)
    sharded, sig_sharded = _run_sharded(work, shards)
    divergent = sum(1 for a, b in zip(sig_single, sig_sharded) if a != b)
    speedup = single["horizon_us"] / sharded["horizon_us"] \
        if sharded["horizon_us"] > 0 else 0.0
    return {
        "requests": requests,
        "shards": shards,
        "devices_per_shard": DEVICES_PER_SHARD,
        "seed": SEED,
        "single": single,
        "sharded": sharded,
        "sim_speedup": speedup,
        "divergent_requests": divergent,
        "host": host_block(),
    }


def _check(results, min_speedup):
    assert results["divergent_requests"] == 0, (
        f"{results['divergent_requests']} requests diverged in "
        f"(kernel_sim_us, dram_bytes, result) between single-process "
        f"and sharded serving")
    assert results["sim_speedup"] >= min_speedup, (
        f"sharded simulated makespan speedup {results['sim_speedup']:.2f}x "
        f"below the {min_speedup}x gate at {results['shards']} shards "
        f"(single horizon {results['single']['horizon_us']:.1f} us, "
        f"sharded {results['sharded']['horizon_us']:.1f} us)")


def _render(results):
    s, sh = results["single"], results["sharded"]
    lines = [
        f"  [shard] {results['requests']} requests, "
        f"{results['shards']} shards x "
        f"{results['devices_per_shard']} devices "
        f"(host cpus={results['host']['cpus']})",
        f"  single : horizon {s['horizon_us']:10.1f} us   "
        f"wall {s['wall_s']:6.2f} s",
        f"  sharded: horizon {sh['horizon_us']:10.1f} us   "
        f"wall {sh['wall_s']:6.2f} s",
        f"  simulated makespan speedup {results['sim_speedup']:.2f}x, "
        f"divergent requests {results['divergent_requests']}",
    ]
    for p in sh["per_shard"]:
        lines.append(f"    shard{p['index']}: {p['requests_done']} done, "
                     f"horizon {p['horizon_us']:.1f} us")
    return "\n".join(lines)


def test_shard_throughput(benchmark, capsys):
    results = {}

    def once():
        results.update(_measure(SHARDS, REQUESTS))

    benchmark.pedantic(once, rounds=1, iterations=1)
    _check(results, MIN_SIM_SPEEDUP)
    benchmark.extra_info.update({
        "workload": f"{REQUESTS}-request mixed menu, "
                    f"{SHARDS}x{DEVICES_PER_SHARD} devices",
        "sim_speedup": round(results["sim_speedup"], 2),
        "divergent_requests": results["divergent_requests"],
    })
    with capsys.disabled():
        print("\n" + _render(results))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Sharded-cluster throughput scaling benchmark")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SHARDS} shards / "
                             f"{SMOKE_REQUESTS} requests, "
                             f">= {SMOKE_MIN_SIM_SPEEDUP}x gate")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the results as JSON")
    args = parser.parse_args(argv)
    shards = SMOKE_SHARDS if args.smoke else SHARDS
    requests = SMOKE_REQUESTS if args.smoke else REQUESTS
    gate = SMOKE_MIN_SIM_SPEEDUP if args.smoke else MIN_SIM_SPEEDUP
    results = _measure(shards, requests)
    results["gate_min_speedup"] = gate
    print(_render(results))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"  wrote {args.out}")
    _check(results, gate)
    return 0


if __name__ == "__main__":
    sys.exit(main())
