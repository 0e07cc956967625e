"""Synthetic load generator for the serving layer.

``python -m repro.serve.loadgen`` replays a seeded trace of mixed
workloads against a :class:`~repro.serve.cluster.ServeCluster` and
prints (or dumps with ``--json``) a throughput + latency-percentile
report.

Two driving modes:

- **open-loop** (default): request arrivals follow a Poisson process at
  ``--rate`` requests/second of wall time, independent of completions —
  the "heavy traffic" shape.  A rejected submission (backpressure) is
  retried after the queue's ``retry_after_s`` hint, up to
  ``--max-retries`` times; a request that exhausts its retries counts
  as *dropped*.
- **closed-loop** (``--mode closed``): ``--concurrency`` logical
  clients each keep exactly one request in flight, submitting with
  ``block=True`` — the saturation-throughput shape.

Arrivals also carry a simulated-timeline stamp (Poisson at
``--sim-rate`` requests per simulated second), so the report's
simulated latency includes simulated queueing delay, not just service.

The exit status is non-zero if any request was dropped or failed, which
is what the CI smoke step asserts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.slo import SLObjective

from repro.serve.cluster import ServeCluster
from repro.serve.queue import Backpressure
from repro.serve.request import RequestStatus
from repro.serve.scheduler import policy_names

#: Mix presets: (workload, params-factory, weight).  Parameters are
#: drawn from small seeded menus so repeated kernels actually repeat
#: (that's what the kernel cache and the batcher feed on) while input
#: *data* still varies per request via the ``seed`` parameter.
_MIXES: Dict[str, List[Tuple[str, list, float]]] = {
    "compiled": [
        ("saxpy", [{"n": 128}, {"n": 256}, {"n": 512}], 0.3),
        ("scale", [{"n": 128}, {"n": 256}], 0.2),
        ("blur", [{"blocks_x": 2, "blocks_y": 2},
                  {"blocks_x": 4, "blocks_y": 2}], 0.15),
        ("sgemm", [{"m": 16, "n": 16, "k": 8},
                   {"m": 32, "n": 16, "k": 8}], 0.15),
        # divergent control flow: these exercise the JIT's masked-CF
        # lowering
        ("bitonic_cf", [{"n": 256}, {"n": 512}], 0.1),
        ("kmeans_cf", [{"n": 256, "k": 8}], 0.1),
    ],
    "fig5": [
        ("fig5.transpose", [{}], 0.4),
        ("fig5.prefix", [{}], 0.3),
        ("fig5.histogram", [{}], 0.3),
    ],
    # Heavier per-request work for multi-process soaks: enough compute
    # per request that control-plane overhead is visibly amortized.
    "shard": [
        ("sgemm", [{"m": 64, "n": 64, "k": 16},
                   {"m": 32, "n": 64, "k": 16}], 0.4),
        ("saxpy", [{"n": 4096}, {"n": 8192}], 0.25),
        ("scale", [{"n": 4096}], 0.15),
        ("blur", [{"blocks_x": 8, "blocks_y": 8}], 0.2),
    ],
}
_MIXES["all"] = _MIXES["compiled"] + _MIXES["fig5"]

#: ``--lane mixed``: this fraction of requests are interactive, the
#: rest batch — an overloaded batch lane pressing on an interactive one
#: is the scenario priority lanes exist for.
_MIXED_INTERACTIVE_FRACTION = 0.25


def build_trace(seed: int, n_requests: int, mix: str,
                sim_rate_rps: float,
                lane: str = "interactive") -> List[Dict[str, Any]]:
    """The seeded request trace: workload, params, simulated arrival,
    lane (``lane="mixed"`` draws interactive vs batch per request)."""
    entries = _MIXES.get(mix)
    if entries is None:
        raise KeyError(f"unknown mix {mix!r}; choose from {sorted(_MIXES)}")
    rng = np.random.default_rng(seed)
    keys = [e[0] for e in entries]
    weights = np.asarray([e[2] for e in entries], dtype=float)
    weights /= weights.sum()
    menus = {e[0]: e[1] for e in entries}
    trace = []
    sim_t = 0.0
    for i in range(n_requests):
        sim_t += rng.exponential(1e6 / sim_rate_rps)  # us gap
        key = keys[int(rng.choice(len(keys), p=weights))]
        params = dict(menus[key][int(rng.integers(len(menus[key])))])
        params["seed"] = int(rng.integers(1 << 30))
        if lane == "mixed":
            req_lane = "interactive" \
                if rng.random() < _MIXED_INTERACTIVE_FRACTION else "batch"
        else:
            req_lane = lane
        trace.append({"workload": key, "params": params,
                      "arrival_sim_us": sim_t, "lane": req_lane})
    return trace


def _submit(cluster, entry: Dict[str, Any],
            deadline_ms: Optional[float], block: bool = False):
    return cluster.submit(entry["workload"], entry["params"],
                          arrival_sim_us=entry["arrival_sim_us"],
                          lane=entry.get("lane", "interactive"),
                          deadline_ms=deadline_ms, block=block)


def _submit_with_retry(cluster, entry: Dict[str, Any],
                       max_retries: int, counters: Dict[str, int],
                       deadline_ms: Optional[float] = None):
    for _ in range(max_retries + 1):
        try:
            return _submit(cluster, entry, deadline_ms)
        except Backpressure as bp:
            counters["rejected_submits"] += 1
            time.sleep(bp.retry_after_s)
    counters["dropped"] += 1
    return None


def run_open_loop(cluster, trace, rate_rps: float,
                  max_retries: int, counters: Dict[str, int],
                  seed: int = 0,
                  deadline_ms: Optional[float] = None) -> None:
    rng = np.random.default_rng(seed ^ 0xA881)
    t0 = time.perf_counter()
    offset = 0.0
    for entry in trace:
        offset += rng.exponential(1.0 / rate_rps)
        delay = t0 + offset - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        _submit_with_retry(cluster, entry, max_retries, counters,
                           deadline_ms=deadline_ms)


def run_closed_loop(cluster, trace, concurrency: int,
                    counters: Dict[str, int],
                    deadline_ms: Optional[float] = None) -> None:
    import threading

    it = iter(trace)
    it_lock = threading.Lock()

    def client():
        while True:
            with it_lock:
                entry = next(it, None)
            if entry is None:
                return
            try:
                req = _submit(cluster, entry, deadline_ms, block=True)
            except Exception:  # noqa: BLE001 - queue closed/timeout
                counters["dropped"] += 1
                continue
            req.wait()

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(concurrency)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def run_loadgen(devices: int = 2, requests: int = 200, seed: int = 0,
                policy: str = "cache-affinity", mix: str = "compiled",
                mode: str = "open", rate_rps: float = 2000.0,
                sim_rate_rps: float = 25000.0, concurrency: int = 8,
                batching: bool = True, max_batch: int = 8,
                queue_capacity: int = 512,
                high_watermark: Optional[int] = None,
                max_retries: int = 50,
                sanitize: bool = False,
                slo_target_ms: Optional[float] = 250.0,
                slo_objective: float = 0.99,
                recorder: bool = True,
                trace_out: Optional[str] = None,
                dump_dir: Optional[str] = None,
                shards: int = 0,
                lane: str = "interactive",
                deadline_ms: Optional[float] = None,
                soak: Optional[int] = None,
                autoscale: bool = False,
                ship_traces: bool = True) -> Dict[str, Any]:
    """Run one load-generation pass; returns the JSON-able report.

    With ``sanitize=True`` every compiled launch runs under the full
    sanitizer (``validate="always"``) and the report gains a
    ``sanitize`` section summarizing per-device findings (single-process
    clusters only — shard workers keep sanitizer state in their own
    processes).  The cluster runs with its always-on flight recorder
    (unless ``recorder=False``) and a wall-latency SLO of
    ``slo_target_ms`` at ``slo_objective`` (``None`` disables SLO
    tracking); ``trace_out`` additionally writes every retained request
    span tree as one Chrome-trace JSON file.

    ``shards > 0`` drives a multi-process
    :class:`~repro.serve.shard.ShardedCluster` (``devices`` becomes
    devices *per shard*) and the report gains ``per_shard`` / ``lanes``
    / ``control`` sections.  ``lane`` tags every request
    (``"mixed"`` draws interactive vs batch per request), ``deadline_ms``
    overrides the SLO-derived deadline, and ``soak=N`` is shorthand for
    a closed-loop fixed-count run of ``N`` requests.  ``autoscale``
    (sharded only) lets the cluster add/drain shards from backlog and
    SLO burn rate.
    """
    if soak is not None:
        requests = soak
        mode = "closed"
    trace = build_trace(seed, requests, mix, sim_rate_rps, lane=lane)
    counters = {"rejected_submits": 0, "dropped": 0}
    slo = ({"*": SLObjective(target_wall_ms=slo_target_ms,
                             objective=slo_objective)}
           if slo_target_ms is not None else None)
    sharded = shards > 0
    if sharded:
        from repro.serve.autoscale import AutoscalePolicy
        from repro.serve.shard import ShardedCluster
        policy_obj = AutoscalePolicy(
            min_shards=1, max_shards=max(2, shards + 2)) \
            if autoscale else None
        cluster = ShardedCluster(
            shards=shards, devices_per_shard=devices, policy=policy,
            batching=batching, max_batch=max_batch,
            queue_capacity=queue_capacity, high_watermark=high_watermark,
            validate="always" if sanitize else "first",
            ship_traces=ship_traces and recorder, slo=slo,
            recorder=recorder, dump_dir=dump_dir, autoscale=policy_obj)
    else:
        cluster = ServeCluster(num_devices=devices, policy=policy,
                               batching=batching, max_batch=max_batch,
                               queue_capacity=queue_capacity,
                               high_watermark=high_watermark,
                               validate="always" if sanitize else "first",
                               slo=slo, recorder=recorder,
                               dump_dir=dump_dir)
    with cluster:
        if mode == "open":
            run_open_loop(cluster, trace, rate_rps, max_retries, counters,
                          seed=seed, deadline_ms=deadline_ms)
        else:
            run_closed_loop(cluster, trace, concurrency, counters,
                            deadline_ms=deadline_ms)
        cluster.drain(timeout=600.0)
        report = cluster.report()
    failed = [r for r in cluster.completed
              if r.status is RequestStatus.FAILED]
    report["loadgen"] = {
        "mode": mode,
        "mix": mix,
        "seed": seed,
        "requests": requests,
        "shards": shards if sharded else None,
        "lane": lane,
        "deadline_ms": deadline_ms,
        "soak": soak,
        "rate_rps": rate_rps if mode == "open" else None,
        "concurrency": concurrency if mode == "closed" else None,
        "sim_rate_rps": sim_rate_rps,
        "rejected_submits": counters["rejected_submits"],
        "dropped": counters["dropped"],
        "failed": len(failed),
        "errors": [f"{r.workload}: {r.error}" for r in failed[:10]],
    }
    if trace_out:
        cluster.export_traces(trace_out)
        report["loadgen"]["trace_out"] = trace_out
    if sanitize and not sharded:
        results = [r for w in cluster.workers
                   for r in w.device.sanitizer_results]
        oob: Dict[str, int] = {}
        for w in cluster.workers:
            for label, lanes in w.device.oob_lanes.items():
                oob[label] = oob.get(label, 0) + lanes
        report["sanitize"] = {
            "sanitized_launches": len(results),
            "clean": all(r.clean for r in results),
            "racy_kernels": sorted({r.kernel for r in results
                                    if r.verdict is not None
                                    and not r.verdict.race_free}),
            "uninit_total": sum(r.uninit_total for r in results),
            "oob_lanes": oob,
        }
    return report


def render(report: Dict[str, Any]) -> str:
    lg = report["loadgen"]
    sim = report["sim"]
    sharded = "per_shard" in report
    if sharded:
        topo = (f"{report['shards']} shards x "
                f"{report['devices_per_shard']} devices "
                f"({report['active_shards']} active), "
                f"routing={report['routing']}")
    else:
        topo = f"{report['devices']} devices"
    lines = [
        f"serve.loadgen: {report['requests']['done']}/{lg['requests']} done "
        f"on {topo}, policy={report['policy']}, "
        + (f"batching={'on' if report['batching'] else 'off'} "
           if "batching" in report else "")
        + f"(mix={lg['mix']}, mode={lg['mode']}, seed={lg['seed']}"
        + (f", lane={lg['lane']}" if lg.get("lane") else "") + ")",
        f"  wall: {report['wall_elapsed_s']:.2f} s, "
        f"{report['throughput_rps']:.0f} req/s",
        f"  latency (wall ms): p50={report['latency_wall_ms']['p50']:.2f} "
        f"p95={report['latency_wall_ms']['p95']:.2f} "
        f"p99={report['latency_wall_ms']['p99']:.2f}",
        f"  latency (sim us):  p50={report['latency_sim_us']['p50']:.1f} "
        f"p95={report['latency_sim_us']['p95']:.1f} "
        f"p99={report['latency_sim_us']['p99']:.1f}",
        f"  sim: kernel {sim['kernel_us']:.1f} us, launch overhead "
        f"{sim['launch_overhead_us']:.1f} us"
        + (f", {sim['batches']} batches (avg {sim['avg_batch']:.2f} "
           f"req/batch)" if "batches" in sim else ""),
        f"  kernel cache: {report['kernel_cache']['hits']} hits / "
        f"{report['kernel_cache']['misses']} misses "
        f"({report['kernel_cache']['hit_rate']:.0%})",
        f"  backpressure: {lg['rejected_submits']} rejected submits, "
        f"{lg['dropped']} dropped, {lg['failed']} failed",
    ]
    tiers = report.get("tiers")
    if tiers:
        lines.append("  tiers: " + ", ".join(
            f"{k}={v}" for k, v in sorted(tiers.items())))
    gate = report.get("sanitize_gate")
    if gate:
        lines.append("  wide gate: " + ", ".join(
            f"{k}={v}" for k, v in sorted(gate.items())))
    slo = report.get("slo")
    if slo is not None:
        ov = slo["overall"]
        lines.append(
            f"  slo: {ov['breaches']}/{ov['requests']} breaches, "
            f"attainment {ov['attainment']:.2%}, "
            f"max burn rate {ov['max_burn_rate']:.2f}")
    rec = report.get("recorder")
    if rec is not None:
        lines.append(
            f"  recorder: {rec['retained']}/{rec['capacity']} traces "
            f"retained ({rec['evicted']} evicted), {rec['dumps']} dumps "
            + (f"{rec['dumps_by_reason']}" if rec["dumps_by_reason"]
               else ""))
    san = report.get("sanitize")
    if san is not None:
        lines.append(
            f"  sanitize: {san['sanitized_launches']} sanitized launches, "
            f"{'clean' if san['clean'] else 'FINDINGS'} "
            f"(racy={len(san['racy_kernels'])}, "
            f"uninit={san['uninit_total']}, "
            f"oob={sum(san['oob_lanes'].values())})")
    lanes = report.get("lanes")
    if lanes is not None:
        for lane_name in ("interactive", "batch"):
            ln = lanes.get(lane_name)
            if not ln or not ln["requests"]:
                continue
            lines.append(
                f"  lane {lane_name}: {ln['done']}/{ln['requests']} done, "
                f"slo attainment {ln['slo_attainment']:.2%} "
                f"({ln['slo_breaches']} breaches), "
                f"p95 {ln['latency_wall_ms']['p95']:.2f} ms")
    scale = report.get("autoscale")
    if scale is not None:
        lines.append(
            f"  autoscale: {scale['actions']} actions "
            + ", ".join(f"{e['action']}@{e['t_wall_s']:.1f}s"
                        for e in scale["events"][:8]))
    ctl = report.get("control")
    if ctl is not None:
        lines.append(
            f"  control: {ctl['requeued']} requeued, "
            f"{ctl['shard_deaths']} shard deaths, "
            f"{ctl['duplicates_dropped']} duplicates dropped")
    for s in report.get("per_shard", ()):
        lines.append(
            f"  shard{s['index']} [{s['state']}]: "
            f"{s['requests_done']} done / {s['routed']} routed, "
            f"inflight {s['inflight']}, "
            f"cache {s['kernel_cache']['hit_rate']:.0%}, "
            f"horizon {s['horizon_us']:.1f} us")
    for d in report.get("per_device", ()):
        lines.append(
            f"  dev{d['index']}: {d['requests']} requests, "
            f"{d['busy_sim_us']:.1f} us busy, "
            f"util {d['utilization_sim']:.0%}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Replay a seeded synthetic trace against the "
                    "multi-device serving layer.")
    parser.add_argument("--devices", type=int, default=2,
                        help="device count (per shard when --shards > 0)")
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shards", type=int, default=0,
                        help="run a multi-process ShardedCluster with this "
                             "many shard processes (0 = single process)")
    parser.add_argument("--lane", choices=("interactive", "batch", "mixed"),
                        default="interactive",
                        help="priority lane for every request, or 'mixed' "
                             "to draw per request")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline in ms (default: the "
                             "workload's SLO wall target)")
    parser.add_argument("--soak", type=int, default=None, metavar="N",
                        help="closed-loop fixed-count soak of N requests "
                             "(overrides --requests and --mode)")
    parser.add_argument("--autoscale", action="store_true",
                        help="let a sharded cluster add/drain shards from "
                             "backlog and SLO burn rate")
    parser.add_argument("--no-ship-traces", dest="ship_traces",
                        action="store_false", default=True,
                        help="do not ship worker span trees across the "
                             "process boundary (raw-throughput runs)")
    parser.add_argument("--policy", choices=policy_names(),
                        default="cache-affinity")
    parser.add_argument("--mix", choices=sorted(_MIXES),
                        default="compiled")
    parser.add_argument("--mode", choices=("open", "closed"),
                        default="open")
    parser.add_argument("--rate", type=float, default=2000.0,
                        help="open-loop arrival rate, requests/s")
    parser.add_argument("--sim-rate", type=float, default=25000.0,
                        help="simulated arrival rate, requests per "
                             "simulated second")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop in-flight clients")
    parser.add_argument("--no-batch", dest="batching",
                        action="store_false", default=True)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--queue-capacity", type=int, default=512)
    parser.add_argument("--high-watermark", type=int, default=None)
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="also dump the report as JSON to FILE "
                             "('-' for stdout)")
    parser.add_argument("--sanitize", action="store_true",
                        help="run every compiled launch under the "
                             "sanitizer (validate='always') and add a "
                             "sanitize section to the report")
    parser.add_argument("--slo-target-ms", type=float, default=250.0,
                        help="per-request wall-latency SLO target in ms "
                             "(<= 0 disables SLO tracking)")
    parser.add_argument("--slo-objective", type=float, default=0.99,
                        help="fraction of requests that must meet the "
                             "SLO target")
    parser.add_argument("--no-recorder", dest="recorder",
                        action="store_false", default=True,
                        help="disable the always-on flight recorder "
                             "(also disables --trace-out)")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write every retained request span tree as "
                             "one Chrome-trace JSON file")
    parser.add_argument("--dump-dir", metavar="DIR", default=None,
                        help="write one JSON file per flight-recorder "
                             "dump (SLO breach / sanitizer / error)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    report = run_loadgen(
        devices=args.devices, requests=args.requests, seed=args.seed,
        policy=args.policy, mix=args.mix, mode=args.mode,
        rate_rps=args.rate, sim_rate_rps=args.sim_rate,
        concurrency=args.concurrency, batching=args.batching,
        max_batch=args.max_batch, queue_capacity=args.queue_capacity,
        high_watermark=args.high_watermark, sanitize=args.sanitize,
        slo_target_ms=(args.slo_target_ms
                       if args.slo_target_ms > 0 else None),
        slo_objective=args.slo_objective, recorder=args.recorder,
        trace_out=args.trace_out if args.recorder else None,
        dump_dir=args.dump_dir,
        shards=args.shards, lane=args.lane, deadline_ms=args.deadline_ms,
        soak=args.soak, autoscale=args.autoscale,
        ship_traces=args.ship_traces)

    if not args.quiet:
        print(render(report))
    if args.json == "-":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2)
    lg = report["loadgen"]
    return 1 if (lg["dropped"] or lg["failed"]) else 0


if __name__ == "__main__":
    raise SystemExit(main())
