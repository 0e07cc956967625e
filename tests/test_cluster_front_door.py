"""What ServeCluster and ShardedCluster share: the report's shape and the
simulated clock of a request served across the process boundary, and
the drain count both share."""

import threading

from repro.serve import (
    AutoscalePolicy, RequestStatus, ServeCluster, ShardedCluster,
)

#: Maps whose keys name data (tiers taken, gate outcomes), not fields.
_DATA_KEYED = {"tiers", "sanitize_gate"}

_PCTL = {"p50", "p95", "p99", "mean", "max"}
_REQUESTS = {"done", "failed", "pending", "queued", "rejected", "running",
             "total"}
_CACHE = {"hits", "misses", "hit_rate"}
_RECORDER = {"capacity", "retained", "recorded", "evicted", "dumps",
             "dumps_dropped", "dumps_by_reason"}
_SLO = {"overall", "workloads"}

_SERVE_SHAPE = {
    "policy": None, "devices": None, "machines": None, "batching": None,
    "tuned": {"enabled", "entries", "variants_served"},
    "requests": _REQUESTS,
    "wall_elapsed_s": None, "throughput_rps": None,
    "latency_wall_ms": _PCTL, "wait_wall_ms": _PCTL,
    "latency_sim_us": _PCTL, "service_sim_us": _PCTL,
    "sim": {"kernel_us", "launch_overhead_us", "busy_us", "horizon_us",
            "batches", "avg_batch", "dram_bytes"},
    "kernel_cache": _CACHE,
    "tiers": dict, "sanitize_gate": dict,
    "per_device": [{"index", "machine", "variants", "requests", "batches",
                    "busy_sim_us", "utilization_sim", "share_of_busy"}],
}

#: each shard's sim horizon, kernel cache and tiers are tallied from its
#: completions, so no nested copy of the shard's own report is needed.
_PER_SHARD = {"index", "machine", "state", "alive", "routed",
              "requests_done", "inflight", "pid", "horizon_us",
              "kernel_cache", "tiers"}

_SHARDED_SHAPE = {
    "shards": None, "active_shards": None, "devices_per_shard": None,
    "machines": None, "policy": None, "routing": None,
    "tuned": {"enabled", "entries", "variants_by_machine"},
    "requests": _REQUESTS,
    "wall_elapsed_s": None, "throughput_rps": None,
    "latency_wall_ms": _PCTL, "latency_sim_us": _PCTL,
    "sim": {"kernel_us", "launch_overhead_us", "dram_bytes", "horizon_us"},
    "kernel_cache": _CACHE,
    "tiers": dict,
    "lanes": {"interactive", "batch", "queue_depths"},
    "per_shard": [_PER_SHARD],
    "pool": {"allocs", "fallbacks", "in_use", "releases", "slot_bytes",
             "slots"},
    "control": {"duplicates_dropped", "requeued", "shard_deaths",
                "requeue_budget", "verdicts_known", "verdicts_broadcast"},
}


def _shape(report):
    """Top-level keys and, one level down, each section's keys (a list
    section maps to its distinct entry key sets)."""
    out = {}
    for key, value in report.items():
        if key in _DATA_KEYED:
            out[key] = dict
        elif isinstance(value, dict):
            out[key] = set(value)
        elif isinstance(value, list) and value \
                and isinstance(value[0], dict):
            out[key] = [set(k) for k in {frozenset(e) for e in value}]
        else:
            out[key] = None
    return out


def _serve_some(cluster, n=6):
    with cluster:
        reqs = [cluster.submit("saxpy", {"n": 64, "seed": i}, block=True)
                for i in range(n)]
        assert cluster.drain(timeout=60.0)
    assert all(r.status is RequestStatus.DONE for r in reqs)
    return cluster.report()


class TestReportShape:
    def test_serve_cluster_plain(self):
        report = _serve_some(ServeCluster(num_devices=2, recorder=False))
        assert _shape(report) == _SERVE_SHAPE

    def test_serve_cluster_with_slo_and_recorder(self):
        report = _serve_some(ServeCluster(num_devices=2,
                                          slo={"saxpy": 1000.0}))
        assert _shape(report) == _SERVE_SHAPE | {"slo": _SLO,
                                                 "recorder": _RECORDER}

    def test_sharded_cluster_plain(self):
        report = _serve_some(ShardedCluster(shards=1, devices_per_shard=1,
                                            recorder=False))
        assert _shape(report) == _SHARDED_SHAPE

    def test_sharded_cluster_with_slo_recorder_and_autoscale(self):
        policy = AutoscalePolicy(min_shards=1, max_shards=2)
        report = _serve_some(ShardedCluster(shards=2, devices_per_shard=1,
                                            slo={"saxpy": 1000.0},
                                            autoscale=policy))
        assert _shape(report) == _SHARDED_SHAPE | {
            "slo": _SLO, "recorder": _RECORDER,
            "autoscale": {"actions", "events", "policy"}}


class TestSimClockAcrossProcesses:
    MENU = [("saxpy", {"n": 256}), ("scale", {"n": 512}),
            ("sgemm", {"m": 16, "n": 16, "k": 8})]

    def _serve_one_at_a_time(self, cluster):
        reqs = []
        with cluster:
            for i in range(12):
                workload, params = self.MENU[i % len(self.MENU)]
                req = cluster.submit(workload, dict(params, seed=i),
                                     arrival_sim_us=0.0, block=True)
                assert req.wait(60.0)
                reqs.append(req)
            assert cluster.drain(timeout=60.0)
            report = cluster.report()
        assert all(r.status is RequestStatus.DONE for r in reqs)
        return reqs, report

    def test_sharded_sim_latency_equals_single_process(self):
        """Every request arrives at simulated time 0 on one device, so
        each waits for the ones before it.  The shard's completion
        carries the simulated start, so the parent sees that wait, and
        the report's horizon needs no extra round trip."""
        single, s_report = self._serve_one_at_a_time(
            ServeCluster(num_devices=1, recorder=False))
        sharded, h_report = self._serve_one_at_a_time(
            ShardedCluster(shards=1, devices_per_shard=1, recorder=False))
        assert [r.wait_sim_us for r in sharded] == \
            [r.wait_sim_us for r in single]
        assert [r.latency_sim_us for r in sharded] == \
            [r.latency_sim_us for r in single]
        assert sum(r.wait_sim_us for r in single) > 0
        assert h_report["sim"]["horizon_us"] == \
            s_report["sim"]["horizon_us"] > 0
        assert h_report["per_shard"][0]["horizon_us"] == \
            h_report["sim"]["horizon_us"]


class TestDrainCount:
    def test_drain_waits_for_a_request_retired_inside_submit(self):
        """A request can be served and retired before ``queue.submit``
        returns.  Its retire must not cancel the count of an earlier
        request still being retired, or ``drain()`` returns early."""
        release = threading.Event()

        def hold_first(req):
            if req.params["seed"] == 0:
                release.wait(10.0)

        # round-robin: the held request occupies device 0, the next
        # one is served on device 1.
        cluster = ServeCluster(num_devices=2, recorder=False)
        cluster.on_complete = hold_first
        outcome = {}

        def drain():
            outcome["ok"] = cluster.drain(timeout=10.0)
            outcome["first_released"] = release.is_set()

        drainer = threading.Thread(target=drain)
        submit = cluster.queue.submit

        def submit_and_wait(req, block=False, timeout=None):
            submit(req, block=block, timeout=timeout)
            assert req.wait(10.0)
            drainer.join(timeout=0.5)  # time for its retire to land
            return req

        with cluster:
            first = cluster.submit("saxpy", {"n": 64, "seed": 0})
            assert first.wait(10.0)  # served; its retire is now held
            drainer.start()
            cluster.queue.submit = submit_and_wait
            second = cluster.submit("saxpy", {"n": 64, "seed": 1})
            release.set()
            drainer.join(timeout=15.0)
        assert not drainer.is_alive()
        assert outcome == {"ok": True, "first_released": True}
        assert first.status is second.status is RequestStatus.DONE
