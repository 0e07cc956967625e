"""The sharded serving layer: pool, lanes, routing, recovery, scaling.

Covers the ISSUE 8 checklist: the shared-memory payload pool and its
pickle fallback, priority-lane/EDF ordering, the bounded retry-after
default on a fresh queue, cache-affinity routing stickiness, trace
propagation across the process boundary, shard-death recovery with no
lost or double-completed request, autoscaler decisions, and
single-process vs sharded result/timing equivalence.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    AutoscalePolicy, Autoscaler, PriorityLaneQueue, Request, RequestStatus,
    ServeCluster, ShardedCluster, SubmissionQueue, SurfacePool,
)
from repro.serve.loadgen import run_loadgen
from repro.serve.queue import DEFAULT_RETRY_S, MAX_RETRY_S, MIN_RETRY_S
from repro.serve.shard import CompleteMsg


class TestSurfacePool:
    def test_put_map_roundtrip_and_release(self):
        pool = SurfacePool(slots=2, slot_bytes=1 << 12)
        try:
            x = np.arange(16, dtype=np.float32)
            y = np.full(8, 3.0, dtype=np.float32)
            ref = pool.put({"x": x, "y": y})
            assert ref is not None
            views = pool.map(ref)
            assert np.array_equal(views["x"], x)
            assert np.array_equal(views["y"], y)
            # Views share the slab: a write on one side is seen via map.
            views["y"][0] = 42.0
            assert pool.map(ref)["y"][0] == 42.0
            assert pool.stats()["in_use"] == 1
            pool.release(ref)
            assert pool.stats()["in_use"] == 0
            assert pool.stats()["releases"] == 1
            pool.release(ref)  # double release is a no-op
            assert pool.stats()["releases"] == 1
        finally:
            pool.close()

    def test_oversize_and_exhausted_fall_back(self):
        pool = SurfacePool(slots=1, slot_bytes=256)
        try:
            big = np.zeros(1024, dtype=np.float32)
            assert pool.put({"v": big}) is None
            assert pool.stats()["fallbacks"] == 1
            small = np.zeros(4, dtype=np.float32)
            ref = pool.put({"v": small})
            assert ref is not None
            assert pool.put({"v": small}) is None  # no free slot
            assert pool.stats()["fallbacks"] == 2
            pool.release(ref)
            assert pool.put({"v": small}) is not None
        finally:
            pool.close()

    def test_attached_pool_maps_but_never_allocates(self):
        pool = SurfacePool(slots=2, slot_bytes=1 << 10)
        try:
            ref = pool.put({"v": np.arange(8, dtype=np.float32)})
            other = SurfacePool.attach(pool.name, pool.slots,
                                       pool.slot_bytes)
            try:
                assert np.array_equal(other.map(ref)["v"],
                                      np.arange(8, dtype=np.float32))
                with pytest.raises(RuntimeError):
                    other.put({"v": np.zeros(4, dtype=np.float32)})
            finally:
                other.close()
        finally:
            pool.close()


class TestPriorityLaneQueue:
    def _req(self, lane, deadline_s=None):
        req = Request(workload="w")
        req.lane = lane
        if deadline_s is not None:
            req.deadline_wall_s = deadline_s
        return req

    def test_interactive_drains_strictly_before_batch(self):
        q = PriorityLaneQueue(capacity=16)
        q.submit(self._req("batch"))
        q.submit(self._req("batch"))
        q.submit(self._req("interactive"))
        taken = q.take(max_items=3)
        assert [r.lane for r in taken] == ["interactive", "batch", "batch"]

    def test_edf_within_lane_no_deadline_last_fifo(self):
        q = PriorityLaneQueue(capacity=16)
        late = self._req("interactive", deadline_s=200.0)
        none1 = self._req("interactive")
        soon = self._req("interactive", deadline_s=100.0)
        none2 = self._req("interactive")
        for r in (late, none1, soon, none2):
            q.submit(r)
        assert q.take(max_items=4) == [soon, late, none1, none2]

    def test_lane_depths_gauge(self):
        q = PriorityLaneQueue(capacity=16)
        q.submit(self._req("interactive"))
        q.submit(self._req("batch"))
        q.submit(self._req("batch"))
        assert q.lane_depths() == {"interactive": 1, "batch": 2}
        q.take(max_items=2)
        assert q.lane_depths() == {"interactive": 0, "batch": 1}


class TestRetryAfterDefault:
    def test_fresh_queue_hints_bounded_default_not_floor(self):
        q = SubmissionQueue(capacity=8)
        # Nothing taken yet: the drain rate is unmeasured, so the hint
        # must be the bounded default, not the 1 ms hot-loop floor.
        assert q.retry_after_s(1) == pytest.approx(DEFAULT_RETRY_S)
        assert q.retry_after_s(10 ** 6) == MAX_RETRY_S

    def test_hint_always_within_bounds(self):
        q = SubmissionQueue(capacity=8)
        for overflow in (1, 7, 10 ** 9):
            hint = q.retry_after_s(overflow)
            assert MIN_RETRY_S <= hint <= MAX_RETRY_S


class TestRouting:
    def test_route_key_excludes_seed_and_internal_params(self):
        k1 = ShardedCluster.route_key("sgemm", {"m": 8, "seed": 1})
        k2 = ShardedCluster.route_key("sgemm", {"m": 8, "seed": 2,
                                                "_origin_id": 7})
        k3 = ShardedCluster.route_key("sgemm", {"m": 16, "seed": 1})
        assert k1 == k2
        assert k1 != k3

    def test_route_key_order_independent(self):
        a = ShardedCluster.route_key("w", {"m": 8, "n": 4})
        b = ShardedCluster.route_key("w", {"n": 4, "m": 8})
        assert a == b


class TestAutoscalerDecide:
    def _scaler(self, **kw):
        defaults = dict(min_shards=1, max_shards=4, backlog_high=16.0,
                        backlog_low=2.0, burn_high=1.0, cooldown_s=1.0)
        defaults.update(kw)
        return Autoscaler(AutoscalePolicy(**defaults))

    def test_backlog_high_scales_up_to_cap(self):
        s = self._scaler()
        assert s.decide(0.0, 2, backlog=64, burn_rate=0.0) == 1
        assert s.decide(0.0, 4, backlog=640, burn_rate=0.0) == 0  # at max

    def test_burn_rate_scales_up_even_with_low_backlog(self):
        s = self._scaler()
        assert s.decide(0.0, 2, backlog=0, burn_rate=1.5) == 1

    def test_backlog_low_scales_down_to_floor(self):
        s = self._scaler()
        assert s.decide(0.0, 3, backlog=0, burn_rate=0.0) == -1
        assert s.decide(0.0, 1, backlog=0, burn_rate=0.0) == 0  # at min

    def test_cooldown_holds_between_actions(self):
        s = self._scaler()
        assert s.decide(0.0, 2, backlog=64, burn_rate=0.0) == 1
        s.note(0.0, "up", 2, 3, "test")
        assert s.decide(0.5, 3, backlog=64, burn_rate=0.0) == 0
        assert s.decide(1.5, 3, backlog=64, burn_rate=0.0) == 1

    def test_below_floor_restores_ignoring_cooldown(self):
        s = self._scaler(min_shards=2)
        s.note(0.0, "up", 1, 2, "test")
        assert s.decide(0.1, 1, backlog=0, burn_rate=0.0) == 1

    def test_events_recorded_in_snapshot(self):
        s = self._scaler()
        s.note(1.0, "up", 1, 2, "backlog")
        snap = s.snapshot()
        assert snap["actions"] == 1
        assert snap["events"][0]["action"] == "up"


def _submit_menu(cluster, n, lane="interactive"):
    menu = [("saxpy", {"n": 256}), ("saxpy", {"n": 512}),
            ("scale", {"n": 256}), ("sgemm", {"m": 16, "n": 16, "k": 8})]
    reqs = []
    for i in range(n):
        workload, params = menu[i % len(menu)]
        params = dict(params, seed=i)
        reqs.append(cluster.submit(workload, params, lane=lane, block=True))
    return reqs


class TestShardedEndToEnd:
    def test_requests_complete_and_report_aggregates(self):
        with ShardedCluster(shards=2, devices_per_shard=1,
                            routing="affinity") as cluster:
            reqs = _submit_menu(cluster, 24)
            assert cluster.drain(timeout=120.0)
            report = cluster.report()
        assert all(r.status is RequestStatus.DONE for r in reqs)
        assert report["requests"]["done"] == 24
        assert report["shards"] == 2
        assert len(report["per_shard"]) == 2
        assert sum(s["requests_done"] for s in report["per_shard"]) == 24
        assert report["sim"]["kernel_us"] > 0
        assert report["sim"]["horizon_us"] > 0
        assert report["control"]["shard_deaths"] == 0
        for entry in report["per_shard"]:
            assert entry["requests_done"] > 0
            assert entry["horizon_us"] > 0
            assert entry["kernel_cache"]["hits"] + \
                entry["kernel_cache"]["misses"] > 0
            assert sum(entry["tiers"].values()) == entry["requests_done"]
        assert report["sim"]["horizon_us"] == \
            max(s["horizon_us"] for s in report["per_shard"])

    def test_affinity_pins_each_kernel_to_one_shard(self):
        with ShardedCluster(shards=2, devices_per_shard=1,
                            routing="affinity", recorder=False) as cluster:
            reqs = _submit_menu(cluster, 32)
            assert cluster.drain(timeout=120.0)
        homes = {}
        for r in reqs:
            key = ShardedCluster.route_key(r.workload, r.params)
            homes.setdefault(key, set()).add(r.shard_index)
        # Every distinct kernel identity landed on exactly one shard.
        assert all(len(shards) == 1 for shards in homes.values())
        # ... and the menu actually spread across both shards.
        assert len({next(iter(s)) for s in homes.values()}) == 2

    def test_trace_spans_stitch_across_the_process_boundary(self):
        with ShardedCluster(shards=1, devices_per_shard=1) as cluster:
            req = cluster.submit("saxpy", {"n": 256, "seed": 3}, block=True)
            assert cluster.drain(timeout=60.0)
        assert req.trace is not None
        names = [s.name for s in req.trace.roots]
        assert "queue_wait" in names and "route" in names
        assert "shard" in names  # the grafted worker tree
        shard_span = next(s for s in req.trace.roots if s.name == "shard")
        child_names = {c.name for c in shard_span.children}
        assert "serve:request" in child_names or \
            {"queue_wait", "schedule"} & child_names
        # Worker trace IDs are scoped per shard, parent IDs are not.
        assert req.trace_id and not req.trace_id.startswith("t-s")

    def test_payload_rides_shared_memory_and_returns(self):
        x = np.arange(64, dtype=np.float32)
        y = np.ones(64, dtype=np.float32)
        with ShardedCluster(shards=1, devices_per_shard=1,
                            recorder=False) as cluster:
            req = cluster.submit("saxpy", {"n": 64},
                                 payload={"x": x, "y": y}, block=True)
            assert cluster.drain(timeout=60.0)
            pool_stats = cluster.pool.stats()
        assert req.status is RequestStatus.DONE, req.error
        assert req.result_payload is not None
        np.testing.assert_allclose(req.result_payload["y"], 2.0 * x + y,
                                   rtol=1e-6)
        assert pool_stats["allocs"] == pool_stats["releases"] == 1
        assert pool_stats["in_use"] == 0

    def test_payload_pickle_fallback_when_pool_overflows(self):
        x = np.arange(64, dtype=np.float32)
        y = np.zeros(64, dtype=np.float32)
        # Slots too small for the payload: put() falls back to pickling.
        with ShardedCluster(shards=1, devices_per_shard=1, recorder=False,
                            pool_slots=1, pool_slot_bytes=64) as cluster:
            req = cluster.submit("saxpy", {"n": 64},
                                 payload={"x": x, "y": y}, block=True)
            assert cluster.drain(timeout=60.0)
            fallbacks = cluster.pool.stats()["fallbacks"]
        assert req.status is RequestStatus.DONE, req.error
        assert fallbacks == 1
        np.testing.assert_allclose(req.result_payload["y"], 2.0 * x,
                                   rtol=1e-6)


class TestShardDeathRecovery:
    def test_killed_shard_requeues_no_loss_no_double_completion(self):
        n = 16
        with ShardedCluster(shards=2, devices_per_shard=1,
                            recorder=False) as cluster:
            # One kernel identity: affinity pins every request to a
            # single home shard, whose single device serves them
            # serially — so killing it mid-run provably strands work.
            reqs = [cluster.submit("sgemm",
                                   {"m": 64, "n": 64, "k": 16, "seed": i},
                                   block=True) for i in range(n)]
            deadline = time.monotonic() + 30.0
            victim = None
            while victim is None and time.monotonic() < deadline:
                for shard in list(cluster._shards.values()):
                    if cluster._inflight_count(shard.index) >= n // 2:
                        victim = shard
                        break
                else:
                    time.sleep(0.005)
            assert victim is not None, "no shard ever held the backlog"
            victim.proc.kill()
            assert cluster.drain(timeout=120.0)
            report = cluster.report()
        statuses = [r.status for r in reqs]
        finished = sum(1 for s in statuses
                       if s in (RequestStatus.DONE, RequestStatus.FAILED))
        assert finished == n  # nothing lost
        assert report["requests"]["total"] == n  # nothing double-counted
        assert report["control"]["shard_deaths"] == 1
        assert report["control"]["requeued"] > 0
        assert all(s is RequestStatus.DONE for s in statuses), \
            [r.error for r in reqs if r.status is not RequestStatus.DONE]

    def test_sole_shard_death_restores_floor_and_finishes(self):
        # With shard_inflight=2 most of the 24 requests wait in the
        # parent queue across the death; only the replacement's spawn
        # can route them.
        for shard_inflight, n in ((None, 12), (2, 24)):
            with ShardedCluster(shards=1, devices_per_shard=1,
                                recorder=False,
                                shard_inflight=shard_inflight) as cluster:
                reqs = _submit_menu(cluster, n)
                cluster._shards[0].proc.kill()
                assert cluster.drain(timeout=120.0)
                report = cluster.report()
            assert all(r.status is RequestStatus.DONE for r in reqs), \
                [r.error for r in reqs if r.status is not RequestStatus.DONE]
            assert report["control"]["shard_deaths"] == 1
            assert report["shards"] >= 2  # a replacement was spawned

    def test_repeated_and_late_completions_retire_once(self):
        """A completion counts only while its request is in flight: a
        repeat, and a late one from the shard that died holding the
        request, are both dropped and counted."""
        with ShardedCluster(shards=1, devices_per_shard=1,
                            recorder=False) as cluster:
            dead = cluster._shards[0]
            os.kill(dead.proc.pid, signal.SIGSTOP)  # holds what it gets
            req = cluster.submit("saxpy", {"n": 64, "seed": 0}, block=True)
            dead.proc.kill()
            assert cluster.drain(timeout=60.0)
            served_by = req.shard_index
            for shard in (served_by, dead.index):
                cluster._complete(CompleteMsg(
                    shard=shard, origin_id=req.id,
                    status=RequestStatus.FAILED.value))
            report = cluster.report()
        assert req.status is RequestStatus.DONE, req.error
        assert served_by != dead.index and req.shard_index == served_by
        assert report["requests"]["total"] == report["requests"]["done"] == 1
        assert report["control"]["requeued"] == 1
        assert report["control"]["duplicates_dropped"] == 2


class TestConcurrentRouting:
    def test_concurrent_routers_never_overrun_the_budget(self):
        """Clients route on submit and pumps on completion, all at once.
        The budget check, the take and the in-flight insert share one
        lock, so the in-flight table never holds more than
        ``shard_inflight`` per active shard."""
        seen = []
        reqs = []
        reqs_lock = threading.Lock()
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedCluster(shards=2, devices_per_shard=1,
                                recorder=False,
                                shard_inflight=2) as cluster:
                forward = cluster._forward

                def counted(items, active):
                    forward(items, active)
                    seen.append((len(cluster._inflight), len(active)))

                cluster._forward = counted

                def client():
                    mine = _submit_menu(cluster, 12)
                    with reqs_lock:
                        reqs.extend(mine)

                clients = [threading.Thread(target=client)
                           for _ in range(6)]
                for t in clients:
                    t.start()
                for t in clients:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in clients)
                assert cluster.drain(timeout=120.0)
                report = cluster.report()
        finally:
            sys.setswitchinterval(old_interval)
        assert len(reqs) == 72
        assert all(r.status is RequestStatus.DONE for r in reqs)
        assert seen and all(n <= 2 * active for n, active in seen), \
            max(seen)
        assert sum(s["routed"] for s in report["per_shard"]) == 72


class TestSingleVsShardedEquivalence:
    def test_signatures_identical_across_topologies(self):
        menu = [("saxpy", {"n": 256}), ("scale", {"n": 512}),
                ("sgemm", {"m": 16, "n": 16, "k": 8})]
        work = [(w, dict(p, seed=i)) for i, (w, p) in
                enumerate(menu * 8)]

        def signature(req):
            result = req.result
            if isinstance(result, float):
                result = round(result, 4)
            return (round(req.kernel_sim_us, 6), req.dram_bytes, result)

        with ServeCluster(num_devices=1, policy="round-robin",
                          recorder=False, queue_capacity=256) as single:
            s_reqs = [single.submit(w, p, block=True) for w, p in work]
            assert single.drain(timeout=120.0)
        with ShardedCluster(shards=2, devices_per_shard=1,
                            routing="round-robin", policy="round-robin",
                            recorder=False) as sharded:
            h_reqs = [sharded.submit(w, p, block=True) for w, p in work]
            assert sharded.drain(timeout=120.0)
        assert [signature(r) for r in s_reqs] == \
            [signature(r) for r in h_reqs]


class TestLaneProtection:
    def test_interactive_beats_batch_under_overload(self):
        """All batch work is submitted *first*; if interactive still
        finishes with lower latency, lane priority demonstrably
        reordered the backlog (the shallow in-flight budget keeps it in
        the parent's lane queue where priority can act)."""
        with ShardedCluster(shards=1, devices_per_shard=1, recorder=False,
                            queue_capacity=512, shard_inflight=4) as cluster:
            batch = _submit_menu(cluster, 60, lane="batch")
            interactive = _submit_menu(cluster, 20, lane="interactive")
            assert cluster.drain(timeout=180.0)
        assert all(r.status is RequestStatus.DONE
                   for r in batch + interactive)
        lat_i = np.mean([r.latency_wall_s for r in interactive])
        lat_b = np.mean([r.latency_wall_s for r in batch])
        assert lat_i < lat_b
        done_i = sorted(r.t_done_wall for r in interactive)
        done_b = sorted(r.t_done_wall for r in batch)
        # The median interactive completion precedes the median batch
        # completion even though every batch request arrived earlier.
        assert done_i[len(done_i) // 2] < done_b[len(done_b) // 2]


class TestAutoscale:
    def test_burst_scales_up_without_dropping_requests(self):
        policy = AutoscalePolicy(min_shards=1, max_shards=3,
                                 backlog_high=8.0, backlog_low=0.5,
                                 cooldown_s=0.2, interval_s=0.05)
        with ShardedCluster(shards=1, devices_per_shard=1, recorder=False,
                            autoscale=policy, shard_inflight=4) as cluster:
            reqs = _submit_menu(cluster, 64)
            assert cluster.drain(timeout=180.0)
            report = cluster.report()
        assert all(r.status is RequestStatus.DONE for r in reqs)
        ups = [e for e in report["autoscale"]["events"]
               if e["action"] == "up"]
        assert ups, "burst backlog never triggered a scale-up"
        assert report["shards"] > 1

    def test_idle_fleet_drains_down_cleanly(self):
        policy = AutoscalePolicy(min_shards=1, max_shards=3,
                                 backlog_high=1000.0, backlog_low=2.0,
                                 cooldown_s=0.1, interval_s=0.05)
        with ShardedCluster(shards=3, devices_per_shard=1, recorder=False,
                            autoscale=policy) as cluster:
            reqs = _submit_menu(cluster, 8)
            assert cluster.drain(timeout=60.0)
            deadline = time.monotonic() + 10.0
            while cluster.num_shards > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            active_after = cluster.num_shards
            report = cluster.report()
        assert all(r.status is RequestStatus.DONE for r in reqs)
        downs = [e for e in report["autoscale"]["events"]
                 if e["action"] == "down"]
        assert downs, "idle fleet never drained a shard"
        assert active_after < 3


class TestVerdictBroadcast:
    def test_kernel_sanitized_at_most_once_cluster_wide(self):
        """A divergent kernel pays its sanitized first launch on ONE
        shard; the race verdict rides the CompleteMsg to the parent,
        which rebroadcasts it, so every other shard JIT-admits the
        kernel without re-sanitizing."""
        with ShardedCluster(shards=2, devices_per_shard=1,
                            routing="round-robin",
                            recorder=False) as cluster:
            # wave 1: first-ever launch of each divergent compiled
            # kernel — the only sanitized launches the cluster may take
            first = [cluster.submit("bitonic_cf", {"seed": 1}, block=True),
                     cluster.submit("kmeans_cf", {"seed": 1}, block=True)]
            assert cluster.drain(timeout=120.0)
            # wave 2: the same kernels land on *both* shards
            # (round-robin defeats affinity pinning on purpose)
            rest = []
            for workload in ("bitonic_cf", "kmeans_cf"):
                rest.extend(cluster.submit(workload, {"seed": 2 + i},
                                           block=True) for i in range(6))
            assert cluster.drain(timeout=120.0)
            report = cluster.report()
        assert all(r.status is RequestStatus.DONE for r in first + rest), \
            [r.error for r in first + rest
             if r.status is not RequestStatus.DONE]
        shards_hit = {}
        for r in rest:
            shards_hit.setdefault(r.workload, set()).add(r.shard_index)
        assert all(len(s) == 2 for s in shards_hit.values()), \
            f"wave 2 never exercised both shards: {shards_hit}"
        sanitized = {}
        for r in first + rest:
            sanitized[r.workload] = (sanitized.get(r.workload, 0) +
                                     r.sanitized_launches)
        assert all(count <= 1 for count in sanitized.values()), \
            f"kernel re-sanitized despite the broadcast verdict: {sanitized}"
        assert all(r.sanitized_launches == 0 for r in rest), \
            "a wave-2 launch re-sanitized on the adopting shard"
        control = report["control"]
        assert control["verdicts_known"] >= 2
        assert control["verdicts_broadcast"] >= 2


class TestLoadgenSharded:
    def test_sharded_loadgen_reports_per_shard(self):
        report = run_loadgen(devices=1, requests=24, seed=7, shards=2,
                             mix="compiled", mode="closed", concurrency=8,
                             lane="mixed", recorder=False)
        lg = report["loadgen"]
        assert lg["dropped"] == 0 and lg["failed"] == 0
        assert lg["shards"] == 2
        assert report["requests"]["done"] == 24
        assert len(report["per_shard"]) == 2
        assert "lanes" in report
