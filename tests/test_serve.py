"""The serving layer: queue, policies, batcher, cluster, loadgen.

Covers the ISSUE 3 satellite checklist: per-policy routing decisions on
scripted sequences, the batcher's launch-overhead amortization in
simulated time, a multi-threaded stress run whose totals must be
interleaving-independent, the thread-safe kernel cache, Device.reset
for pooled reuse, and the shared message-geometry module.
"""

import threading
from types import SimpleNamespace

import pytest

from repro.compiler.cache import KernelCache
from repro.isa import msg_geometry as geom
from repro.serve import (
    Backpressure, DynamicBatcher, Request, RequestStatus, ServeCluster,
    SubmissionQueue, make_policy, percentiles,
)
from repro.serve.batcher import Batch, WorkItem
from repro.serve.cluster import sim_end_us
from repro.serve.loadgen import build_trace, run_loadgen
from repro.serve.workloads import get_workload
from repro.sim.device import Device
from repro.workloads.common import run_on


def _fake_workers(loads):
    return [SimpleNamespace(load_sim_us=lambda lo=lo: lo) for lo in loads]


def _stub_batch(key):
    return SimpleNamespace(affinity_key=key)


class TestPolicies:
    def test_round_robin_cycles_in_order(self):
        policy = make_policy("round-robin")
        workers = _fake_workers([0.0, 0.0, 0.0])
        picks = [policy.select(_stub_batch(("k",)), workers)
                 for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_fifo_is_an_alias_for_round_robin(self):
        assert make_policy("fifo").name == "round-robin"

    def test_least_loaded_picks_min_busy_with_index_tiebreak(self):
        policy = make_policy("least-loaded")
        assert policy.select(_stub_batch(None),
                             _fake_workers([50.0, 10.0, 30.0])) == 1
        assert policy.select(_stub_batch(None),
                             _fake_workers([10.0, 10.0, 30.0])) == 0

    def test_cache_affinity_scripted_sequence(self):
        """First placement by load, then sticky per kernel key."""
        policy = make_policy("cache-affinity")
        workers = [SimpleNamespace(load_sim_us=lambda: 0.0),
                   SimpleNamespace(load_sim_us=lambda: 0.0)]
        loads = [0.0, 0.0]
        for i, w in enumerate(workers):
            w.load_sim_us = lambda i=i: loads[i]
        a, b = ("kernA",), ("kernB",)
        assert policy.select(_stub_batch(a), workers) == 0  # least loaded
        loads[0] = 100.0
        assert policy.select(_stub_batch(b), workers) == 1  # new key: by load
        loads[1] = 500.0
        # Repeats stay home even though loads inverted.
        assert policy.select(_stub_batch(a), workers) == 0
        assert policy.select(_stub_batch(b), workers) == 1
        # Eager work (no kernel) falls back to least-loaded.
        assert policy.select(_stub_batch(None), workers) == 0
        policy.reset()
        loads[0], loads[1] = 10.0, 0.0
        assert policy.select(_stub_batch(a), workers) == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_policy("random")


class TestBatcher:
    def _items(self, keys):
        out = []
        for k in keys:
            launch = None
            if k is not None:
                launch = SimpleNamespace(batch_key=(k, "grid"),
                                         affinity_key=(k,), name=k)
            out.append(WorkItem(
                request=Request(workload=str(k)),
                kind="compiled" if k is not None else "eager",
                launch=launch, runner=None if k is not None else (lambda d: None)))
        return out

    def test_groups_by_key_preserving_fifo_head_order(self):
        batches = DynamicBatcher(max_batch=8).form(
            self._items(["a", "b", "a", "b", "a"]))
        assert [[i.request.workload for i in b.items] for b in batches] == \
            [["a", "a", "a"], ["b", "b"]]

    def test_max_batch_splits_groups(self):
        batches = DynamicBatcher(max_batch=2).form(self._items(["a"] * 5))
        assert [b.size for b in batches] == [2, 2, 1]

    def test_eager_work_never_coalesces(self):
        batches = DynamicBatcher(max_batch=8).form(
            self._items([None, None, "a", "a"]))
        assert [b.size for b in batches] == [1, 1, 2]

    def test_disabled_batcher_is_fifo_singletons(self):
        batches = DynamicBatcher(max_batch=8, enabled=False).form(
            self._items(["a", "a", "b"]))
        assert [b.size for b in batches] == [1, 1, 1]


class TestSubmissionQueue:
    def test_watermark_rejects_with_retry_after(self):
        q = SubmissionQueue(capacity=8, high_watermark=2)
        q.submit(Request(workload="saxpy"))
        q.submit(Request(workload="saxpy"))
        with pytest.raises(Backpressure) as exc:
            q.submit(Request(workload="saxpy"))
        assert exc.value.retry_after_s > 0
        assert exc.value.depth == 2
        # Draining reopens admission.
        assert len(q.take(max_items=2)) == 2
        q.submit(Request(workload="saxpy"))

    def test_blocking_submit_waits_for_space(self):
        q = SubmissionQueue(capacity=2, high_watermark=1)
        q.submit(Request(workload="a"))
        done = []

        def blocked():
            q.submit(Request(workload="b"), block=True)
            done.append(True)

        t = threading.Thread(target=blocked)
        t.start()
        t.join(0.05)
        assert not done  # still parked on the watermark
        q.take()
        t.join(2.0)
        assert done

    def test_take_returns_empty_only_when_closed(self):
        q = SubmissionQueue(capacity=4)
        assert q.take(timeout=0.01) == []
        q.submit(Request(workload="a"))
        q.close()
        assert len(q.take()) == 1
        assert q.take() == []


def _sequential_cluster(**kwargs) -> ServeCluster:
    """A cluster whose threads exist but whose dispatch is deterministic
    enough for unit assertions (single worker unless stated)."""
    defaults = dict(num_devices=1, batching=False, queue_capacity=64)
    defaults.update(kwargs)
    return ServeCluster(**defaults)


class TestClusterExecution:
    def test_single_request_roundtrip(self):
        with _sequential_cluster() as cluster:
            req = cluster.submit("saxpy", {"n": 128, "seed": 5})
            assert req.wait(30.0)
            assert req.status is RequestStatus.DONE
            assert req.kernel_sim_us > 0
            assert req.overhead_sim_us == \
                cluster.devices[0].machine.launch_overhead_us
            assert req.dram_bytes > 0
            assert req.result is not None

    def test_unknown_workload_fails_cleanly(self):
        with _sequential_cluster() as cluster:
            req = cluster.submit("nope")
            assert req.wait(10.0)
            assert req.status is RequestStatus.FAILED
            assert "unknown serve workload" in req.error

    def test_batched_overhead_is_one_launch_plus_pipelined_gaps(self):
        """N coalesced requests: 1 full overhead + (N-1) pipelined gaps."""
        n = 4
        cluster = ServeCluster(num_devices=1, batching=True, max_batch=8)
        worker = cluster.workers[0]
        machine = worker.device.machine
        reqs = [Request(workload="saxpy", params={"n": 128, "seed": 9})
                for _ in range(n)]
        items = [cluster._resolve(r) for r in reqs]
        assert all(i is not None for i in items)
        batches = cluster.batcher.form(items)
        assert len(batches) == 1 and batches[0].size == n
        clock0 = worker.sim_clock_us
        worker._execute(batches[0])
        assert all(r.status is RequestStatus.DONE for r in reqs)
        overheads = [r.overhead_sim_us for r in reqs]
        assert overheads[0] == machine.launch_overhead_us
        assert overheads[1:] == [machine.pipelined_launch_us] * (n - 1)
        total = sum(r.service_sim_us for r in reqs)
        assert worker.sim_clock_us - clock0 == pytest.approx(total)
        expected_overhead = machine.launch_overhead_us + \
            (n - 1) * machine.pipelined_launch_us
        assert sum(overheads) == pytest.approx(expected_overhead)
        # vs. unbatched: N full overheads.
        assert sum(overheads) < n * machine.launch_overhead_us

    def test_batch_members_share_sim_timeline_sequentially(self):
        cluster = ServeCluster(num_devices=1, batching=True, max_batch=4)
        worker = cluster.workers[0]
        reqs = [Request(workload="scale", params={"n": 128, "seed": i},
                        arrival_sim_us=0.0) for i in range(3)]
        items = [cluster._resolve(r) for r in reqs]
        worker._execute(cluster.batcher.form(items)[0])
        starts = [r.start_sim_us for r in reqs]
        assert starts == sorted(starts)
        assert starts[1] == pytest.approx(
            starts[0] + reqs[0].service_sim_us)

    def test_divergent_batch_reuses_the_pooled_jit_executor(
            self, monkeypatch):
        """A coalesced batch of a control-flow kernel runs on the JIT
        tier through the batch's one pooled executor (divergent batches
        used to take another tier and build a fresh executor each)."""
        from repro.isa.jit import JitTracingExecutor

        used = []
        real_run = JitTracingExecutor.run

        def spy(ex, program):
            used.append(ex)
            real_run(ex, program)

        monkeypatch.setattr(JitTracingExecutor, "run", spy)
        cluster = ServeCluster(num_devices=1, batching=True, max_batch=8)
        worker = cluster.workers[0]
        reqs = [Request(workload="bitonic_cf", params={"n": 64, "seed": i})
                for i in range(3)]
        batches = cluster.batcher.form([cluster._resolve(r) for r in reqs])
        assert len(batches) == 1 and batches[0].size == 3
        worker._execute(batches[0])
        assert all(r.status is RequestStatus.DONE for r in reqs), \
            [r.error for r in reqs]
        # first launch race-checked on the JIT tier, then certified
        assert [r.tier for r in reqs] == ["jit", "jit", "jit"]
        assert len(used) == 3 and used[0] is used[1] is used[2]
        assert used[0].race is None  # the recorder left with its launch
        assert worker.device.profile.jit_compiles == 1

    def test_eager_fig5_request_served(self):
        with _sequential_cluster() as cluster:
            req = cluster.submit("fig5.prefix")
            assert req.wait(120.0)
            assert req.status is RequestStatus.DONE, req.error
            assert req.launches > 1  # prefix sum enqueues several kernels
            assert req.kernel_sim_us > 0


class TestPickUpCoalescing:
    """Work-conserving dispatch: the dispatcher never waits for more
    requests, and a device worker merges the same-key batches queued
    behind the one it picks up."""

    @staticmethod
    def _queue(cluster, worker, specs):
        """Put one singleton batch per ``(workload, params)`` on the
        worker's inbox, as the dispatcher routes them."""
        reqs = []
        for workload, params in specs:
            req = Request(workload=workload, params=params)
            batch = Batch(items=[cluster._resolve(req)], estimate_us=10.0)
            worker.note_assigned(batch.estimate_us)
            worker.inbox.put(batch)
            reqs.append(req)
        return reqs

    @staticmethod
    def _finish(worker, reqs):
        for req in reqs:
            assert req.wait(60.0)
            assert req.status is RequestStatus.DONE, req.error
        worker.inbox.join()  # every merged inbox entry was task_done()
        assert worker.pending_sim_us == 0.0  # estimates balanced

    def test_worker_merges_same_key_batches_queued_behind_the_head(self):
        with ServeCluster(num_devices=1, max_batch=8) as cluster:
            worker = cluster.workers[0]
            machine = worker.device.machine
            # the device is busy: everything queues behind the head
            with worker.lock:
                reqs = self._queue(cluster, worker, [
                    ("saxpy", {"n": 128, "seed": 1}),
                    ("scale", {"n": 128, "seed": 2}),
                    ("saxpy", {"n": 128, "seed": 3}),
                    ("saxpy", {"n": 128, "seed": 4})])
            self._finish(worker, reqs)
        same, other = [reqs[0], reqs[2], reqs[3]], reqs[1]
        assert [r.batch_size for r in same] == [3, 3, 3]
        assert len({r.batch_id for r in same}) == 1
        assert [r.overhead_sim_us for r in same] == [
            machine.launch_overhead_us] + [machine.pipelined_launch_us] * 2
        # the other key runs after the merged batch, as a batch of its own
        assert other.batch_size == 1 and other.batch_id != reqs[0].batch_id
        assert other.overhead_sim_us == machine.launch_overhead_us
        assert other.start_sim_us == pytest.approx(sim_end_us(reqs[3]))
        assert worker.batches_done == 2

    def test_max_batch_caps_a_pick_up_merge(self):
        with ServeCluster(num_devices=1, max_batch=2) as cluster:
            worker = cluster.workers[0]
            with worker.lock:
                reqs = self._queue(cluster, worker, [
                    ("saxpy", {"n": 128, "seed": s}) for s in range(3)])
            self._finish(worker, reqs)
        assert [r.batch_size for r in reqs] == [2, 2, 1]
        assert reqs[0].batch_id == reqs[1].batch_id != reqs[2].batch_id
        assert worker.batches_done == 2

    def test_eager_work_never_merges_at_pick_up(self):
        batcher = DynamicBatcher(max_batch=8)
        items = TestBatcher()._items([None, None, "a", "a"])
        eager = [Batch(items=[it]) for it in items[:2]]
        assert batcher.merge_queued(eager[0], eager[1:]) == (eager[0], [])
        head, tail = Batch(items=[items[2]]), Batch(items=[items[3]])
        merged, joined = batcher.merge_queued(head, [eager[1], tail])
        assert joined == [tail] and merged.id == head.id
        assert merged.items == [items[2], items[3]]

    def test_lone_request_reaches_its_device_after_one_take(
            self, monkeypatch):
        cluster = ServeCluster(num_devices=1)
        worker = cluster.workers[0]
        events = []
        real_take, real_put = cluster.queue.take, worker.inbox.put

        def take(*args, **kwargs):
            got = real_take(*args, **kwargs)
            events.append(("take", len(got)))
            return got

        def put(item, *args, **kwargs):
            events.append(("put", getattr(item, "size", None)))
            real_put(item, *args, **kwargs)

        monkeypatch.setattr(cluster.queue, "take", take)
        monkeypatch.setattr(worker.inbox, "put", put)
        with cluster:
            req = cluster.submit("saxpy", {"n": 128, "seed": 1})
            assert req.wait(60.0)
        assert req.status is RequestStatus.DONE, req.error
        first = events.index(("take", 1))
        # routed straight from the take that returned it: no second,
        # timed take waited for company
        assert events[first + 1] == ("put", 1)


def _run_trace(policy, batching, trace, devices=2):
    with ServeCluster(num_devices=devices, policy=policy,
                      batching=batching, queue_capacity=1024) as cluster:
        for entry in trace:
            cluster.submit(entry["workload"], entry["params"])
        assert cluster.drain(timeout=120.0)
        report = cluster.report()
    return report


class TestStressDeterminism:
    """Totals must not depend on thread interleaving."""

    @pytest.fixture(scope="class")
    def trace(self):
        return build_trace(seed=11, n_requests=48, mix="compiled",
                           sim_rate_rps=25000.0)

    def test_totals_identical_across_interleavings(self, trace):
        reports = [_run_trace("round-robin", False, trace)
                   for _ in range(3)]
        totals = [
            (r["requests"]["done"],
             round(r["sim"]["kernel_us"], 6),
             r["sim"]["dram_bytes"],
             r["kernel_cache"]["hits"],
             r["kernel_cache"]["misses"])
            for r in reports
        ]
        assert totals[0][0] == len(trace)
        assert totals.count(totals[0]) == len(totals)

    def test_affinity_beats_round_robin_hit_ratio(self, trace):
        rr = _run_trace("round-robin", False, trace)
        aff = _run_trace("cache-affinity", False, trace)
        assert aff["requests"]["done"] == rr["requests"]["done"] == len(trace)
        assert aff["kernel_cache"]["hit_rate"] > \
            rr["kernel_cache"]["hit_rate"]

    def test_batching_amortizes_overhead_vs_unbatched_fifo(self, trace):
        unbatched = _run_trace("fifo", False, trace)
        batched = _run_trace("fifo", True, trace)
        ratio = unbatched["sim"]["launch_overhead_us"] / \
            batched["sim"]["launch_overhead_us"]
        assert ratio >= 1.5


class TestKernelCacheThreadSafety:
    def test_concurrent_lookups_single_compile(self):
        cache = KernelCache()
        wl = get_workload("scale")
        launch = wl.make({"n": 128, "seed": 0})
        errors = []

        def worker():
            try:
                for _ in range(25):
                    kernel, _ = cache.lookup(launch.body, launch.name,
                                             launch.sig,
                                             launch.scalar_params)
                    assert kernel is not None
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 8 * 25 - 1

    def test_contains_has_no_side_effects(self):
        cache = KernelCache()
        wl = get_workload("saxpy")
        launch = wl.make({"n": 128, "seed": 0})
        assert not cache.contains(launch.body, launch.name, launch.sig,
                                  launch.scalar_params)
        assert cache.stats.lookups == 0
        cache.lookup(launch.body, launch.name, launch.sig,
                     launch.scalar_params)
        assert cache.contains(launch.body, launch.name, launch.sig,
                              launch.scalar_params)


class TestDeviceReset:
    def test_reset_clears_counters_and_keeps_cache(self):
        device = Device()
        wl = get_workload("saxpy")
        launch = wl.make({"n": 128, "seed": 1})
        surfaces, scalars = launch.bind(device)
        kern = device.compile(launch.body, launch.name, launch.sig,
                              launch.scalar_params)
        device.run_compiled(kern, launch.grid, surfaces, scalars=scalars)
        assert device.runs and device.profile.threads_run > 0
        assert device.total_time_us > 0
        cached_len = len(device.kernel_cache)
        device.reset()
        assert device.runs == [] and device.surfaces == []
        assert device.total_time_us == 0.0
        assert device.profile.threads_run == 0
        assert device.profile.compile_cache_misses == 0
        assert len(device.kernel_cache) == cached_len
        assert device.kernel_cache.stats.lookups == 0
        # Recompiling after reset is a hit: the cache survived.
        device.compile(launch.body, launch.name, launch.sig,
                       launch.scalar_params)
        assert device.kernel_cache.stats.hits == 1

    def test_reset_clear_cache_drops_programs(self):
        device = Device()
        wl = get_workload("scale")
        launch = wl.make({"n": 128, "seed": 1})
        device.compile(launch.body, launch.name, launch.sig,
                       launch.scalar_params)
        device.reset(clear_cache=True)
        assert len(device.kernel_cache) == 0


class TestMsgGeometry:
    def test_split_counts(self):
        assert geom.media_block_messages(32, 8) == 1
        assert geom.media_block_messages(33, 8) == 2
        assert geom.media_block_messages(32, 9) == 2
        assert geom.oword_block_messages(128) == 1
        assert geom.oword_block_messages(129) == 2
        assert geom.scatter_messages(16) == 1
        assert geom.scatter_messages(17) == 2

    def test_both_paths_import_the_shared_geometry(self):
        from repro.cm import intrinsics
        from repro.sim import batch
        assert intrinsics.media_block_messages is geom.media_block_messages
        assert batch.oword_block_messages is geom.oword_block_messages
        assert batch.scatter_messages is geom.scatter_messages


class TestRunOn:
    def test_delta_accounting_on_shared_device(self):
        from repro.workloads import prefix_sum
        device = Device()
        v = prefix_sum.make_input(1 << 10)
        first = run_on(device, "p1", lambda d: prefix_sum.run_cm(d, v))
        second = run_on(device, "p2", lambda d: prefix_sum.run_cm(d, v))
        assert first.launches == second.launches > 0
        assert second.kernel_time_us == pytest.approx(
            sum(r.kernel_time_us
                for r in device.runs[first.launches:]))
        # Each delta charges one full overhead + pipelined gaps.
        m = device.machine
        assert first.launch_overhead_us == pytest.approx(
            m.launch_overhead_us + (first.launches - 1) * m.pipelined_launch_us)


class TestRequestMath:
    def test_percentiles_nearest_rank(self):
        p = percentiles(range(1, 101))
        assert p["p50"] == 50 and p["p95"] == 95 and p["p99"] == 99
        assert p["max"] == 100
        empty = percentiles([])
        assert empty["p50"] == 0.0

    def test_sim_latency_composition(self):
        req = Request(workload="saxpy", arrival_sim_us=100.0)
        req.start_sim_us = 130.0
        req.kernel_sim_us = 5.0
        req.overhead_sim_us = 6.0
        req.launches = 1
        assert req.wait_sim_us == 30.0
        assert req.service_sim_us == 11.0
        assert req.latency_sim_us == 41.0


class TestLoadgen:
    def test_seeded_trace_is_reproducible(self):
        t1 = build_trace(3, 20, "compiled", 25000.0)
        t2 = build_trace(3, 20, "compiled", 25000.0)
        assert t1 == t2

    def test_small_run_completes_clean(self):
        report = run_loadgen(devices=2, requests=30, seed=4,
                             policy="least-loaded", rate_rps=5000.0)
        lg = report["loadgen"]
        assert lg["dropped"] == 0 and lg["failed"] == 0
        assert report["requests"]["done"] == 30
        for key in ("p50", "p95", "p99"):
            assert key in report["latency_wall_ms"]
            assert key in report["latency_sim_us"]
        assert len(report["per_device"]) == 2
        assert sum(d["requests"] for d in report["per_device"]) == 30
