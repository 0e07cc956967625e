"""The virtual serving cluster: N devices, one scheduler, one front door.

Pipeline::

    submit() -> SubmissionQueue -> dispatcher thread -> DeviceWorker[i]
                 (admission /       (resolve, batch,      (per-device
                  backpressure)      pick device)          thread + lock)

- The **dispatcher** drains the bounded submission queue, resolves each
  request against the workload registry, lets the
  :class:`~repro.serve.batcher.DynamicBatcher` coalesce compatible
  compiled requests, and routes every batch to a device via the
  configured :class:`~repro.serve.scheduler.Policy`.
- Each **DeviceWorker** owns one simulated :class:`Device` plus a lock,
  so the device and its :class:`KernelCache` are never touched by two
  threads at once; workers run concurrently with each other, which is
  where the wall-clock parallelism comes from.
- Two clocks are kept per request: wall time (thread reality) and the
  simulated-microsecond timeline, where each device is a serial resource
  — a batch head pays the full launch overhead, coalesced followers pay
  only the pipelined gap (see :mod:`repro.serve.batcher`).

Everything is observable: ``serve_*`` counters/gauges/histograms land in
the cluster registry (the installed :mod:`repro.obs` registry when
enabled), and batch execution opens ``serve:batch`` / ``serve:request``
spans in the trace sinks.

:class:`FrontDoor` is the part this cluster shares with
:class:`~repro.serve.shard.ShardedCluster`: the queue, SLO tracker and
flight recorder; ``submit``, ``drain`` and ``export_traces``; one
retire step per finished request; and the report fields that both
derive from completed requests alone, the simulated ``horizon_us``
included.
"""

from __future__ import annotations

import queue as _stdqueue
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

import repro.sanitize as sanitize_mod
from repro.obs import get_observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DumpReason, FlightRecorder
from repro.obs.request import RequestTrace, mint_trace_id
from repro.obs.slo import SLOTracker
from repro.obs.tracing import get_tracer, trace_span
from repro.isa.jit import JitTracingExecutor
from repro.sim.device import Device
from repro.sim.machine import GEN11_ICL, MachineConfig

from repro.serve.batcher import Batch, DynamicBatcher, WorkItem
from repro.serve.lanes import PriorityLaneQueue, normalize_lane
from repro.serve.queue import Backpressure, ShutDown, SubmissionQueue
from repro.serve.request import Request, RequestStatus, percentiles
from repro.serve.scheduler import Policy, make_policy
from repro.serve.workloads import get_workload

_SHUTDOWN = object()

#: Wall-latency histogram buckets in milliseconds (the default metric
#: buckets are microsecond-scaled for simulated time).
_MS_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
               float("inf"))


class DeviceWorker(threading.Thread):
    """One thread driving one simulated device."""

    def __init__(self, index: int, device: Device,
                 cluster: "ServeCluster") -> None:
        super().__init__(name=f"serve-dev{index}", daemon=True)
        self.index = index
        self.device = device
        self.cluster = cluster
        self.inbox: _stdqueue.Queue = _stdqueue.Queue()
        #: tuned-variant accounting: "family:label" -> requests served.
        self.variants_served: Dict[str, int] = {}
        #: serializes every touch of the device and its kernel cache.
        self.lock = threading.Lock()
        #: device-free point on the simulated timeline.
        self.sim_clock_us = 0.0
        #: committed simulated busy time (overhead + kernel).
        self.busy_sim_us = 0.0
        #: estimated simulated time of batches queued on the inbox.
        self.pending_sim_us = 0.0
        self.requests_done = 0
        self.batches_done = 0
        self._pending_lock = threading.Lock()

    def load_sim_us(self) -> float:
        """The least-loaded metric: committed + estimated queued work."""
        with self._pending_lock:
            return self.busy_sim_us + self.pending_sim_us

    def note_assigned(self, estimate_us: float) -> None:
        with self._pending_lock:
            self.pending_sim_us += estimate_us

    def _note_served(self, estimate_us: float, busy_us: float) -> None:
        with self._pending_lock:
            self.pending_sim_us = max(0.0, self.pending_sim_us - estimate_us)
            self.busy_sim_us += busy_us

    def run(self) -> None:
        while True:
            batch = self.inbox.get()
            if batch is _SHUTDOWN:
                break
            try:
                self._execute(batch)
            finally:
                self.inbox.task_done()

    # -- batch execution ---------------------------------------------------

    def _execute(self, batch: Batch) -> None:
        cluster = self.cluster
        machine = self.device.machine
        with self.lock, trace_span("serve:batch", device=self.index,
                                   kernel=batch.kernel_name,
                                   size=batch.size):
            batch_busy_us = 0.0
            # Pooled JIT executor: coalesced compiled batches —
            # straight-line or divergent (SIMD control flow) alike —
            # reuse one executor across the whole batch, and
            # run_compiled binds the kernel's cached megakernel into it,
            # so every request after the first skips both plan
            # construction and JIT compilation.  A launch the gate
            # sends to the sequential tier builds its own executor.
            pooled = JitTracingExecutor() if (
                batch.size > 1 and batch.items[0].kind == "compiled") \
                else None
            for pos, item in enumerate(batch.items):
                req = item.request
                req.status = RequestStatus.RUNNING
                req.t_dispatch_wall = time.perf_counter()
                req.device_index = self.index
                req.batch_id = batch.id
                req.batch_size = batch.size
                overhead_us = machine.launch_overhead_us if pos == 0 \
                    else machine.pipelined_launch_us
                start = self.sim_clock_us
                if req.arrival_sim_us is not None:
                    start = max(start, req.arrival_sim_us)
                req.start_sim_us = start
                error: Optional[str] = None
                try:
                    if req.trace is not None:
                        # Route every span the device opens (sanitize_gate,
                        # dispatch:*, chunk, fold, jit:compile) into this
                        # request's tree, whatever sink is installed.
                        with req.trace.active(), \
                                trace_span("serve:request", request=req.id,
                                           workload=req.workload,
                                           device=self.index,
                                           batch=batch.id, position=pos):
                            self._run_item(item, pooled)
                    else:
                        with trace_span("serve:request", request=req.id,
                                        workload=req.workload,
                                        device=self.index):
                            self._run_item(item, pooled)
                except Exception as exc:  # noqa: BLE001 - isolate requests
                    error = f"{type(exc).__name__}: {exc}"
                # Failed requests occupied their queue slot but are
                # charged no simulated service.
                if error is None:
                    req.overhead_sim_us = overhead_us if req.launches else 0.0
                    served = req.service_sim_us
                    self.sim_clock_us = start + served
                    batch_busy_us += served
                req.t_done_wall = time.perf_counter()
                if error is None:
                    req.finish(RequestStatus.DONE)
                else:
                    req.finish(RequestStatus.FAILED, error)
                self.requests_done += 1
                cluster._request_finished(req, self)
            self.batches_done += 1
            self._note_served(batch.estimate_us, batch_busy_us)
            cluster._batch_finished(batch, self, batch_busy_us)

    def _run_item(self, item: WorkItem, pooled) -> None:
        req = item.request
        device = self.device
        n_surfaces = len(device.surfaces)
        hits0 = device.profile.compile_cache_hits
        misses0 = device.profile.compile_cache_misses
        n_san0 = len(device.sanitizer_results)
        try:
            if item.kind == "compiled":
                launch = item.launch
                surfaces, scalars = launch.bind(device)
                kernel = device.compile(launch.body, launch.name,
                                        launch.sig, launch.scalar_params)
                run = device.run_compiled(kernel, launch.grid, surfaces,
                                          scalars=scalars, name=launch.name,
                                          executor=pooled,
                                          validate=self.cluster.validate)
                req.kernel_sim_us = run.timing.time_us
                req.dram_bytes = int(run.timing.dram_bytes)
                req.launches = 1
                req.tier = run.path
                if launch.finish is not None:
                    req.result = launch.finish(surfaces)
            elif item.kind == "tuned":
                self._run_tuned(item)
            else:
                wrun = item.runner(device)
                req.kernel_sim_us = wrun.kernel_time_us
                # Eager workloads may enqueue many kernels; their own
                # pipelined overhead beyond the first launch is theirs.
                req.kernel_sim_us += max(
                    0.0, wrun.launch_overhead_us -
                    device.machine.launch_overhead_us)
                req.dram_bytes = int(sum(
                    r.timing.dram_bytes
                    for r in device.runs[-wrun.launches:])) \
                    if wrun.launches else 0
                req.launches = wrun.launches
                req.result = wrun.name
                req.tier = "eager"
        finally:
            req.cache_hits = device.profile.compile_cache_hits - hits0
            req.cache_misses = device.profile.compile_cache_misses - misses0
            new_results = device.sanitizer_results[n_san0:]
            req.sanitized_launches = len(new_results)
            req.sanitize_findings = [r.summary() for r in new_results
                                     if not r.clean]
            # Release this request's surfaces so a long-lived pooled
            # device doesn't accumulate (and re-scan) dead bindings.
            del device.surfaces[n_surfaces:]

    def _run_tuned(self, item: WorkItem) -> None:
        """Serve a tuned request: resolve the family against THIS
        device's machine in the cluster's tuned registry (falling back
        to the family's hand-tuned default point) and run that variant.
        """
        from repro.tune.workloads import get_tunable
        req = item.request
        device = self.device
        task = item.task
        wl = get_tunable(task.family)
        entry = None
        if self.cluster.tuned is not None:
            entry = self.cluster.tuned.lookup(task.family, task.problem,
                                              device.machine.name)
        point = dict(entry.point) if entry is not None \
            else wl.space_for(task.problem).default_point()
        variant = wl.variant(task.problem, point)
        runs0 = len(device.runs)
        t0 = device.kernel_time_us
        with trace_span("tuned_variant", family=task.family,
                        variant=variant.label, kernel=variant.kernel_name,
                        machine=device.machine.name,
                        tuned=entry is not None):
            out = variant.run(device, task.inputs)
        if task.check:
            expect = wl.reference(task.problem, task.inputs)
            if not np.array_equal(out, expect):
                raise AssertionError(
                    f"tuned {task.family} variant {variant.label} output "
                    f"does not match the reference oracle")
        req.kernel_sim_us = device.kernel_time_us - t0
        req.launches = len(device.runs) - runs0
        req.dram_bytes = int(sum(r.timing.dram_bytes
                                 for r in device.runs[runs0:]))
        req.tier = "tuned"
        req.variant = variant.label
        req.result = f"{task.family}:{variant.label}"
        vkey = f"{task.family}:{variant.label}"
        self.variants_served[vkey] = self.variants_served.get(vkey, 0) + 1


def sim_end_us(req: Request) -> float:
    """Where a served request left its device's simulated clock."""
    return (req.start_sim_us or 0.0) + req.service_sim_us


def cache_stats(hits: int, misses: int) -> Dict[str, Any]:
    lookups = hits + misses
    return {"hits": hits, "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0}


class FrontDoor:
    """Admission, completion and report: what every cluster shares.

    A subclass owns the topology behind the queue: it starts its
    threads in ``_start()``, stops them in ``shutdown()``, passes each
    finished request to :meth:`_retire`, and adds its own sections to
    the report in ``_report_topology(report, reqs, done)``.
    """

    def __init__(self, machine, tuned, queue_capacity: int,
                 high_watermark: Optional[int], lanes: bool, obs, slo,
                 recorder, recorder_capacity: int,
                 dump_dir: Optional[str]) -> None:
        self.obs = obs if obs is not None else get_observability()
        self.registry: MetricsRegistry = (
            self.obs.registry if self.obs.enabled else MetricsRegistry())
        queue_cls = PriorityLaneQueue if lanes else SubmissionQueue
        self.queue = queue_cls(capacity=queue_capacity,
                               high_watermark=high_watermark,
                               registry=self.registry)
        #: optional SLO tracker: pass a {workload: target_wall_ms |
        #: SLObjective} mapping or a prebuilt SLOTracker.
        if isinstance(slo, SLOTracker):
            self.slo: Optional[SLOTracker] = slo
        elif slo:
            self.slo = SLOTracker(slo, registry=self.registry)
        else:
            self.slo = None
        #: always-on flight recorder (True builds one; pass an instance
        #: to share a ring across clusters; False/None disables).
        if isinstance(recorder, FlightRecorder):
            self.recorder: Optional[FlightRecorder] = recorder
        elif recorder:
            self.recorder = FlightRecorder(capacity=recorder_capacity,
                                           dump_dir=dump_dir,
                                           registry=self.registry)
        else:
            self.recorder = None
        #: a single MachineConfig builds a homogeneous pool; a sequence
        #: is striped round-robin across devices (or shards) for
        #: mixed-generation clusters.
        machines = list(machine) \
            if isinstance(machine, (list, tuple)) else [machine]
        if not machines:
            raise ValueError("machine sequence must be non-empty")
        self.machines: List[MachineConfig] = machines
        #: tuned-variant registry (repro.tune.registry.TunedRegistry) or
        #: a path to its JSON dump; consulted per device machine when
        #: serving "tuned.*" workloads.
        if isinstance(tuned, str):
            from repro.tune.registry import TunedRegistry
            tuned = TunedRegistry.load(tuned)
        self.tuned = tuned
        self._outstanding = 0
        self._done_cv = threading.Condition()
        self._started = False
        self._stopped = False
        self._t_start = time.perf_counter()
        self.completed: List[Request] = []
        self._completed_lock = threading.Lock()
        #: optional completion callback (finished Request -> None), run
        #: on the retiring thread before the request is counted drained
        #: — the shard worker ships completions through it.
        self.on_complete = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "FrontDoor":
        if self._started:
            return self
        self._started = True
        self._t_start = time.perf_counter()
        self._start()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission --------------------------------------------------------

    def submit(self, workload: str, params: Optional[Dict[str, Any]] = None,
               arrival_sim_us: Optional[float] = None,
               lane: str = "interactive",
               deadline_ms: Optional[float] = None,
               block: bool = False,
               timeout: Optional[float] = None) -> Request:
        """Admit one request; raises :class:`Backpressure` when full.

        ``lane`` and ``deadline_ms`` only affect drain order on a lane
        queue; a deadline left ``None`` inherits the workload's SLO wall
        target when one is configured.
        """
        req = self._new_request(workload, params, arrival_sim_us, lane,
                                deadline_ms)
        return self._admit(req, block, timeout)

    def _new_request(self, workload: str, params: Optional[Dict[str, Any]],
                     arrival_sim_us: Optional[float], lane: str,
                     deadline_ms: Optional[float]) -> Request:
        if not self._started:
            self.start()
        req = Request(workload=workload, params=dict(params or {}),
                      arrival_sim_us=arrival_sim_us)
        req.lane = normalize_lane(lane)
        if deadline_ms is None and self.slo is not None:
            objective = self.slo.objective_for(workload)
            if objective is not None:
                deadline_ms = objective.target_wall_ms
        if deadline_ms is not None:
            req.deadline_wall_s = time.perf_counter() + deadline_ms / 1e3
        return self._mint_trace(req)

    def _admit(self, req: Request, block: bool,
               timeout: Optional[float]) -> Request:
        # Count the request before the queue can hand it on: a retire
        # that ran first would cancel another request's count.
        with self._done_cv:
            self._outstanding += 1
        try:
            self.queue.submit(req, block=block, timeout=timeout)
        except (Backpressure, ShutDown):
            with self._done_cv:
                self._outstanding -= 1
                self._done_cv.notify_all()
            raise
        return req

    def _mint_trace(self, req: Request) -> Request:
        """Stamp a trace ID + empty span tree (recorder enabled only)."""
        if self.recorder is not None:
            req.trace_id = mint_trace_id()
            req.trace = RequestTrace(req.trace_id, workload=req.workload,
                                     request_id=req.id)
        return req

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request finished; True on success."""
        with self._done_cv:
            return self._done_cv.wait_for(
                lambda: self._outstanding == 0, timeout)

    # -- completion --------------------------------------------------------

    def _retire(self, req: Request) -> None:
        """Retire a finished request: SLO verdict, span tree into the
        flight recorder (auto-dumping what a postmortem will want:
        failure, SLO breach, sanitizer findings), the completed list,
        ``on_complete``, and the drain count."""
        if self.slo is not None:
            req.slo_breached = self.slo.observe_request(req)
        tr = req.trace
        if tr is not None and self.recorder is not None:
            where = {} if req.shard_index is None \
                else {"shard": req.shard_index}
            tr.finish(status=req.status.value, tier=req.tier,
                      latency_wall_ms=req.latency_wall_s * 1e3,
                      latency_sim_us=req.latency_sim_us,
                      error=req.error, slo_breached=req.slo_breached,
                      **where)
            self.recorder.record(tr)
            if req.status is RequestStatus.FAILED:
                self.recorder.dump(tr, DumpReason.ERROR,
                                   detail=req.error or "")
            elif req.slo_breached:
                self.recorder.dump(
                    tr, DumpReason.SLO_BREACH,
                    detail=f"latency {req.latency_wall_s * 1e3:.3f} ms "
                           f"(sim {req.latency_sim_us:.1f} us)")
            if req.sanitize_findings:
                self.recorder.dump(tr, DumpReason.SANITIZER,
                                   detail="; ".join(req.sanitize_findings))
        with self._completed_lock:
            self.completed.append(req)
        if self.on_complete is not None:
            try:
                self.on_complete(req)
            except Exception:  # noqa: BLE001 - shipping must not wedge drain
                pass
        with self._done_cv:
            self._outstanding -= 1
            self._done_cv.notify_all()

    # -- reporting ---------------------------------------------------------

    def export_traces(self, path_or_file) -> None:
        """Write every retained request tree as one Chrome-trace file."""
        if self.recorder is None:
            raise ValueError("flight recorder is disabled on this cluster")
        self.recorder.export_chrome(path_or_file)

    def report(self) -> Dict[str, Any]:
        """Aggregate serving statistics over everything completed so far."""
        with self._completed_lock:
            reqs = list(self.completed)
        done = [r for r in reqs if r.status is RequestStatus.DONE]
        wall_s = time.perf_counter() - self._t_start
        report: Dict[str, Any] = {}
        if self.slo is not None:
            report["slo"] = self.slo.snapshot()
        if self.recorder is not None:
            report["recorder"] = self.recorder.stats()
        report |= {
            "machines": sorted({m.name for m in self.machines}),
            "tuned": {
                "enabled": self.tuned is not None,
                "entries": len(self.tuned) if self.tuned is not None else 0,
            },
            "requests": {s.value: sum(1 for r in reqs if r.status is s)
                         for s in RequestStatus} | {"total": len(reqs)},
            "wall_elapsed_s": wall_s,
            "throughput_rps": len(done) / wall_s if wall_s > 0 else 0.0,
            "latency_wall_ms": percentiles(
                [r.latency_wall_s * 1e3 for r in done]),
            "latency_sim_us": percentiles(
                [r.latency_sim_us for r in done]),
            "sim": {
                "kernel_us": sum(r.kernel_sim_us for r in done),
                "launch_overhead_us": sum(r.overhead_sim_us for r in done),
                "dram_bytes": sum(r.dram_bytes for r in done),
                # Each device is a serial resource, so the makespan is
                # where the last served request left its device's clock.
                "horizon_us": max(map(sim_end_us, done), default=0.0),
            },
            "kernel_cache": cache_stats(sum(r.cache_hits for r in reqs),
                                        sum(r.cache_misses for r in reqs)),
        }
        self._report_topology(report, reqs, done)
        return report


class ServeCluster(FrontDoor):
    """A pool of simulated devices behind a scheduling front end."""

    def __init__(self, num_devices: int = 2,
                 machine: Union[MachineConfig,
                                Sequence[MachineConfig]] = GEN11_ICL,
                 tuned=None,
                 policy="round-robin",
                 batching: bool = True,
                 max_batch: int = 8,
                 queue_capacity: int = 512,
                 high_watermark: Optional[int] = None,
                 lanes: bool = False,
                 dispatch_window: int = 64,
                 batch_linger_s: float = 0.001,
                 obs=None,
                 validate: str = "first",
                 slo=None,
                 recorder=True,
                 recorder_capacity: int = 256,
                 dump_dir: Optional[str] = None) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if validate not in sanitize_mod.VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {sanitize_mod.VALIDATE_MODES}, "
                f"got {validate!r}")
        super().__init__(machine, tuned, queue_capacity, high_watermark,
                         lanes, obs, slo, recorder, recorder_capacity,
                         dump_dir)
        #: dispatch-gating mode for compiled launches: "first" race-checks
        #: each kernel's first launch per device on the JIT tier
        #: (certifying or refusing it), "always" sanitizes every launch
        #: sequentially, "off" trusts the kernel and always allows the
        #: JIT tier.
        self.validate = validate
        self.policy: Policy = make_policy(policy)
        self.batcher = DynamicBatcher(max_batch=max_batch, enabled=batching)
        self.dispatch_window = dispatch_window
        self.batch_linger_s = batch_linger_s
        # Device i simulates machines[i % len]; the tuned registry is
        # pre-seeded into each device's kernel cache at start().
        self.workers = [
            DeviceWorker(i, Device(self.machines[i % len(self.machines)],
                                   obs=self.obs), self)
            for i in range(num_devices)]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True)
        #: per-workload EMA of simulated service, for load estimates.
        self._service_est_us: Dict[str, float] = {}
        self._est_lock = threading.Lock()

        self._m_requests = {
            status: self.registry.counter("serve_requests",
                                          status=status.value)
            for status in RequestStatus
        }
        self._m_batches = self.registry.counter(
            "serve_batches", "batches dispatched")
        self._m_coalesced = self.registry.counter(
            "serve_coalesced_requests",
            "requests that rode a batch as non-head members")
        self._m_overhead = self.registry.counter(
            "serve_launch_overhead_sim_us",
            "simulated launch overhead charged across all requests")
        self._m_kernel = self.registry.counter(
            "serve_kernel_sim_us", "simulated kernel time served")

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> None:
        if self.tuned is not None:
            # Warm every device's kernel cache with its own machine's
            # tuned winners before the first request arrives.
            for w in self.workers:
                with w.lock:
                    self.tuned.preseed(w.device)
        for w in self.workers:
            w.start()
        self._dispatcher.start()

    def shutdown(self, wait: bool = True) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.queue.close()
        if self._started and wait:
            self._dispatcher.join()
            for w in self.workers:
                w.inbox.put(_SHUTDOWN)
            for w in self.workers:
                w.join()

    @property
    def num_devices(self) -> int:
        return len(self.workers)

    @property
    def devices(self) -> List[Device]:
        return [w.device for w in self.workers]

    # -- race-verdict sharing ----------------------------------------------

    def drain_race_verdicts(self) -> list:
        """(kernel name, RaceVerdict) pairs newly produced by this
        cluster's devices since the last drain.

        Lock-free (each device's drain is atomic pops), so the shard
        worker can call it from its completion callback while device
        threads keep running.
        """
        fresh = []
        for w in self.workers:
            fresh.extend(w.device.drain_race_verdicts())
        return fresh

    def adopt_race_verdicts(self, pairs) -> None:
        """Adopt (kernel name, RaceVerdict) pairs onto every device, so
        a kernel another cluster already sanitized is JIT-admitted here
        without a redundant sanitized first launch."""
        for w in self.workers:
            with w.lock:
                for kname, verdict in pairs:
                    w.device.adopt_race_verdict(kname, verdict)

    # -- dispatcher --------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            items = self.queue.take(max_items=self.dispatch_window,
                                    timeout=0.1)
            if not items:
                if self.queue.closed and not len(self.queue):
                    return
                continue
            if self.batcher.enabled and len(items) < self.dispatch_window \
                    and self.batch_linger_s > 0:
                # Linger briefly so near-simultaneous compatible requests
                # can coalesce instead of heading out as singletons.
                deadline = time.perf_counter() + self.batch_linger_s
                while len(items) < self.dispatch_window:
                    left = deadline - time.perf_counter()
                    if left <= 0:
                        break
                    more = self.queue.take(
                        max_items=self.dispatch_window - len(items),
                        timeout=left)
                    if not more:
                        break
                    items.extend(more)
            tracer = get_tracer()
            t_take = tracer.now_us()
            for req in items:
                if req.trace is not None and req.t_submit_wall is not None:
                    req.trace.record("queue_wait",
                                     tracer.to_us(req.t_submit_wall),
                                     t_take,
                                     depth=req.queue_depth_at_admit)
            work: List[WorkItem] = []
            for req in items:
                item = self._resolve(req)
                if item is not None:
                    work.append(item)
            t_form0 = tracer.now_us()
            batches = self.batcher.form(work)
            t_form1 = tracer.now_us()
            for batch in batches:
                idx = self.policy.select(batch, self.workers)
                batch.estimate_us = self._estimate_batch_us(batch)
                self.workers[idx].note_assigned(batch.estimate_us)
                self._m_batches.inc()
                if batch.size > 1:
                    self._m_coalesced.inc(batch.size - 1)
                t_sched = tracer.now_us()
                for pos, it in enumerate(batch.items):
                    tr = it.request.trace
                    if tr is None:
                        continue
                    tr.record("batch_assemble", t_form0, t_form1,
                              batch=batch.id, batch_size=batch.size,
                              position=pos)
                    tr.record("schedule", t_form1, t_sched,
                              policy=self.policy.name, device=idx)
                self.workers[idx].inbox.put(batch)

    def _resolve(self, req: Request) -> Optional[WorkItem]:
        try:
            wl = get_workload(req.workload)
            made = wl.make(req.params)
        except Exception as exc:  # noqa: BLE001 - bad request, not a crash
            req.finish(RequestStatus.FAILED, f"{type(exc).__name__}: {exc}")
            self._request_finished(req, None)
            return None
        if wl.kind == "compiled":
            return WorkItem(request=req, kind="compiled", launch=made)
        if wl.kind == "tuned":
            return WorkItem(request=req, kind="tuned", task=made)
        return WorkItem(request=req, kind="eager", runner=made)

    def _estimate_batch_us(self, batch: Batch) -> float:
        with self._est_lock:
            est = sum(self._service_est_us.get(it.request.workload, 0.0)
                      for it in batch.items)
        machine = self.workers[0].device.machine
        return est + machine.launch_overhead_us \
            + (batch.size - 1) * machine.pipelined_launch_us

    # -- completion callbacks (worker threads) -----------------------------

    def _request_finished(self, req: Request,
                          worker: Optional[DeviceWorker]) -> None:
        self._m_requests[req.status].inc()
        if req.status is RequestStatus.DONE:
            self._m_kernel.inc(req.kernel_sim_us)
            self._m_overhead.inc(req.overhead_sim_us)
            pname = self.policy.name
            self.registry.histogram(
                "serve_wait_wall_ms", buckets=_MS_BUCKETS,
                policy=pname).observe(req.wait_wall_s * 1e3)
            self.registry.histogram(
                "serve_latency_wall_ms", buckets=_MS_BUCKETS,
                policy=pname).observe(req.latency_wall_s * 1e3)
            self.registry.histogram(
                "serve_service_sim_us",
                policy=pname).observe(req.service_sim_us)
            self.registry.histogram(
                "serve_latency_sim_us",
                policy=pname).observe(req.latency_sim_us)
            with self._est_lock:
                prev = self._service_est_us.get(req.workload)
                sample = req.kernel_sim_us
                self._service_est_us[req.workload] = sample if prev is None \
                    else prev + 0.3 * (sample - prev)
        self._retire(req)

    def _batch_finished(self, batch: Batch, worker: DeviceWorker,
                        busy_us: float) -> None:
        self.registry.counter("serve_device_busy_sim_us",
                              device=worker.index).inc(busy_us)
        self.registry.counter("serve_device_requests",
                              device=worker.index).inc(batch.size)

    # -- reporting ---------------------------------------------------------

    def _report_topology(self, report: Dict[str, Any], reqs: List[Request],
                         done: List[Request]) -> None:
        horizon = report["sim"]["horizon_us"]
        total_busy = sum(w.busy_sim_us for w in self.workers)
        batches = sum(w.batches_done for w in self.workers)
        tiers, gate, variants = Counter(), Counter(), Counter()
        for w in self.workers:
            tiers.update(w.device.profile.tier_launches)
            gate.update(w.device.profile.gate_outcomes)
            variants.update(w.variants_served)
        report["tuned"]["variants_served"] = dict(variants)
        report["sim"] |= {
            "busy_us": total_busy,
            "batches": batches,
            "avg_batch": (len(done) / batches) if batches else 0.0,
        }
        report |= {
            "policy": self.policy.name,
            "devices": self.num_devices,
            "batching": self.batcher.enabled,
            "wait_wall_ms": percentiles(
                [r.wait_wall_s * 1e3 for r in done]),
            "service_sim_us": percentiles(
                [r.service_sim_us for r in done]),
            "tiers": dict(tiers),
            "sanitize_gate": dict(gate),
            "per_device": [
                {
                    "index": w.index,
                    "machine": w.device.machine.name,
                    "variants": dict(w.variants_served),
                    "requests": w.requests_done,
                    "batches": w.batches_done,
                    "busy_sim_us": w.busy_sim_us,
                    "utilization_sim": (w.busy_sim_us / horizon)
                    if horizon > 0 else 0.0,
                    "share_of_busy": (w.busy_sim_us / total_busy)
                    if total_busy > 0 else 0.0,
                }
                for w in self.workers
            ],
        }
