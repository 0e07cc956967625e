"""Multi-process sharded serving: N worker processes, one front door.

:class:`ServeCluster` scales across threads, but every device worker
still shares one GIL — compiled-kernel serving is Python-bound, so a
single process flattens out long before the machine does.  The
:class:`ShardedCluster` breaks that ceiling::

    submit() -> PriorityLaneQueue -> _route_ready() -> shard 0..N-1
                 (lanes + EDF +        (affinity routing   (one process,
                  backpressure)         on admission and    own ServeCluster)
                                        on completion)

- Each **shard** is a real OS process running its own inner
  :class:`~repro.serve.cluster.ServeCluster` — its own Device set,
  kernel/verdict caches, dynamic batcher, and sanitizer state.  Shards
  never share a GIL, so throughput scales with shard count.
- The **control plane** is pickle-cheap: :class:`SubmitMsg` /
  :class:`CompleteMsg` dataclasses over per-shard
  ``multiprocessing.Queue`` pairs (a dedicated outbox per shard, so a
  shard dying mid-write can never wedge a queue another shard shares).
- The **data plane** is out of band: request payload arrays ride a
  :class:`~repro.serve.pool.SurfacePool` shared-memory slab, mapped
  zero-copy into numpy on both sides; only a few-dozen-byte
  :class:`~repro.serve.pool.PayloadRef` crosses the pipe.
- **Priority lanes**: the front door is a
  :class:`~repro.serve.lanes.PriorityLaneQueue` (interactive drains
  strictly before batch, EDF within a lane), and each inner cluster
  runs one too, so lane ordering holds end to end.  Deadlines default
  from the parent's SLO targets.
- **Cache-affinity routing**: requests hash to shards by kernel
  identity (workload + shape parameters, data seed excluded), so a
  repeated kernel always lands where its compile cache is warm.
- **Autoscaling**: a monitor thread samples backlog and SLO burn rate
  into an :class:`~repro.serve.autoscale.Autoscaler`; scale-up forks a
  new shard, scale-down *drains* one (stop routing, wait for its
  in-flight work, then stop it) — no request is dropped by scaling.
- **Death recovery**: the monitor detects a dead shard process and
  requeues its in-flight requests to survivors.  A completion or a
  requeue counts only while its request is still in flight (request
  ids are never reused), so a request whose completion raced the death
  is never double-completed, and ``Request.requeues`` bounds retries.

The admission, retire and common report steps are
:class:`~repro.serve.cluster.FrontDoor`'s, shared with
:class:`ServeCluster`; this module adds only the topology.

Observability crosses the boundary: workers mint trace IDs under a
per-shard scope (:func:`~repro.obs.request.set_trace_scope`), ship
their span trees in each completion, and the parent grafts them under
a ``shard`` span in its own trace (:meth:`~repro.obs.request.
RequestTrace.graft`) — so the flight recorder and SLO tracker keep
working as if the cluster were one process.  Each completion also
carries the request's simulated start on its shard device, so
``report()`` — the cluster horizon and every ``per_shard`` entry
included — is derived from completions alone, with no round trip to
the shards.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing as mp
import queue as _stdqueue
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.request import set_trace_scope
from repro.obs.tracing import get_tracer
from repro.sim.machine import GEN11_ICL, MachineConfig

from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.cluster import FrontDoor, ServeCluster, cache_stats, \
    sim_end_us
from repro.serve.pool import PayloadRef, SurfacePool
from repro.serve.request import Request, RequestStatus, percentiles

#: Control-plane sentinels (strings survive pickling; object identity
#: would not).
_STOP = "__stop__"
_BYE = "__bye__"

#: How often a request may be requeued off a dead shard before it fails.
MAX_REQUEUES = 2

#: Start method: fork is cheap and keeps MachineConfig / registry state
#: without re-import; spawn is the portable fallback.
_CTX = mp.get_context(
    "fork" if "fork" in mp.get_all_start_methods() else "spawn")


@dataclass(frozen=True)
class ShardConfig:
    """What every shard worker process builds its inner cluster from."""

    devices_per_shard: int = 2
    policy: str = "cache-affinity"
    batching: bool = True
    max_batch: int = 8
    queue_capacity: int = 512
    validate: str = "first"
    #: serialize each request's span tree into its completion message
    #: (cheap to turn off for raw-throughput runs).
    ship_traces: bool = True
    machine: MachineConfig = GEN11_ICL
    #: tuned-variant registry (TunedRegistry) handed to the inner
    #: cluster, so each shard serves its own machine's tuned winners.
    tuned: Any = None


@dataclass
class SubmitMsg:
    """Parent -> shard: one request, payload carried by reference."""

    origin_id: int
    workload: str
    params: Dict[str, Any]
    lane: str = "interactive"
    #: deadline as *remaining* milliseconds at route time (absolute
    #: wall stamps do not survive a process boundary).
    deadline_ms: Optional[float] = None
    arrival_sim_us: Optional[float] = None
    payload_ref: Optional[PayloadRef] = None
    #: pickle fallback when the pool had no slot for the payload.
    payload_arrays: Optional[Dict[str, Any]] = None


@dataclass
class CompleteMsg:
    """Shard -> parent: one finished request, traces included."""

    shard: int
    origin_id: int
    status: str
    error: Optional[str] = None
    result: Any = None
    kernel_sim_us: float = 0.0
    overhead_sim_us: float = 0.0
    dram_bytes: int = 0
    launches: int = 0
    tier: Optional[str] = None
    #: where the request started on its shard device's simulated clock.
    start_sim_us: Optional[float] = None
    #: tuned-variant label the serving device resolved (tuned requests).
    variant: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    device_index: Optional[int] = None
    batch_id: Optional[int] = None
    batch_size: int = 1
    #: worker-side queue wait, in the worker's own wall clock.
    wait_wall_s: float = 0.0
    sanitized_launches: int = 0
    sanitize_findings: List[str] = field(default_factory=list)
    #: the worker's RequestTrace.to_dict() form, when shipped.
    trace: Optional[Dict[str, Any]] = None
    #: pickle-fallback output arrays (shared-memory payloads return
    #: through the pool pages instead).
    payload_out: Optional[Dict[str, Any]] = None
    #: (kernel name, RaceVerdict) pairs this shard's sanitized launches
    #: produced since the last completion; the parent rebroadcasts them
    #: so a kernel sanitized once is JIT-admitted on every shard.
    race_verdicts: List[Tuple[str, Any]] = field(default_factory=list)


#: CompleteMsg fields copied from the worker's Request onto the
#: parent's, under the same names.
_SHIPPED = ("result", "kernel_sim_us", "overhead_sim_us", "dram_bytes",
            "launches", "tier", "start_sim_us", "variant", "cache_hits",
            "cache_misses", "device_index", "batch_id", "batch_size",
            "sanitized_launches", "sanitize_findings")


@dataclass
class VerdictMsg:
    """Parent -> shard: adopt race verdicts sanitized elsewhere."""

    verdicts: List[Tuple[str, Any]] = field(default_factory=list)


def _shard_main(shard_index: int, cfg: ShardConfig, inbox, outbox,
                pool_name: Optional[str], pool_slots: int,
                pool_slot_bytes: int) -> None:
    """Worker-process entry: run one inner cluster off the inbox."""
    set_trace_scope(f"s{shard_index}")
    pool = SurfacePool.attach(pool_name, pool_slots, pool_slot_bytes) \
        if pool_name else None
    cluster = ServeCluster(
        num_devices=cfg.devices_per_shard, machine=cfg.machine,
        tuned=cfg.tuned,
        policy=cfg.policy, batching=cfg.batching, max_batch=cfg.max_batch,
        queue_capacity=cfg.queue_capacity, validate=cfg.validate,
        lanes=True, slo=None, recorder=cfg.ship_traces)

    def ship(req: Request) -> None:
        trace_dict = None
        if cfg.ship_traces and req.trace is not None:
            trace_dict = req.trace.to_dict()
        payload_out = None
        if req.params.get("_payload_pickled"):
            payload = req.params.get("_payload")
            if payload:
                payload_out = {k: np.asarray(v) for k, v in payload.items()}
        outbox.put(CompleteMsg(
            shard=shard_index,
            origin_id=req.params.get("_origin_id", req.id),
            status=req.status.value, error=req.error,
            wait_wall_s=req.wait_wall_s,
            trace=trace_dict, payload_out=payload_out,
            race_verdicts=cluster.drain_race_verdicts(),
            **{name: getattr(req, name) for name in _SHIPPED}))

    cluster.on_complete = ship
    cluster.start()
    try:
        while True:
            item = inbox.get()
            if item == _STOP:
                break
            if isinstance(item, VerdictMsg):
                cluster.adopt_race_verdicts(item.verdicts)
                continue
            for sub in item:
                params = dict(sub.params)
                params["_origin_id"] = sub.origin_id
                if sub.payload_ref is not None and pool is not None:
                    params["_payload"] = pool.map(sub.payload_ref)
                elif sub.payload_arrays is not None:
                    params["_payload"] = sub.payload_arrays
                    params["_payload_pickled"] = True
                try:
                    cluster.submit(sub.workload, params, lane=sub.lane,
                                   deadline_ms=sub.deadline_ms,
                                   arrival_sim_us=sub.arrival_sim_us,
                                   block=True)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    outbox.put(CompleteMsg(
                        shard=shard_index, origin_id=sub.origin_id,
                        status=RequestStatus.FAILED.value,
                        error=f"{type(exc).__name__}: {exc}"))
        cluster.drain(timeout=60.0)
    finally:
        cluster.shutdown()
        try:
            outbox.put(_BYE)
        except Exception:  # noqa: BLE001 - parent may already be gone
            pass
        if pool is not None:
            pool.close()


class _Shard:
    """Parent-side handle for one worker process."""

    def __init__(self, index: int, proc, inbox, outbox) -> None:
        self.index = index
        self.proc = proc
        self.inbox = inbox
        self.outbox = outbox
        self.pump: Optional[threading.Thread] = None
        #: "active" (routed to); "draining" (scale-down: no new work,
        #: stopped once idle); "stopping" (_STOP sent); "stopped" (the
        #: worker said _BYE); "dead" (gone without one).
        self.state = "active"
        self.routed = 0
        #: name of the MachineConfig this shard's devices simulate.
        self.machine_name: Optional[str] = None
        #: tallied from this shard's completions (pump thread, under the
        #: cluster's shards lock).
        self.requests_done = 0
        self.horizon_us = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.tiers: Dict[str, int] = {}

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def tally(self, req: Request) -> None:
        self.requests_done += 1
        self.cache_hits += req.cache_hits
        self.cache_misses += req.cache_misses
        if req.status is RequestStatus.DONE:
            self.horizon_us = max(self.horizon_us, sim_end_us(req))
            if req.tier:
                self.tiers[req.tier] = self.tiers.get(req.tier, 0) + 1

    def describe(self, inflight: int) -> Dict[str, Any]:
        return {
            "index": self.index,
            "pid": self.proc.pid,
            "machine": self.machine_name,
            "state": self.state,
            "alive": self.alive,
            "routed": self.routed,
            "requests_done": self.requests_done,
            "inflight": inflight,
            "horizon_us": self.horizon_us,
            "kernel_cache": cache_stats(self.cache_hits, self.cache_misses),
            "tiers": dict(self.tiers),
        }


class ShardedCluster(FrontDoor):
    """N shard processes behind one lane-aware, autoscaled front door."""

    def __init__(self, shards: int = 2,
                 devices_per_shard: int = 2,
                 machine=GEN11_ICL,
                 tuned=None,
                 policy: str = "cache-affinity",
                 routing: str = "affinity",
                 batching: bool = True,
                 max_batch: int = 8,
                 queue_capacity: int = 1024,
                 high_watermark: Optional[int] = None,
                 shard_queue_capacity: int = 512,
                 validate: str = "first",
                 ship_traces: bool = True,
                 slo=None,
                 recorder=True,
                 recorder_capacity: int = 512,
                 dump_dir: Optional[str] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 pool_slots: int = 64,
                 pool_slot_bytes: int = 1 << 16,
                 shard_inflight: Optional[int] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if routing not in ("affinity", "round-robin"):
            raise ValueError("routing must be 'affinity' or 'round-robin'")
        # Shard i simulates machines[i % len]: a heterogeneous fleet
        # behind one front door.
        super().__init__(machine, tuned, queue_capacity, high_watermark,
                         lanes=True, obs=None, slo=slo, recorder=recorder,
                         recorder_capacity=recorder_capacity,
                         dump_dir=dump_dir)
        self.routing = routing
        #: per-shard forwarded-but-incomplete cap.  Once the active
        #: shards hold this much each, routing stops draining the front
        #: door, so under overload the backlog waits in the parent's
        #: PriorityLaneQueue — where interactive preempts batch and EDF
        #: acts — instead of in a FIFO process pipe where nothing can
        #: reorder it.  Large enough to keep every device busy through
        #: a full dispatch window.
        self.shard_inflight = shard_inflight if shard_inflight is not None \
            else max(16, 2 * devices_per_shard * max_batch)
        self.initial_shards = shards
        self.cfg = ShardConfig(
            devices_per_shard=devices_per_shard, policy=policy,
            batching=batching, max_batch=max_batch,
            queue_capacity=shard_queue_capacity, validate=validate,
            ship_traces=ship_traces, machine=self.machines[0],
            tuned=self.tuned)
        self.pool = SurfacePool(slots=pool_slots, slot_bytes=pool_slot_bytes)
        self.autoscaler = Autoscaler(autoscale) if autoscale else None

        self._shards: Dict[int, _Shard] = {}
        self._shards_lock = threading.RLock()
        self._shard_ids = itertools.count()
        self._rr = itertools.count()
        #: origin_id -> (request, its SubmitMsg, shard it was routed
        #: to).  Ids are never reused and an entry is made before its
        #: message is sent, so a completion or requeue counts only
        #: while its id is still here.
        self._inflight: Dict[int, Tuple[Request, SubmitMsg, int]] = {}
        #: guards _inflight and the whole routing step, so concurrent
        #: callers never overrun the in-flight budget.
        self._state_lock = threading.Lock()
        #: kernel name -> RaceVerdict: every verdict any shard has
        #: produced (first one sticks — the sanitize is deterministic).
        #: Rebroadcast to live shards on arrival; new shards get the
        #: full set at spawn, so scale-up never re-sanitizes a kernel.
        self._verdicts: Dict[str, Any] = {}
        self._verdicts_lock = threading.Lock()
        #: control-plane accounting (report "control" section).
        self.duplicates_dropped = 0
        self.requeued = 0
        self.shard_deaths = 0
        self.verdicts_broadcast = 0

        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="shard-monitor", daemon=True)
        self._stop_event = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> None:
        for _ in range(self.initial_shards):
            self._spawn_shard()
        self._monitor.start()

    def _spawn_shard(self) -> _Shard:
        index = next(self._shard_ids)
        inbox = _CTX.Queue()
        outbox = _CTX.Queue()
        machine = self.machines[index % len(self.machines)]
        cfg = self.cfg if machine is self.cfg.machine \
            else dataclasses.replace(self.cfg, machine=machine)
        proc = _CTX.Process(
            target=_shard_main,
            args=(index, cfg, inbox, outbox, self.pool.name,
                  self.pool.slots, self.pool.slot_bytes),
            name=f"serve-shard{index}", daemon=True)
        proc.start()
        shard = _Shard(index, proc, inbox, outbox)
        shard.machine_name = machine.name
        shard.pump = threading.Thread(target=self._pump_loop, args=(shard,),
                                      name=f"shard-pump{index}", daemon=True)
        with self._verdicts_lock:
            seed = list(self._verdicts.items())
        if seed:
            try:
                inbox.put(VerdictMsg(seed))
            except Exception:  # noqa: BLE001 - monitor will notice a death
                pass
        with self._shards_lock:
            self._shards[index] = shard
        shard.pump.start()
        self._route_ready()
        return shard

    def _active_shards(self) -> List[_Shard]:
        with self._shards_lock:
            return [s for s in self._shards.values()
                    if s.state == "active" and s.alive]

    @property
    def num_shards(self) -> int:
        return len(self._active_shards())

    def shutdown(self, wait: bool = True, drain_timeout: float = 60.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.queue.close()
        self._stop_event.set()
        if self._started and wait:
            self._route_ready()  # with no shard left, fail the backlog
            self.drain(timeout=drain_timeout)
            self._monitor.join(timeout=10.0)
            with self._shards_lock:
                shards = list(self._shards.values())
            for shard in shards:
                if shard.alive and shard.state in ("active", "draining"):
                    shard.state = "stopping"
                    try:
                        shard.inbox.put(_STOP)
                    except Exception:  # noqa: BLE001 - already torn down
                        pass
            for shard in shards:
                shard.proc.join(timeout=10.0)
                if shard.alive:
                    shard.proc.terminate()
                    shard.proc.join(timeout=5.0)
            for shard in shards:
                if shard.pump is not None:
                    shard.pump.join(timeout=5.0)
                if shard.state != "stopped":
                    shard.state = "dead"
                for q in (shard.inbox, shard.outbox):
                    try:
                        q.cancel_join_thread()
                        q.close()
                    except Exception:  # noqa: BLE001 - teardown races
                        pass
        self.pool.close()

    # -- submission --------------------------------------------------------

    def submit(self, workload: str, params: Optional[Dict[str, Any]] = None,
               arrival_sim_us: Optional[float] = None,
               lane: str = "interactive",
               deadline_ms: Optional[float] = None,
               payload: Optional[Dict[str, Any]] = None,
               block: bool = False,
               timeout: Optional[float] = None) -> Request:
        """Admit one request into the sharded front door.

        ``payload`` maps names to numpy arrays carried out of band in
        the shared-memory pool (falling back to pickling when no slot
        fits); outputs come back on ``Request.result_payload``.
        """
        req = self._new_request(workload, params, arrival_sim_us, lane,
                                deadline_ms)
        payload_ref = payload_arrays = None
        if payload:
            arrays = {k: np.asarray(v) for k, v in payload.items()}
            payload_ref = self.pool.put(arrays)
            if payload_ref is None:
                payload_arrays = arrays
        req._payload_ref = payload_ref  # noqa: SLF001 - parent-side stash
        req._payload_arrays = payload_arrays  # noqa: SLF001
        try:
            self._admit(req, block, timeout)
        except Exception:
            self._release_payload(req)
            raise
        self._route_ready()
        return req

    def _release_payload(self, req: Request) -> None:
        ref = getattr(req, "_payload_ref", None)
        if ref is not None:
            self.pool.release(ref)

    # -- routing -----------------------------------------------------------

    @staticmethod
    def route_key(workload: str, params: Dict[str, Any]) -> tuple:
        """Kernel identity for affinity routing: workload plus shape
        parameters; the data ``seed`` and internal keys are excluded so
        repeats of the same kernel stay on one shard's warm caches."""
        shape = tuple(sorted(
            (k, repr(v)) for k, v in params.items()
            if k != "seed" and not k.startswith("_")))
        return (workload,) + shape

    def _route(self, req: Request, active: List[_Shard]) -> _Shard:
        if self.routing == "affinity":
            digest = zlib.crc32(repr(
                self.route_key(req.workload, req.params)).encode())
            return active[digest % len(active)]
        return active[next(self._rr) % len(active)]

    def _to_msg(self, req: Request) -> SubmitMsg:
        deadline_ms = None
        if req.deadline_wall_s is not None:
            deadline_ms = max(
                0.0, (req.deadline_wall_s - time.perf_counter()) * 1e3)
        return SubmitMsg(
            origin_id=req.id, workload=req.workload, params=dict(req.params),
            lane=req.lane, deadline_ms=deadline_ms,
            arrival_sim_us=req.arrival_sim_us,
            payload_ref=getattr(req, "_payload_ref", None),
            payload_arrays=getattr(req, "_payload_arrays", None))

    def _route_ready(self) -> None:
        """Forward queued requests to the active shards, up to the
        in-flight budget.

        Runs wherever that budget or the queue can change: after an
        admission, a completion, a requeue and a spawn.  What the
        budget leaves waits in the parent's lane queue, where lane
        priority and EDF still order it.  With no active shard the
        monitor restores the floor and its spawn routes; after
        shutdown nobody will, so the backlog fails instead.
        """
        with self._state_lock:
            active = self._active_shards()
            if active:
                budget = self.shard_inflight * len(active) \
                    - len(self._inflight)
            elif self._stop_event.is_set():
                budget = len(self.queue)
            else:
                return
            items = self.queue.take(max_items=budget, timeout=0) \
                if budget > 0 else []
            if active:
                self._forward(items, active)
        if not active:
            for req in items:
                req.finish(RequestStatus.FAILED, "no shard available")
                self._release_payload(req)
                self._retire(req)

    def _forward(self, items: List[Request], active: List[_Shard]) -> None:
        """Route ``items`` and send one message list per shard (under
        ``_state_lock``)."""
        tracer = get_tracer()
        t_route = tracer.now_us()
        batches: Dict[_Shard, List[SubmitMsg]] = {}
        for req in items:
            shard = self._route(req, active)
            msg = self._to_msg(req)
            req.shard_index = shard.index
            if req.trace is not None and req.t_submit_wall is not None:
                req.trace.record("queue_wait",
                                 tracer.to_us(req.t_submit_wall),
                                 t_route, depth=req.queue_depth_at_admit,
                                 lane=req.lane)
                req.trace.record("route", t_route, tracer.now_us(),
                                 shard=shard.index, routing=self.routing)
            self._inflight[req.id] = (req, msg, shard.index)
            shard.routed += 1
            batches.setdefault(shard, []).append(msg)
        for shard, msgs in batches.items():
            try:
                shard.inbox.put(msgs)
            except Exception:  # noqa: BLE001 - death recovery requeues
                pass

    # -- completion (pump threads) -----------------------------------------

    def _pump_loop(self, shard: _Shard) -> None:
        while True:
            try:
                msg = shard.outbox.get(timeout=0.25)
            except _stdqueue.Empty:
                if not shard.alive:
                    return
                continue
            except (EOFError, OSError):
                return
            if msg == _BYE:
                shard.state = "stopped"
                shard.proc.join(timeout=5.0)
                return
            self._complete(msg)

    def _adopt_verdicts(self, pairs, from_shard: int) -> None:
        """Record shard-produced race verdicts and rebroadcast the new
        ones so every shard (including the origin's peer devices) admits
        the kernel to the JIT tier without its own sanitized launch."""
        fresh = []
        with self._verdicts_lock:
            for kname, verdict in pairs:
                if kname in self._verdicts:
                    continue
                self._verdicts[kname] = verdict
                fresh.append((kname, verdict))
            self.verdicts_broadcast += len(fresh)
        if not fresh:
            return
        with self._shards_lock:
            shards = [s for s in self._shards.values()
                      if s.alive and s.state in ("active", "draining")]
        for shard in shards:
            try:
                shard.inbox.put(VerdictMsg(fresh))
            except Exception:  # noqa: BLE001 - spawn-seeding covers respawns
                pass

    def _complete(self, msg: CompleteMsg) -> None:
        if msg.race_verdicts:
            # adopt before the duplicate check: a verdict that rode a
            # duplicated completion is still news.
            self._adopt_verdicts(msg.race_verdicts, msg.shard)
        with self._state_lock:
            entry = self._inflight.pop(msg.origin_id, None)
            if entry is None:
                self.duplicates_dropped += 1
                return
        self._route_ready()
        req, sub, _ = entry
        req.shard_index = msg.shard
        for name in _SHIPPED:
            setattr(req, name, getattr(msg, name))
        now = time.perf_counter()
        req.t_done_wall = now
        if req.t_submit_wall is not None:
            req.t_dispatch_wall = min(
                now, req.t_submit_wall + msg.wait_wall_s)
        if sub.payload_ref is not None:
            views = self.pool.map(sub.payload_ref)
            req.result_payload = {k: np.array(v) for k, v in views.items()}
            self.pool.release(sub.payload_ref)
        elif msg.payload_out is not None:
            req.result_payload = msg.payload_out
        if msg.trace is not None and req.trace is not None:
            req.trace.graft(msg.trace, name="shard", shard=msg.shard)
        req.finish(RequestStatus(msg.status), msg.error)
        with self._shards_lock:
            owner = self._shards.get(msg.shard)
            if owner is not None:
                owner.tally(req)
        self._retire(req)

    # -- monitor: liveness, drain completion, autoscale --------------------

    def _monitor_loop(self) -> None:
        interval = (self.autoscaler.policy.interval_s
                    if self.autoscaler else 0.05)
        while not self._stop_event.wait(interval):
            with self._shards_lock:
                shards = list(self._shards.values())
            for shard in shards:
                if shard.state not in ("stopped", "dead") \
                        and not shard.alive:
                    self._on_shard_death(shard)
                elif shard.state == "draining" \
                        and self._inflight_count(shard.index) == 0:
                    shard.state = "stopping"
                    try:
                        shard.inbox.put(_STOP)
                    except Exception:  # noqa: BLE001
                        pass
            if self.autoscaler is not None:
                self._autoscale_tick()
            elif not self._active_shards() and not self._stop_event.is_set():
                # No autoscaler: still restore the single-shard floor
                # after a death so requeued work has somewhere to go.
                self._spawn_shard()

    def _inflight_count(self, shard_index: int) -> int:
        with self._state_lock:
            return sum(1 for _, _, idx in self._inflight.values()
                       if idx == shard_index)

    def _autoscale_tick(self) -> None:
        scaler = self.autoscaler
        now = time.perf_counter() - self._t_start
        active = self._active_shards()
        with self._state_lock:
            inflight = len(self._inflight)
        backlog = len(self.queue) + inflight
        burn = 0.0
        if self.slo is not None:
            burn = self.slo.snapshot()["overall"]["max_burn_rate"]
        decision = scaler.decide(now, len(active), backlog, burn)
        if decision == 0:
            return
        reason = scaler.reason_for(decision, len(active), backlog, burn)
        if decision > 0:
            self._spawn_shard()
            scaler.note(now, "up", len(active), len(active) + 1, reason)
        else:
            victim = min(active,
                         key=lambda s: (self._inflight_count(s.index),
                                        -s.index))
            victim.state = "draining"
            scaler.note(now, "down", len(active), len(active) - 1, reason)

    def _on_shard_death(self, shard: _Shard) -> None:
        """Requeue a dead shard's in-flight requests to survivors."""
        shard.state = "dead"
        self.shard_deaths += 1
        shard.proc.join(timeout=1.0)
        with self._state_lock:
            victims = [oid for oid, (_, _, idx) in self._inflight.items()
                       if idx == shard.index]
        if not victims:
            return
        active = self._active_shards()
        if not active:
            active = [self._spawn_shard()]
        for oid in victims:
            with self._state_lock:
                entry = self._inflight.pop(oid, None)
                if entry is None:
                    continue  # its completion raced the death: keep it
                req, sub, _ = entry
                req.requeues += 1
                if req.requeues <= MAX_REQUEUES:
                    target = self._route(req, active)
                    self._inflight[oid] = (req, sub, target.index)
                    self.requeued += 1
                    target.routed += 1
            if req.requeues > MAX_REQUEUES:
                req.finish(RequestStatus.FAILED,
                           f"shard {shard.index} died; requeue budget "
                           f"({MAX_REQUEUES}) exhausted")
                self._release_payload(req)
                self._retire(req)
                continue
            req.shard_index = target.index
            if req.trace is not None:
                t = get_tracer().now_us()
                req.trace.record("requeue", t, t, dead_shard=shard.index,
                                 shard=target.index, attempt=req.requeues)
            try:
                target.inbox.put([sub])
            except Exception:  # noqa: BLE001 - next death sweep retries
                pass
        self._route_ready()

    # -- reporting ---------------------------------------------------------

    def _report_topology(self, report: Dict[str, Any], reqs: List[Request],
                         done: List[Request]) -> None:
        """Per-shard, lane, pool, control and autoscale sections, all
        tallied from the completions the pumps already received."""
        lanes: Dict[str, Any] = {}
        for lane in ("interactive", "batch"):
            sub = [r for r in reqs if r.lane == lane]
            sub_done = [r for r in sub if r.status is RequestStatus.DONE]
            breached = sum(1 for r in sub if r.slo_breached)
            lanes[lane] = {
                "requests": len(sub),
                "done": len(sub_done),
                "slo_breaches": breached,
                "slo_attainment": (1.0 - breached / len(sub)) if sub else 1.0,
                "latency_wall_ms": percentiles(
                    [r.latency_wall_s * 1e3 for r in sub_done]),
            }
        with self._state_lock:
            inflight = Counter(idx for _, _, idx in self._inflight.values())
        with self._shards_lock:
            shards = sorted(self._shards.values(), key=lambda s: s.index)
            per_shard = [s.describe(inflight[s.index]) for s in shards]
        # Which tuned variant served each request, split by the machine
        # of the shard that ran it — the heterogeneity evidence.
        machine_of = {s.index: s.machine_name for s in shards}
        variants_by_machine: Dict[str, Dict[str, int]] = {}
        for r in done:
            if r.variant is None:
                continue
            mname = machine_of.get(r.shard_index) or "?"
            per = variants_by_machine.setdefault(mname, {})
            key = f"{r.workload}:{r.variant}"
            per[key] = per.get(key, 0) + 1
        report["tuned"]["variants_by_machine"] = variants_by_machine
        if self.autoscaler is not None:
            report["autoscale"] = self.autoscaler.snapshot()
        report |= {
            "shards": len(shards),
            "active_shards": len(self._active_shards()),
            "devices_per_shard": self.cfg.devices_per_shard,
            "policy": self.cfg.policy,
            "routing": self.routing,
            "tiers": dict(Counter(r.tier for r in done if r.tier)),
            "lanes": lanes | {"queue_depths": self.queue.lane_depths()},
            "per_shard": per_shard,
            "pool": self.pool.stats(),
            "control": {
                "duplicates_dropped": self.duplicates_dropped,
                "requeued": self.requeued,
                "shard_deaths": self.shard_deaths,
                "requeue_budget": MAX_REQUEUES,
                "verdicts_known": len(self._verdicts),
                "verdicts_broadcast": self.verdicts_broadcast,
            },
        }
