"""Request objects flowing through the serving layer.

A :class:`Request` names a workload (any key registered in
:mod:`repro.serve.workloads`) plus its parameters.  The cluster stamps
it as it moves through the pipeline — submitted, dispatched to a device,
completed — in two time domains:

- **wall clock** (``time.perf_counter``): what the Python worker threads
  actually took; this is the latency a caller of :meth:`ServeCluster.
  submit` observes.
- **simulated microseconds**: the analytic cost-model time the request
  occupied its device, including its share of launch overhead (one full
  driver overhead for a batch head, the pipelined gap for coalesced
  followers — the Figure 5 amortization effect, now applied across
  *requests* instead of enqueues).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

_ids = itertools.count()


class RequestStatus(Enum):
    PENDING = "pending"      # created, not yet admitted
    QUEUED = "queued"        # admitted into the submission queue
    RUNNING = "running"      # dispatched to a device worker
    DONE = "done"            # completed successfully
    REJECTED = "rejected"    # refused at admission (backpressure)
    FAILED = "failed"        # raised during execution


@dataclass
class Request:
    """One kernel-launch request."""

    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: optional arrival timestamp on the *simulated* timeline (set by the
    #: load generator's arrival process); None means "whenever the
    #: device is free" and charges zero simulated wait.
    arrival_sim_us: Optional[float] = None

    #: scheduling lane: ``"interactive"`` drains strictly before
    #: ``"batch"`` in a :class:`~repro.serve.lanes.PriorityLaneQueue`.
    lane: str = "interactive"
    #: absolute wall-clock deadline (``perf_counter`` seconds); lane
    #: queues order each lane earliest-deadline-first when set.
    deadline_wall_s: Optional[float] = None

    id: int = field(default_factory=lambda: next(_ids))
    status: RequestStatus = RequestStatus.PENDING
    error: Optional[str] = None
    result: Any = None

    # -- stamps filled in by the cluster ---------------------------------
    device_index: Optional[int] = None
    #: shard that served the request (sharded cluster only).
    shard_index: Optional[int] = None
    #: times this request was requeued after a shard death.
    requeues: int = 0
    #: output payload arrays, materialized from the shared-memory data
    #: plane when the request was submitted with ``payload=``.
    result_payload: Any = field(default=None, repr=False)
    batch_id: Optional[int] = None
    batch_size: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    launches: int = 0
    dram_bytes: int = 0
    #: end-to-end trace identity, minted at ``ServeCluster.submit``; the
    #: ``trace`` is the request's causal span tree
    #: (:class:`repro.obs.request.RequestTrace`), retained by the
    #: cluster's flight recorder after completion.
    trace_id: Optional[str] = None
    trace: Any = field(default=None, repr=False)
    #: dispatch tier the (last) launch took: ``sequential`` / ``jit``
    #: for compiled requests, ``eager`` otherwise (``tuned``
    #: for autotuned-workload requests).
    tier: Optional[str] = None
    #: label of the tuned variant that served this request (tuned
    #: workloads only) — e.g. ``"bm=8,bn=16,ktile=16"``; which label a
    #: request gets depends on the machine of the device it landed on.
    variant: Optional[str] = None
    #: queue depth observed at admission (queue_wait span label).
    queue_depth_at_admit: int = 0
    #: SLO verdict, stamped by the cluster's tracker at completion.
    slo_breached: bool = False
    #: sanitizer accounting for this request's launches.
    sanitized_launches: int = 0
    sanitize_findings: List[str] = field(default_factory=list)

    t_submit_wall: Optional[float] = None
    t_dispatch_wall: Optional[float] = None
    t_done_wall: Optional[float] = None

    #: simulated time the device started serving this request.
    start_sim_us: Optional[float] = None
    #: simulated kernel time of this request's launches.
    kernel_sim_us: float = 0.0
    #: simulated launch overhead charged to this request (full overhead
    #: for a batch head, pipelined gap for a coalesced follower).
    overhead_sim_us: float = 0.0

    done_event: threading.Event = field(default_factory=threading.Event,
                                        repr=False)

    # -- derived metrics --------------------------------------------------

    @property
    def service_sim_us(self) -> float:
        """Simulated device occupancy: overhead + kernel time."""
        return self.overhead_sim_us + self.kernel_sim_us

    @property
    def wait_sim_us(self) -> float:
        """Simulated queueing delay (0 when no arrival stamp was given)."""
        if self.arrival_sim_us is None or self.start_sim_us is None:
            return 0.0
        return max(0.0, self.start_sim_us - self.arrival_sim_us)

    @property
    def latency_sim_us(self) -> float:
        return self.wait_sim_us + self.service_sim_us

    @property
    def wait_wall_s(self) -> float:
        if self.t_submit_wall is None or self.t_dispatch_wall is None:
            return 0.0
        return self.t_dispatch_wall - self.t_submit_wall

    @property
    def latency_wall_s(self) -> float:
        if self.t_submit_wall is None or self.t_done_wall is None:
            return 0.0
        return self.t_done_wall - self.t_submit_wall

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request completes (or fails); True if it did."""
        return self.done_event.wait(timeout)

    def finish(self, status: RequestStatus, error: Optional[str] = None) -> None:
        self.status = status
        self.error = error
        self.done_event.set()


def percentiles(values, points=(50.0, 95.0, 99.0)) -> Dict[str, float]:
    """Nearest-rank percentiles as a ``{"p50": ...}`` dict (plus mean/max)."""
    vals = sorted(values)
    out: Dict[str, float] = {}
    if not vals:
        return {f"p{int(p) if float(p).is_integer() else p}": 0.0
                for p in points} | {"mean": 0.0, "max": 0.0}
    for p in points:
        rank = max(0, min(len(vals) - 1, int(round(p / 100.0 * len(vals))) - 1))
        key = f"p{int(p) if float(p).is_integer() else p}"
        out[key] = vals[rank]
    out["mean"] = sum(vals) / len(vals)
    out["max"] = vals[-1]
    return out
