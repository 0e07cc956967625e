"""``repro.serve`` — the multi-device serving layer.

Quickstart::

    from repro.serve import ServeCluster

    with ServeCluster(num_devices=4, policy="cache-affinity") as cluster:
        req = cluster.submit("sgemm", {"m": 16, "n": 16, "k": 8})
        req.wait()
        print(req.status, req.latency_wall_s, cluster.report())

See ``docs/serving.md`` for the architecture, the scheduling policies,
dynamic-batching semantics and the backpressure contract, and
``python -m repro.serve.loadgen --help`` for the load generator.
"""

from repro.serve.autoscale import AutoscalePolicy, Autoscaler, ScaleEvent
from repro.serve.batcher import Batch, DynamicBatcher, WorkItem
from repro.serve.cluster import DeviceWorker, ServeCluster
from repro.serve.lanes import LANES, PriorityLaneQueue, normalize_lane
from repro.serve.pool import PayloadRef, SurfacePool
from repro.serve.queue import Backpressure, ShutDown, SubmissionQueue
from repro.serve.request import Request, RequestStatus, percentiles
from repro.serve.scheduler import (
    CacheAffinityPolicy, LeastLoadedPolicy, Policy, RoundRobinPolicy,
    make_policy, policy_names,
)
from repro.serve.shard import (
    CompleteMsg, ShardConfig, ShardedCluster, SubmitMsg,
)
from repro.serve.workloads import (
    KernelLaunch, ServeWorkload, get_workload, workload_keys,
)

__all__ = [
    "ServeCluster", "DeviceWorker",
    "ShardedCluster", "ShardConfig",
    "SubmitMsg", "CompleteMsg",
    "Request", "RequestStatus", "percentiles",
    "SubmissionQueue", "Backpressure", "ShutDown",
    "PriorityLaneQueue", "LANES", "normalize_lane",
    "SurfacePool", "PayloadRef",
    "Autoscaler", "AutoscalePolicy", "ScaleEvent",
    "DynamicBatcher", "Batch", "WorkItem",
    "Policy", "RoundRobinPolicy", "LeastLoadedPolicy",
    "CacheAffinityPolicy", "make_policy", "policy_names",
    "KernelLaunch", "ServeWorkload", "get_workload", "workload_keys",
]
