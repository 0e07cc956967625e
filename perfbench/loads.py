"""The three workloads: their menus, set-up, and how load is driven.

Every workload draws its ops from a fixed menu.  A seed shuffles the
menu in blocks (each block holds every entry ``weight`` times), so the
op mix is the same for every seed and only the order and the input data
change.  Serve workloads drive a closed loop of one client thread per
CPU, each waiting for its reply before sending the next op; the cold
workload runs one op at a time on a single thread.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
import multiprocessing
import os
import resource
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.obs import RequestTrace
from repro.serve import (
    RequestStatus, ServeCluster, ShardedCluster, get_workload,
)
from repro.serve.loadgen import _MIXES
from repro.sim.device import Device
from repro.tune.workloads import get_tunable

CPUS = len(os.sched_getaffinity(0))
#: Devices of the in-process cluster (the workload's shape, not the host's).
DEVICES = 2
#: Shard processes: one per CPU the parent's router, pump and client
#: threads leave free.  With one per CPU on a 2-CPU host the three busy
#: processes oversubscribed it: the same throughput, but a 10-15%
#: run-to-run spread instead of 6-7%.
SHARDS = max(1, CPUS - 1)
#: Longest a single op may take before the benchmark calls it failed.
WAIT_S = 60.0
#: Peak RSS is read once this many menu blocks per client have completed
#: (within the first round of a serve workload).  The program keeps every
#: completed request, so memory read at the end of a timed phase would
#: grow with throughput; a fixed amount of work keeps the two apart.
RSS_BLOCKS = 5


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


class SimDrift(BenchError):
    """Simulated kernel time of one menu entry was not reproducible."""


@dataclass(frozen=True)
class Entry:
    """One menu item: a serve workload (``kind="serve"``) or one variant
    point of an autotuner family (``kind="tune"``)."""

    kind: str
    key: str
    #: serve request parameters, or the tune family's problem.
    params: Tuple[Tuple[str, int], ...]
    point: Tuple[Tuple[str, int], ...] = ()
    weight: int = 1

    @property
    def label(self) -> str:
        parts = ",".join(f"{k}={v}" for k, v in self.params + self.point)
        return f"{self.key}({parts})"

    def serve_params(self, seed: int) -> Dict[str, int]:
        return dict(self.params, seed=seed)


def serve(key: str, weight: int = 1, **params: int) -> Entry:
    return Entry("serve", key, tuple(sorted(params.items())), weight=weight)


def tune(family: str, problem: Dict[str, int],
         point: Dict[str, int]) -> Entry:
    return Entry("tune", family, tuple(sorted(problem.items())),
                 tuple(sorted(point.items())))


@dataclass(frozen=True)
class Workload:
    """A named menu plus the way load is driven; BENCHMARK.json and
    README.md record why each workload exists."""

    name: str
    #: "cluster" (in-process ServeCluster), "sharded" or "cold".
    mode: str
    entries: Tuple[Entry, ...]


def loadgen_mix(mix: str) -> Tuple[Entry, ...]:
    """One of loadgen's mixes as a menu with integer weights.

    loadgen draws a kernel by its weight, then one of its parameter sets
    uniformly, so each parameter set's share is the kernel's weight over
    the number of sets; the smallest integers in those ratios are the
    entries' weights."""
    shares = [(key, params, Fraction(str(weight)) / len(variants))
              for key, variants, weight in _MIXES[mix] for params in variants]
    scale = math.lcm(*(share.denominator for _, _, share in shares))
    ints = [int(share * scale) for _, _, share in shares]
    common = math.gcd(*ints)
    return tuple(serve(key, n // common, **params)
                 for (key, params, _), n in zip(shares, ints))


#: loadgen's ``shard`` mix: straight-line kernels, JIT tier after warm-up.
STRAIGHT = loadgen_mix("shard")

#: Serve kernels plus autotuner variant points at reduced problem sizes.
#: The two divergent kernels are the benchmark's wide-tier launches.
_GEMM = {"m": 32, "n": 32, "k": 16}
_FILTER = {"width": 66, "height": 26}
COLD = (
    serve("saxpy", n=1024),
    serve("scale", n=1024),
    serve("blur", blocks_x=2, blocks_y=4),
    serve("sgemm", m=16, n=16, k=8),
    serve("bitonic_cf", n=64),
    serve("kmeans_cf", n=64, k=8),
    tune("gemm", _GEMM, {"bm": 8, "bn": 8, "ktile": 16}),
    tune("gemm", _GEMM, {"bm": 4, "bn": 16, "ktile": 16}),
    tune("linear_filter", _FILTER, {"tile_w": 8, "tile_h": 6}),
    tune("linear_filter", _FILTER, {"tile_w": 16, "tile_h": 4}),
    tune("linear_filter", _FILTER, {"tile_w": 32, "tile_h": 2}),
    tune("systolic", {"m": 16, "n": 16, "k": 32},
         {"bm": 8, "bn": 8, "ktile": 16}),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("serve_straight", "cluster", STRAIGHT),
    Workload("kernel_cold", "cold", COLD),
    Workload("serve_sharded", "sharded", STRAIGHT),
)}


def menu_sim_us(workload: Workload, sims: Dict[Entry, float]) -> float:
    """Simulated kernel µs per op under the menu's exact mix."""
    total = sum(e.weight for e in workload.entries)
    return sum(e.weight * sims[e] for e in workload.entries) / total


def rss_ops(workload: Workload) -> int:
    """Completed ops at which the measured phase reads peak RSS."""
    clients = 1 if workload.mode == "cold" else CPUS
    return RSS_BLOCKS * clients * sum(e.weight for e in workload.entries)


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its children, live or reaped."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        kb = max(kb, int(line.split()[1]))
        except OSError:
            pass  # exited since it was listed; reaped children count above
    return kb / 1024.0


class RssProbe:
    """Reads peak RSS when the measured phase completes its n-th op."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.mb = None
        self._done = itertools.count(1)

    def op_done(self) -> None:
        if next(self._done) == self.n:  # itertools.count is atomic
            self.mb = peak_rss_mb()


def op_stream(entries: Tuple[Entry, ...], seed: int,
              *stream: int) -> Iterator[Tuple[Entry, int]]:
    """Endless (entry, data seed) pairs: seeded shuffles of whole blocks.
    ``stream`` (round, client) gives each its own sequence."""
    rng = np.random.default_rng([seed, *stream])
    block = [e for e in entries for _ in range(e.weight)]
    while True:
        for i in rng.permutation(len(block)):
            yield block[i], int(rng.integers(1 << 30))


@dataclass
class Op:
    """One measured operation, as the client saw it."""

    entry: Entry
    t0: float
    t1: float
    ok: bool
    sim_us: float = 0.0
    #: the program's Request (serve workloads).
    request: Any = field(default=None, repr=False)
    error: str = ""

    @property
    def latency_s(self) -> float:
        return self.t1 - self.t0


def _check_sim(entry: Entry, sims: Dict[Entry, float], sim_us: float) -> None:
    expect = sims.setdefault(entry, sim_us)
    if sim_us != expect:
        raise SimDrift(f"{entry.label}: simulated {sim_us!r} us, "
                       f"expected {expect!r} us")


# -- serve workloads ----------------------------------------------------------


class ClusterHarness:
    """A ServeCluster or ShardedCluster driven by closed-loop clients."""

    def __init__(self, workload: Workload, rss: RssProbe) -> None:
        self.workload = workload
        self.cluster = None
        #: entry -> simulated kernel µs, pinned during set-up.
        self.sims: Dict[Entry, float] = {}
        #: the set-up's own requests (their span trees feed the traced run).
        self.setup_requests: List[Any] = []
        self.rss = rss

    def _build(self):
        if self.workload.mode == "sharded":
            return ShardedCluster(shards=SHARDS, devices_per_shard=1)
        return ServeCluster(num_devices=DEVICES, policy="cache-affinity")

    def setup(self) -> None:
        """Build and start the cluster, then send every entry twice in a
        fixed order: the first compiles and sanitizes the kernel on its
        home device, the second JIT-compiles it.  The fixed order makes
        the cache-affinity placement the same on every run."""
        self.cluster = self._build().start()
        for entry in self.workload.entries:
            for _ in range(2):
                req = self.cluster.submit(entry.key, entry.serve_params(0),
                                          block=True)
                if not req.wait(WAIT_S) or req.status is not \
                        RequestStatus.DONE:
                    raise BenchError(f"set-up {entry.label} failed: "
                                     f"{req.status.value} {req.error}")
                _check_sim(entry, self.sims, req.kernel_sim_us)
                self.setup_requests.append(req)

    def measure(self, seed: int, seconds: float, clock=None,
                round_: int = 0) -> List[Op]:
        """Closed loop: CPUS clients, each with one op in flight."""
        del clock  # serve-side timers are installed on the program itself
        stop = time.perf_counter() + seconds
        per_client: List[List[Op]] = [[] for _ in range(CPUS)]

        def client(index: int) -> None:
            out = per_client[index]
            for entry, data_seed in op_stream(self.workload.entries, seed,
                                              round_, index):
                if time.perf_counter() >= stop:
                    return
                t0 = time.perf_counter()
                try:
                    req = self.cluster.submit(
                        entry.key, entry.serve_params(data_seed), block=True)
                    done = req.wait(WAIT_S)
                except Exception as exc:  # noqa: BLE001 - count, keep going
                    out.append(Op(entry, t0, time.perf_counter(), False,
                                  error=f"{type(exc).__name__}: {exc}"))
                    continue
                t1 = time.perf_counter()
                ok = done and req.status is RequestStatus.DONE \
                    and isinstance(req.result, float) \
                    and math.isfinite(req.result)
                out.append(Op(entry, t0, t1, ok, req.kernel_sim_us, req,
                              "" if ok else f"{req.status.value} "
                                            f"{req.error}"))
                self.rss.op_done()

        threads = [threading.Thread(target=client, args=(i,),
                                    name=f"perfbench-client{i}")
                   for i in range(CPUS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ops = [op for ops in per_client for op in ops]
        for op in ops:
            if op.ok:
                _check_sim(op.entry, self.sims, op.sim_us)
        return ops

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.shutdown()
            self.cluster = None


# -- the cold-kernel workload -------------------------------------------------


class OutputMismatch(AssertionError):
    pass


def cold_op(entry: Entry, data_seed: int, clock=None) -> float:
    """Run one entry on a fresh device: compile, sanitized first launch,
    second launch on the wide/JIT tier; check both outputs.  Returns the
    op's simulated kernel µs."""
    device = Device()
    if entry.kind == "serve":
        launch = get_workload(entry.key).make(entry.serve_params(data_seed))
        for _ in range(2):
            surfaces, scalars = launch.bind(device)
            kernel = device.compile(launch.body, launch.name, launch.sig,
                                    launch.scalar_params)
            device.run_compiled(kernel, launch.grid, surfaces,
                                scalars=scalars, name=launch.name,
                                validate="first")
            launch.finish(surfaces)  # raises AssertionError on bad output
    else:
        family = get_tunable(entry.key)
        problem = dict(entry.params)
        inputs = family.make_inputs(problem, seed=data_seed)
        variant = family.variant(problem, dict(entry.point))
        for _ in range(2):
            out = variant.run(device, inputs)
            with clock.timing("workloads.check") if clock else nullcontext():
                if not np.array_equal(out, family.reference(problem, inputs)):
                    raise OutputMismatch(f"{entry.label}: output differs "
                                         f"from the family oracle")
    return device.kernel_time_us


@contextmanager
def rotating_cpu():
    """Yield a function that moves the calling thread to the next CPU.

    Cores of a shared host differ in speed by up to 40% for seconds at a
    time, so a single thread left on one core measures that core's luck.
    Moving op by op across every allowed CPU averages them instead."""
    allowed = os.sched_getaffinity(0)
    order = itertools.cycle(sorted(allowed))
    try:
        yield lambda: os.sched_setaffinity(0, {next(order)})
    finally:
        os.sched_setaffinity(0, allowed)


class ColdHarness:
    """Single-threaded cold compile-and-launch ops, no serving layer."""

    def __init__(self, workload: Workload, rss: RssProbe) -> None:
        self.workload = workload
        self.sims: Dict[Entry, float] = {}
        self.setup_requests: List[Any] = []
        self.rss = rss

    def setup(self) -> None:
        """One cold pass over the menu in a fixed order."""
        with rotating_cpu() as next_cpu:
            for entry in self.workload.entries:
                next_cpu()
                _check_sim(entry, self.sims, cold_op(entry, 0))

    def measure(self, seed: int, seconds: float, clock=None,
                round_: int = 0) -> List[Op]:
        with rotating_cpu() as next_cpu:
            return self._measure(seed, seconds, clock, round_, next_cpu)

    def _measure(self, seed, seconds, clock, round_, next_cpu) -> List[Op]:
        ops: List[Op] = []
        stop = time.perf_counter() + seconds
        for entry, data_seed in op_stream(self.workload.entries, seed,
                                          round_, 0):
            if time.perf_counter() >= stop:
                break
            next_cpu()
            # A traced op gets its own span tree, so the device's fold and
            # jit:compile spans have somewhere to land.
            scope = RequestTrace(f"cold-{len(ops)}", workload=entry.key) \
                .active() if clock else nullcontext()
            t0 = time.perf_counter()
            try:
                with scope:
                    sim_us = cold_op(entry, data_seed, clock)
            except Exception as exc:  # noqa: BLE001 - count, keep going
                ops.append(Op(entry, t0, time.perf_counter(), False,
                              error=f"{type(exc).__name__}: {exc}"))
                continue
            ops.append(Op(entry, t0, time.perf_counter(), True, sim_us))
            self.rss.op_done()
            _check_sim(entry, self.sims, sim_us)
        return ops

    def close(self) -> None:
        pass


def harness_for(workload: Workload, rss: RssProbe):
    return ColdHarness(workload, rss) if workload.mode == "cold" \
        else ClusterHarness(workload, rss)
