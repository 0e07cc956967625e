"""The traced run: wall-clock timers around the program's public layer
entry points, readers for the span trees the program already records,
and the per-layer metric table built from both.

Nothing here adds a span inside the program.  In-process workloads are
timed by wrapping ``ServeWorkload.make`` (and the ``bind`` / ``finish``
of the :class:`KernelLaunch` it returns), ``Device.compile`` and
``Device.run_compiled``; the ``fold`` and ``jit:compile`` spans inside a
launch are read from the active request trace.  The sharded workload's
device work happens in other processes, so its layers are read from the
span trees the shards ship back with each completion.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs import active_request
from repro.serve import KernelLaunch, get_workload
from repro.sim.device import Device

from perfbench.stats import attribute, check_metric_name, percentile

TIERS = ("sequential", "wide", "jit")

#: Layers whose per-op shares, plus ``unattributed``, sum to the mean
#: latency of the traced phase.  Each is reported as ``<layer>_ms_per_op``.
ATTRIBUTED = ("shard.control", "serve.queue_wait", "workloads.make",
              "memory.bind", "compiler.compile", "sanitize.gate",
              "isa.dispatch", "isa.jit_codegen", "sim.fold",
              "workloads.check", "serve.self")

#: Every per-layer metric the traced run prints: (name, unit).  A layer a
#: workload does not exercise reads 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("latency_mean_ms", "ms"),
    *((f"{layer}_ms_per_op", "ms") for layer in ATTRIBUTED),
    ("unattributed_ms_per_op", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("compiler.compile_ms_per_kernel", "ms"),
    ("compiler.kernels_compiled", "count"),
    ("compiler.instructions_per_kernel", "count"),
    ("sanitize.gate_ms_per_kernel", "ms"),
    ("sanitize.launches", "count"),
    ("isa.dispatch_ms_per_launch.jit", "ms"),
    ("isa.dispatch_ms_per_launch.wide", "ms"),
    *((f"isa.launches.{tier}", "count") for tier in TIERS),
    ("isa.jit_codegen_ms_per_kernel", "ms"),
    ("sim.fold_ms_per_launch", "ms"),
    ("sim.kernel_us_per_op", "sim_us"),
    ("shard.balance_ratio", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
)
for _name, _unit in PER_LAYER:
    check_metric_name(_name)


class Tally:
    """Seconds and event counts per layer."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def add(self, layer: str, seconds: float, count: int = 1) -> None:
        self.seconds[layer] += seconds
        self.counts[layer] += count

    def s(self, layer: str) -> float:
        return self.seconds.get(layer, 0.0)

    def n(self, layer: str) -> int:
        return self.counts.get(layer, 0)

    def per(self, layer: str, scale: float = 1e3) -> float:
        """Mean time per counted event (ms by default); 0 when none."""
        n = self.n(layer)
        return self.s(layer) * scale / n if n else 0.0

    def merged(self, other: "Tally") -> "Tally":
        out = Tally()
        for t in (self, other):
            for k, v in t.seconds.items():
                out.seconds[k] += v
            for k, v in t.counts.items():
                out.counts[k] += v
        return out


def _span_sums(trace) -> Tuple[float, int, float]:
    """(jit:compile seconds, jit:compile spans, fold seconds) so far."""
    if trace is None:
        return 0.0, 0, 0.0
    jit_us = fold_us = 0.0
    jit_n = 0
    for node in trace.find("jit:compile"):
        jit_us += node.dur_us
        jit_n += 1
    for node in trace.find("fold"):
        fold_us += node.dur_us
    return jit_us * 1e-6, jit_n, fold_us * 1e-6


class LayerClock:
    """Installs timers on the program's layer entry points (and removes
    them again); thread-safe, since device workers call in concurrently."""

    def __init__(self, serve_keys: Iterable[str]) -> None:
        self.serve_keys = sorted(set(serve_keys))
        self.tally = Tally()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def add(self, layer: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            self.tally.add(layer, seconds, count)

    def take(self) -> Tally:
        """Return what was tallied so far and start a fresh tally."""
        with self._lock:
            out, self.tally = self.tally, Tally()
        return out

    @contextmanager
    def timing(self, layer: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(layer, time.perf_counter() - t0)

    def _timed(self, fn, layer: str):
        def timed(*args, **kwargs):
            with self.timing(layer):
                return fn(*args, **kwargs)
        return timed

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        clock = self
        compile_, run_compiled = Device.compile, Device.run_compiled

        def compile(device, *args, **kwargs):
            misses = device.profile.compile_cache_misses
            t0 = time.perf_counter()
            kernel = compile_(device, *args, **kwargs)
            dt = time.perf_counter() - t0
            clock.add("compiler.compile", dt)
            if device.profile.compile_cache_misses > misses:
                clock.add("compiler.miss", dt)
                clock.add("compiler.instructions", 0.0, len(kernel.program))
            return kernel

        def run(device, *args, **kwargs):
            trace = active_request()
            jit0, jit_n0, fold0 = _span_sums(trace)
            sanitized0 = len(device.sanitizer_results)
            t0 = time.perf_counter()
            result = run_compiled(device, *args, **kwargs)
            dt = time.perf_counter() - t0
            jit1, jit_n1, fold1 = _span_sums(trace)
            jit, fold = jit1 - jit0, fold1 - fold0
            if len(device.sanitizer_results) > sanitized0:
                clock.add("sanitize.gate", dt - jit - fold)
            else:
                tier = result.path if result is not None else "functional"
                clock.add("isa.dispatch", dt - jit - fold)
                clock.add(f"isa.dispatch.{tier}", dt - jit - fold)
            clock.add("isa.jit_codegen", jit, jit_n1 - jit_n0)
            clock.add("sim.fold", fold)
            return result

        self._patch(Device, "compile", compile)
        self._patch(Device, "run_compiled", run)
        for key in self.serve_keys:
            wl = get_workload(key)
            self._patch(wl, "make", self._timed_make(wl.make))

    def _timed_make(self, make):
        def timed_make(params):
            with self.timing("workloads.make"):
                launch = make(params)
            if isinstance(launch, KernelLaunch):
                launch.bind = self._timed(launch.bind, "memory.bind")
                if launch.finish is not None:
                    launch.finish = self._timed(launch.finish,
                                                "workloads.check")
            return launch
        return timed_make

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def tally_shard_trees(requests: Iterable) -> Tally:
    """Layer times of sharded requests, read from the shard span trees
    the parent grafts under a ``shard`` span on each request."""
    tally = Tally()
    for req in requests:
        if req.trace is None:
            continue
        for graft in req.trace.roots:
            if graft.name != "shard":
                continue
            tally.add("shard.in_shard", graft.dur_us * 1e-6)
            for node in graft.children:
                if node.name == "serve:request":
                    tally.add("serve.queue_wait",
                              (node.t0_us - graft.t0_us) * 1e-6)
                    tally.add("serve.request", node.dur_us * 1e-6)
                    _tally_launch_spans(node, tally)
    return tally


def _walk(node):
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(n.children))


def _tally_launch_spans(request_span, tally: Tally) -> None:
    sanitized = False
    for node in _walk(request_span):
        dur = node.dur_us * 1e-6
        if node.name == "compile":
            tally.add("compiler.compile", dur)
            tally.add("compiler.miss", dur)
            tally.add("compiler.instructions", 0.0,
                      int(node.attrs.get("instructions", 0)))
        elif node.name == "sanitize_gate":
            sanitized = node.attrs.get("outcome") == "sanitized"
        elif node.name == "dispatch":
            if sanitized:
                tally.add("sanitize.gate", dur)
            else:
                path = node.attrs.get("path", "sequential")
                tier = "sequential" if path == "compiled" else path
                tally.add("isa.dispatch", dur)
                tally.add(f"isa.dispatch.{tier}", dur)
        elif node.name == "jit:compile":
            tally.add("isa.jit_codegen", dur)
        elif node.name == "fold":
            tally.add("sim.fold", dur)


def attribution_layers(mode: str, ops: Sequence, phase: Tally
                       ) -> Dict[str, float]:
    """Disjoint wall seconds per attributed layer over the phase's ops."""
    device = {layer: phase.s(layer) for layer in (
        "memory.bind", "compiler.compile", "sanitize.gate", "isa.dispatch",
        "isa.jit_codegen", "sim.fold", "workloads.check")}
    layers = dict.fromkeys(ATTRIBUTED, 0.0)
    layers.update(device)
    inner = sum(device.values())
    if mode == "cold":
        layers["workloads.make"] = phase.s("workloads.make")
    elif mode == "cluster":
        # submit -> dispatch holds the request's own make (dispatcher);
        # dispatch -> done holds everything the device worker ran for it.
        reqs = [op.request for op in ops if op.request is not None]
        make = phase.s("workloads.make")
        layers["workloads.make"] = make
        layers["serve.queue_wait"] = sum(r.wait_wall_s for r in reqs) - make
        layers["serve.self"] = sum(r.latency_wall_s - r.wait_wall_s
                                   for r in reqs) - inner
    else:
        layers["shard.control"] = sum(op.latency_s for op in ops) \
            - phase.s("shard.in_shard")
        layers["serve.queue_wait"] = phase.s("serve.queue_wait")
        layers["serve.self"] = phase.s("serve.request") - inner
    return layers


def per_layer_metrics(mode: str, ops: Sequence, phase: Tally,
                      whole: Tally, sim_us_per_op: float, shards: int,
                      trace_overhead: float) -> Dict[str, float]:
    """The per-layer table.  ``phase`` covers the traced measured phase;
    ``whole`` adds the set-up, so per-kernel costs (compile, sanitize,
    JIT codegen) exist even where the measured phase is all cache hits."""
    latency = sum(op.latency_s for op in ops)
    shares = attribute(latency, attribution_layers(mode, ops, phase),
                       len(ops))
    out: Dict[str, float] = {"latency_mean_ms": latency * 1e3 / len(ops)}
    for layer, ms in shares.items():
        out[f"{layer}_ms_per_op"] = ms
    reqs = [op.request for op in ops if op.request is not None]
    if reqs:
        hits = sum(r.cache_hits for r in reqs)
        lookups = hits + sum(r.cache_misses for r in reqs)
        out["serve.queue_wait_ms_p50"] = percentile(
            [r.wait_wall_s * 1e3 for r in reqs], 50)
        out["serve.batch_size_mean"] = sum(r.batch_size for r in reqs) \
            / len(reqs)
        out["serve.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    misses = whole.n("compiler.miss")
    out["compiler.compile_ms_per_kernel"] = whole.per("compiler.miss")
    out["compiler.kernels_compiled"] = phase.n("compiler.miss")
    out["compiler.instructions_per_kernel"] = \
        whole.n("compiler.instructions") / misses if misses else 0.0
    out["sanitize.gate_ms_per_kernel"] = whole.per("sanitize.gate")
    out["sanitize.launches"] = phase.n("sanitize.gate")
    for tier in ("jit", "wide"):
        out[f"isa.dispatch_ms_per_launch.{tier}"] = \
            phase.per(f"isa.dispatch.{tier}")
    for tier in TIERS:
        out[f"isa.launches.{tier}"] = phase.n(f"isa.dispatch.{tier}")
    out["isa.jit_codegen_ms_per_kernel"] = whole.per("isa.jit_codegen")
    out["sim.fold_ms_per_launch"] = phase.per("sim.fold")
    out["sim.kernel_us_per_op"] = sim_us_per_op
    if mode == "sharded":
        served = [0] * shards
        for r in reqs:
            if r.shard_index is not None and r.shard_index < shards:
                served[r.shard_index] += 1
        out["shard.balance_ratio"] = min(served) / max(served) \
            if max(served) else 0.0
    out["obs.trace_overhead_ratio"] = trace_overhead
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}
