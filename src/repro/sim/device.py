"""The simulated GPU device and its runtime queue.

Host code creates a :class:`Device`, wraps numpy arrays in surfaces, and
enqueues kernels.  Each enqueue runs every hardware thread functionally,
folds the per-thread traces into a timing breakdown as the threads
retire, and records a :class:`KernelRun`.  Total time accumulates launch
overhead per enqueue — this is the effect that penalizes the OpenCL
bitonic sort's hundreds of kernel launches in Figure 5.

Two dispatch paths exist:

- :meth:`Device.run_cm` runs an *eager* CM kernel (a Python callable
  using :mod:`repro.cm`) one hardware thread at a time, streaming each
  retired trace into a :class:`~repro.sim.timing.TimingAccumulator` so
  memory stays O(1) in the grid size.
- :meth:`Device.run_compiled` runs a
  :class:`~repro.compiler.driver.CompiledKernel` over a grid in chunks
  of at most ``max_live_threads`` threads, on one of two bit-identical
  tiers chosen by its ``tier`` argument and the sanitizer gate
  (:func:`choose_tier`): ``sequential`` (one pooled
  :class:`~repro.sim.batch.TracingExecutor`, the reference oracle) or
  ``jit`` (a compiled megakernel runs the whole chunk at once).
  Operand plans are shared by every thread (a compiled
  program is identical across threads); combined with
  :meth:`Device.compile`'s kernel cache this is the fast path for
  repeated launches.

Both paths are instrumented through :mod:`repro.obs`: dispatches open
trace spans, per-kernel :class:`~repro.obs.breakdown.TimeBreakdown`
attribution is folded as threads retire (when enabled), and the
:class:`DeviceProfile` counters are backed by a
:class:`~repro.obs.metrics.MetricsRegistry`.  With the default disabled
observability the extra cost is a couple of branch checks per chunk.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

import repro.sanitize as sanitize_mod
from repro.memory.surfaces import BufferSurface, Image2DSurface, Surface
from repro.obs import get_observability
from repro.obs.breakdown import BreakdownAccumulator, TimeBreakdown
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import trace_span
from repro.sim import context as ctx_mod
from repro.sim.batch import TracingExecutor
from repro.sim.context import ThreadContext
from repro.sim.machine import GEN11_ICL, MachineConfig
from repro.sim.timing import KernelTiming, TimingAccumulator, time_kernel
from repro.sim.trace import ThreadTrace


@dataclass
class KernelRun:
    """One completed kernel enqueue."""

    name: str
    timing: KernelTiming
    launch_overhead_us: float
    #: per-bucket time attribution; present when observability breakdowns
    #: were enabled for the launch.
    breakdown: Optional[TimeBreakdown] = None
    #: dispatch tier that executed the launch: ``cm`` (eager),
    #: ``sequential``, ``jit``, or ``external`` (submitted
    #: traces).  Simulated timing is tier-invariant; the tier only
    #: matters for wall-clock and observability.
    path: str = "sequential"

    @property
    def kernel_time_us(self) -> float:
        return self.timing.time_us

    @property
    def total_time_us(self) -> float:
        return self.timing.time_us + self.launch_overhead_us


#: Values of :meth:`Device.run_compiled`'s ``tier`` argument.
TIERS = ("auto", "sequential", "jit")


def choose_tier(tier: str, mode: str, ineligible_reason: Optional[str],
                verdict, vector_gate: bool = True) -> Tuple[str, str]:
    """The launch gate: ``(outcome, runs)`` for one compiled launch.

    ``tier`` is the caller's request (:data:`TIERS`), ``mode`` the
    validate mode, ``ineligible_reason`` why the program cannot run
    on the JIT tier (``None`` if it can), ``verdict`` the kernel's
    :class:`~repro.sanitize.race.RaceVerdict` on file, if any, and
    ``vector_gate`` whether a first launch may be race-checked on the
    JIT tier (``False`` for a program with a ``BARRIER``, whose epochs
    only the sequential tier tracks).
    ``runs`` is ``"checked"`` (the JIT megakernel with a race recorder
    attached), ``"sanitized"`` (sequential with the race detector and
    uninitialized-GRF tracker attached), ``"sequential"`` or
    ``"vector"`` (the JIT megakernel).
    ``outcome`` names the decision for the profile and the
    ``sanitize_gate`` span.
    """
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    if mode not in sanitize_mod.VALIDATE_MODES:
        raise ValueError(
            f"validate must be one of {sanitize_mod.VALIDATE_MODES}, "
            f"got {mode!r}")
    eligible = ineligible_reason is None
    if tier == "jit":
        if not eligible:
            raise ValueError(f"program is not JIT-eligible "
                             f"({ineligible_reason}; tier={tier!r})")
        return "bypassed", "vector"    # the caller asserts race freedom
    if mode == "first" and tier == "auto" and eligible and verdict is None:
        return "sanitized", "checked" if vector_gate else "sanitized"
    if mode == "always":
        return "sanitized", "sanitized"
    if tier == "sequential":
        return "forced_scalar", "sequential"
    if not eligible:
        return "ineligible", "sequential"
    if mode == "off":
        return "trusted", "vector"     # validation disabled
    if verdict.race_free:
        return "admitted", "vector"
    return "refused", "sequential"     # racy verdict: vector denied


class _Launch(NamedTuple):
    """One compiled launch's arguments, shared by its tier runs."""

    kernel: object
    name: str
    grid: Sequence[int]
    surfaces: list
    scalars: object
    executor: object
    step: int  # max live threads per chunk


def _grid_coords(grid: Sequence[int]) -> tuple:
    """One int64 coordinate column per grid dimension, x fastest: row
    ``t`` is the ``t``-th thread id :meth:`Device._grid_ids` yields."""
    if not grid:
        return ()
    flat = np.arange(int(np.prod(grid)))
    return np.unravel_index(flat, tuple(reversed(grid)))[::-1]


def _thread_ids(coords: tuple, start: int, count: int) -> list:
    """The id tuples of threads ``start .. start + count - 1``."""
    if not coords:
        return [()] * count
    return list(zip(*(c[start:start + count].tolist() for c in coords)))


def _scalar_columns(scalars, bases, coords: tuple, count: int) -> list:
    """``(GRF base, (count,) int32 column)`` per scalar parameter that
    ``scalars`` supplies for a chunk of ``count`` threads; ``coords``
    are the chunk's coordinate columns, which a callable ``scalars``
    receives once, as one tuple."""
    row = scalars(coords) if callable(scalars) else (scalars or {})
    cols = []
    for pname, base in bases:
        v = row.get(pname)
        if v is not None:
            cols.append((base, np.ascontiguousarray(np.broadcast_to(
                np.asarray(v, dtype=np.int32), (count,)))))
    return cols


class DeviceProfile:
    """Counters describing how the device dispatched work.

    The values live in a :class:`MetricsRegistry` (one private registry
    per profile unless one is injected), so ``device.profile.registry``
    can be scraped or merged into reports while the attribute API
    (``profile.threads_run`` etc.) keeps working.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._threads_run = self.registry.counter(
            "device_threads_run", "hardware threads executed")
        self._chunks_dispatched = self.registry.counter(
            "device_chunks_dispatched", "trace chunks retired")
        self._peak_live_traces = self.registry.gauge(
            "device_peak_live_traces", "high-water mark of live traces")
        self._compile_cache_hits = self.registry.counter(
            "compile_cache_hits", "kernel cache hits via Device.compile")
        self._compile_cache_misses = self.registry.counter(
            "compile_cache_misses", "kernel cache misses via Device.compile")
        self._jit_compiles = self.registry.counter(
            "jit_compiles", "megakernel JIT compilations")
        self._jit_cache_hits = self.registry.counter(
            "jit_cache_hits", "launches reusing a cached megakernel")
        #: per-tier launch counters (cm / sequential / jit /
        #: external) — which dispatch tier actually ran each enqueue.
        self._tier_launches: Dict[str, Counter] = {}
        #: vector-admission gate outcomes per launch (sanitized / admitted
        #: / refused / trusted / bypassed / ineligible / forced_scalar).
        self._gate_outcomes: Dict[str, Counter] = {}

    def count_launch(self, tier: str) -> None:
        """Tally one launch on its dispatch tier."""
        c = self._tier_launches.get(tier)
        if c is None:
            c = self._tier_launches[tier] = self.registry.counter(
                "device_tier_launches", tier=tier)
        c.inc()

    def count_gate(self, outcome: str) -> None:
        """Tally one vector-admission gate decision."""
        c = self._gate_outcomes.get(outcome)
        if c is None:
            c = self._gate_outcomes[outcome] = self.registry.counter(
                "device_wide_gate", outcome=outcome)
        c.inc()

    @property
    def tier_launches(self) -> Dict[str, int]:
        return {tier: int(c.value)
                for tier, c in sorted(self._tier_launches.items())}

    @property
    def gate_outcomes(self) -> Dict[str, int]:
        return {outcome: int(c.value)
                for outcome, c in sorted(self._gate_outcomes.items())}

    # Attribute-compatible accessors over the registry instruments.

    @property
    def threads_run(self) -> int:
        return int(self._threads_run.value)

    @threads_run.setter
    def threads_run(self, value: int) -> None:
        self._threads_run.inc(value - self._threads_run.value)

    @property
    def chunks_dispatched(self) -> int:
        return int(self._chunks_dispatched.value)

    @chunks_dispatched.setter
    def chunks_dispatched(self, value: int) -> None:
        self._chunks_dispatched.inc(value - self._chunks_dispatched.value)

    @property
    def peak_live_traces(self) -> int:
        return int(self._peak_live_traces.value)

    @peak_live_traces.setter
    def peak_live_traces(self, value: int) -> None:
        self._peak_live_traces.set(value)

    @property
    def compile_cache_hits(self) -> int:
        return int(self._compile_cache_hits.value)

    @compile_cache_hits.setter
    def compile_cache_hits(self, value: int) -> None:
        self._compile_cache_hits.inc(value - self._compile_cache_hits.value)

    @property
    def compile_cache_misses(self) -> int:
        return int(self._compile_cache_misses.value)

    @compile_cache_misses.setter
    def compile_cache_misses(self, value: int) -> None:
        self._compile_cache_misses.inc(
            value - self._compile_cache_misses.value)

    @property
    def jit_compiles(self) -> int:
        return int(self._jit_compiles.value)

    @jit_compiles.setter
    def jit_compiles(self, value: int) -> None:
        self._jit_compiles.inc(value - self._jit_compiles.value)

    @property
    def jit_cache_hits(self) -> int:
        return int(self._jit_cache_hits.value)

    @jit_cache_hits.setter
    def jit_cache_hits(self, value: int) -> None:
        self._jit_cache_hits.inc(value - self._jit_cache_hits.value)

    def note_live_traces(self, count: int) -> None:
        """Record an observed number of concurrently live traces."""
        self._peak_live_traces.set_max(count)

    def __repr__(self) -> str:
        return (f"DeviceProfile(threads_run={self.threads_run}, "
                f"chunks_dispatched={self.chunks_dispatched}, "
                f"peak_live_traces={self.peak_live_traces}, "
                f"compile_cache_hits={self.compile_cache_hits}, "
                f"compile_cache_misses={self.compile_cache_misses}, "
                f"jit_compiles={self.jit_compiles}, "
                f"jit_cache_hits={self.jit_cache_hits})")


class Device:
    """A simulated Gen GPU plus its in-order execution queue."""

    def __init__(self, machine: MachineConfig = GEN11_ICL,
                 obs=None) -> None:
        self.machine = machine
        self.runs: list[KernelRun] = []
        self.surfaces: list = []
        #: observability bundle; defaults to the process-wide one (a
        #: disabled no-op unless ``repro.obs.enable()`` was called).
        self.obs = obs if obs is not None else get_observability()
        self.profile = DeviceProfile()
        #: lazily-created KernelCache (avoids importing the compiler
        #: package unless the device actually compiles something).
        self.kernel_cache = None
        #: kernel identity -> (kernel, RaceVerdict) from sanitized
        #: launches; consulted by ``run_compiled(tier="auto")`` before
        #: taking a vector tier.  Lifecycle matches the kernel cache
        #: (``reset(clear_cache=True)`` drops it).
        self._race_verdicts: dict = {}
        #: kernel *name* -> RaceVerdict adopted from elsewhere (a peer
        #: shard that sanitized the same kernel first); consulted when
        #: no identity-keyed verdict exists, so an adopted ``race_free``
        #: admits the JIT tier without a local sanitized launch.
        self._adopted_verdicts: Dict[str, object] = {}
        #: (kernel name, RaceVerdict) pairs produced by this device's
        #: own sanitized launches, not yet drained for broadcast.
        self._fresh_verdicts: list = []
        #: KernelSanitizeResult per sanitized launch on this device.
        self.sanitizer_results: list = []
        #: per-surface-label OOB clipped-lane totals observed by this
        #: device's launches (counting mode; see repro.sanitize.oob).
        self.oob_lanes: Dict[str, int] = {}

    # -- memory management -------------------------------------------------

    def buffer(self, data_or_size) -> BufferSurface:
        """Create a linear buffer surface from an array or a byte size."""
        if isinstance(data_or_size, (int, np.integer)):
            surf = BufferSurface.allocate(int(data_or_size))
        else:
            surf = BufferSurface.from_array(np.asarray(data_or_size))
        surf.obs_label = f"buf{len(self.surfaces)}"
        self.surfaces.append(surf)
        return surf

    def image2d(self, data: np.ndarray, bytes_per_pixel: int = 1) -> Image2DSurface:
        surf = Image2DSurface(np.asarray(data), bytes_per_pixel)
        surf.obs_label = f"img{len(self.surfaces)}"
        self.surfaces.append(surf)
        return surf

    def begin_enqueue(self) -> None:
        """Start a new eager kernel: caches are cold again for line
        tracking on every surface the device created (eager kernels
        reach surfaces by closure; compiled launches reset only the
        surfaces they bind)."""
        for surf in self.surfaces:
            surf.reset_line_tracking()

    # -- compilation --------------------------------------------------------

    def compile(self, body: Callable, name: str,
                surfaces: Sequence[Tuple[str, bool]],
                scalar_params: Sequence[str] = (),
                optimize: bool = True):
        """Compile ``body`` through the device's kernel cache.

        Repeated compiles of the same (body, signature) return the cached
        :class:`CompiledKernel`; hits and misses are tallied both in the
        cache's own stats and in :attr:`profile` (and, when observability
        is enabled, in the shared metrics registry).
        """
        if self.kernel_cache is None:
            from repro.compiler.cache import KernelCache
            self.kernel_cache = KernelCache(
                registry=self.obs.registry if self.obs.enabled else None)
        kernel, hit = self.kernel_cache.lookup(
            body, name, surfaces, scalar_params=scalar_params,
            optimize=optimize)
        if hit:
            self.profile.compile_cache_hits += 1
        else:
            self.profile.compile_cache_misses += 1
        return kernel

    # -- kernel execution ---------------------------------------------------

    def _grid_ids(self, grid: Sequence[int]):
        dims = [range(g) for g in grid]
        for tid in itertools.product(*reversed(dims)):
            yield tuple(reversed(tid))

    def run_cm(self, kernel: Callable, grid: Sequence[int],
               args: Tuple = (), name: Optional[str] = None) -> KernelRun:
        """Launch a CM kernel over a 1D/2D/3D grid of hardware threads.

        The kernel body reads its coordinates via ``repro.cm.thread_x()``
        etc.; one invocation = one hardware thread (the CM model).  Each
        thread's trace is folded into the timing totals as it retires, so
        only one trace is live at a time regardless of grid size.
        """
        kname = name or getattr(kernel, "__name__", "cm")
        self.begin_enqueue()
        # Under an active sanitizer session every eager launch runs with
        # a per-kernel race detector attached to the bound surfaces (the
        # eager path is already sequential, so sanitizing adds only the
        # recording cost).
        sess = sanitize_mod.current_session()
        if sess is not None:
            sess.begin_kernel(kname, self.surfaces)
        acc = TimingAccumulator(self.machine)
        bacc = (BreakdownAccumulator(self.machine)
                if self.obs.breakdowns else None)
        thread_ctx: Optional[ThreadContext] = None
        n_threads = 0
        with trace_span("dispatch", kernel=kname, path="cm",
                        grid=tuple(grid)):
            with trace_span("dispatch:cm", kernel=kname, grid=tuple(grid),
                            chunk=0) as tier_span:
                for thread_id in self._grid_ids(grid):
                    if sess is not None:
                        sess.race.begin_thread(thread_id)
                    trace = ThreadTrace(self.machine)
                    if thread_ctx is None:
                        thread_ctx = ThreadContext(trace,
                                                   thread_id=thread_id)
                    else:
                        thread_ctx.reuse(trace, thread_id=thread_id)
                    ctx_mod.activate(thread_ctx)
                    try:
                        kernel(*args)
                    finally:
                        ctx_mod.deactivate()
                    acc.add(trace)
                    if bacc is not None:
                        bacc.add(trace)
                    n_threads += 1
                tier_span.set(threads=n_threads)
        self.profile.threads_run += n_threads
        self.profile.count_launch("cm")
        if n_threads:
            # The eager path streams: exactly one trace is ever live.
            self.profile.note_live_traces(1)
        if sess is not None:
            sess.finish_kernel()
        self._collect_oob(self.surfaces)
        return self._record(acc.finalize(), kname, bacc, path="cm")

    def run_compiled(self, kernel, grid: Sequence[int],
                     surfaces: Sequence[Surface],
                     scalars: Union[Dict[str, int],
                                    Callable[[Tuple[int, ...]],
                                             Dict[str, int]], None] = None,
                     name: Optional[str] = None,
                     executor: Optional[TracingExecutor] = None,
                     tier: str = "auto",
                     max_live_threads: int = 1024,
                     validate: Optional[str] = None) -> KernelRun:
        """Launch a :class:`CompiledKernel` over a grid of hardware threads.

        ``surfaces`` bind positionally to the kernel's surface params.
        ``scalars`` supplies the symbolic integer parameters: either one
        dict shared by every thread, or a callable that feeds per-thread
        values such as coordinates.  The callable is called once per
        chunk of threads with a tuple of int64 coordinate arrays, one
        per grid dimension (``tid[0]`` holds the chunk's x coordinates,
        x fastest, as :meth:`_grid_ids` orders threads), and returns a
        dict whose values are each an int (shared by the chunk) or an
        array of the chunk's length.  A coordinate projection such as
        ``lambda tid: {"tx": tid[0], "ty": tid[1]}`` therefore works
        unchanged; a callable that branches on one thread's id does not.

        ``tier`` picks the execution tier; both are bit-identical in
        results and simulated timing, they differ only in wall clock:

        - ``"sequential"`` — one pooled :class:`TracingExecutor` runs
          the threads one at a time (the reference oracle);
        - ``"jit"`` — the program compiled once to a Python megakernel
          (:mod:`repro.isa.jit`, cached on the kernel) runs each chunk
          of threads at once on their stacked register files, SIMD
          control flow included, with no per-instruction dispatch;
        - ``"auto"`` (default) — the sanitizer gate below decides
          between sequential and JIT dispatch.

        ``"jit"`` bypasses validation (the caller asserts race freedom)
        and raises ``ValueError`` on a program the JIT declines: one
        with an unsupported message kind or malformed control flow, or
        one whose compilation fails (:class:`~repro.isa.jit.JitError`).
        Under ``"auto"`` such a program runs sequentially, with the
        reason on the ``sanitize_gate`` span.  Otherwise the gate
        (:func:`choose_tier`) follows ``validate``, default from
        :func:`repro.sanitize.default_validate` / ``REPRO_SANITIZE``:

        - ``"first"`` — a kernel's first launch runs on the JIT tier
          with a race recorder fed by its vectorized SENDs (results and
          timing bit-identical to sequential dispatch).  A race-free
          :class:`~repro.sanitize.race.RaceVerdict` is cached and
          admits vector dispatch for later launches.  A racy one (or
          any error) restores the bound surfaces and re-runs the
          launch sequentially with the race detector and
          uninitialized-GRF tracker attached, whose verdict then
          permanently refuses vector dispatch.  A program with a
          ``BARRIER`` takes that sanitized-sequential first launch
          directly;
        - ``"always"`` — every launch runs sanitized-sequential (also
          under ``tier="sequential"``), uninitialized-GRF tracking
          included;
        - ``"off"`` — trust the caller; eligible programs go vector
          unchecked.

        Every tier runs the grid in chunks of at most
        ``max_live_threads`` threads, so at most that many traces (and,
        vectorized, stacked register files) are live at a time.

        ``executor`` is a reuse hint: when it is an instance of the
        chosen tier's tracing executor class (:class:`TracingExecutor`
        or :class:`~repro.isa.jit.JitTracingExecutor`) it is rebound to
        this launch and reused, so a serving batch of same-program
        requests shares one executor; otherwise a fresh one is built.
        """
        from repro.isa.jit import JitError

        kname = name or kernel.name
        surfaces = list(surfaces)
        # A compiled kernel reaches only the surfaces it binds (an
        # aged device holds many more), so only they go cold.
        for surf in surfaces:
            surf.reset_line_tracking()
        if validate is not None:
            mode = validate
        elif sanitize_mod.current_session() is not None:
            mode = "always"  # inside sanitize.session(): check everything
        else:
            mode = sanitize_mod.default_validate()
        cached = self._race_verdicts.get(id(kernel))
        verdict = cached[1] if (cached is not None and cached[0] is kernel) \
            else None
        adopted = False
        if verdict is None:
            # fall back to a verdict adopted by kernel name (broadcast
            # from a peer shard that already sanitized this kernel).
            verdict = self._adopted_verdicts.get(kname)
            adopted = verdict is not None
        ineligible, has_barrier = kernel.gate_facts()
        gate, runs = choose_tier(tier, mode, ineligible, verdict,
                                 vector_gate=not has_barrier)
        jitk = None
        if runs in ("vector", "checked"):
            try:
                jitk = self._jit_for(kernel, kname)
            except JitError as exc:  # a codegen corner case: run scalar
                ineligible = f"jit: {exc}"
                gate, runs = choose_tier(tier, mode, ineligible, verdict)

        # Tallied per launch and emitted as an (instant) ``sanitize_gate``
        # span, so a request's trace shows *why* its launch took the
        # tier it did.
        self.profile.count_gate(gate)
        gate_attrs = {"kernel": kname, "mode": mode, "outcome": gate}
        if gate == "ineligible":
            # distinguish *why* the program cannot vectorize: an
            # unsupported message kind, malformed control flow, or a
            # JIT compile failure (well-formed simd_if/simd_while
            # programs are eligible).
            gate_attrs["reason"] = ineligible
        if verdict is not None:
            gate_attrs["race_free"] = verdict.race_free
        if adopted:
            gate_attrs["adopted"] = True
        with trace_span("sanitize_gate", **gate_attrs):
            pass

        launch = _Launch(kernel, kname, grid, surfaces, scalars, executor,
                         max(1, max_live_threads))
        out = self._checked_launch(launch, jitk) if runs == "checked" \
            else None
        if out is None:  # not checked, or rolled back: dispatch as before
            san = None
            if runs in ("checked", "sanitized"):
                oob_base = [(s, s.oob_clipped_lanes) for s in surfaces]
                san = sanitize_mod.ExecSanitizer(
                    race=sanitize_mod.RaceDetector().attach(surfaces),
                    uninit=sanitize_mod.UninitTracker())
            out = self._dispatch(launch, runs == "vector", jitk, san)
            if san is not None:
                self._finish_sanitized(kernel, kname, san.race.finish(),
                                       oob_base, san.uninit)
        timing, bacc, path = out
        total, step = timing.num_threads, launch.step
        self.profile.threads_run += total
        self.profile.chunks_dispatched += -(-total // step)
        self.profile.note_live_traces(min(step, total))
        self.profile.count_launch(path)
        self._collect_oob(surfaces)
        return self._record(timing, kname, bacc, path=path)

    def _checked_launch(self, launch: _Launch, jitk):
        """The ``validate="first"`` gate on the JIT tier.

        Runs the launch vectorized with a race recorder fed by every
        SEND.  A race-free verdict is cached and the launch's result
        kept (bit-identical to sequential dispatch).  Otherwise — a
        racy verdict, or any error — the bound surfaces' bytes and OOB
        counters are restored and ``None`` is returned, so the caller
        re-runs the launch sanitized-sequential, which supplies the
        verdict, its conflicts and the result exactly as before.
        """
        snap = [(s, s.bytes.copy(), s.oob_clipped_lanes, len(s.oob_events))
                for s in launch.surfaces]
        race = sanitize_mod.RaceDetector().attach(launch.surfaces, hook=False)
        try:
            out = self._dispatch(launch, True, jitk, race=race)
            verdict = race.finish()
        except Exception:  # the sequential re-run raises it in order
            verdict = None
        if verdict is not None and verdict.race_free:
            self._finish_sanitized(launch.kernel, launch.name, verdict,
                                   [(s, lanes) for s, _, lanes, _ in snap])
            return out
        for surf, data, lanes, events in snap:
            surf.bytes[:] = data
            surf.oob_clipped_lanes = lanes
            del surf.oob_events[events:]
            surf.reset_line_tracking()
        return None

    def _dispatch(self, launch: _Launch, vector: bool, jitk, san=None,
                  race=None):
        """Run every chunk of one launch; returns ``(KernelTiming,
        breakdown accumulator or None, tier path)``.

        ``vector`` picks the JIT tier (``race`` then records its
        accesses), else the sequential one (``san`` its hooks).
        """
        from repro.compiler.finalizer import SCRATCH_BTI
        from repro.isa.jit import JitTracingExecutor
        from repro.isa.wide import WideScratch

        kernel, kname, grid, surfaces, scalars, executor, step = launch
        table = dict(enumerate(surfaces))
        scratch_bytes = kernel.allocation.scratch_bytes
        scratch = None
        if vector:
            path, cls = "jit", JitTracingExecutor
            if scratch_bytes:
                scratch = WideScratch(0, scratch_bytes)
        else:
            path, cls = "sequential", TracingExecutor
            if scratch_bytes:
                scratch = BufferSurface.allocate(scratch_bytes)
                scratch.obs_label = "scratch"
        if scratch is not None:
            table[SCRATCH_BTI] = scratch

        ex = executor if type(executor) is cls else cls()
        ex.rebind(table)
        ex.bind_plans(kernel.plan_table())
        if vector:
            ex.bind_jit(jitk)

        # Scalar parameters optimized away have no GRF slot.
        bases = []
        for pname, vreg in kernel.visa.params.items():
            base = kernel.allocation.grf_offset.get(vreg.id)
            if base is not None:
                bases.append((pname, base))
        program = kernel.program
        grf_bytes = kernel.allocation.max_grf_bytes
        coords = _grid_coords(grid)
        total = coords[0].size if coords else 1
        if race is not None:
            race.add_threads(_thread_ids(coords, 0, total))
        acc = TimingAccumulator(self.machine)
        bacc = (BreakdownAccumulator(self.machine)
                if self.obs.breakdowns else None)
        # JIT chunks fold timing without fanning it out into per-thread
        # traces (the breakdown profiler still needs traces).
        fold = vector and bacc is None
        ex.san, ex.race = san, race
        try:
            with trace_span("dispatch", kernel=kname, path=path,
                            grid=tuple(grid), threads=total):
                for chunk_idx, start in enumerate(range(0, total, step)):
                    count = min(step, total - start)
                    cols = _scalar_columns(
                        scalars, bases,
                        tuple(c[start:start + count] for c in coords), count)
                    with trace_span(f"dispatch:{path}", kernel=kname,
                                    grid=tuple(grid), chunk=chunk_idx,
                                    threads=count):
                        if not vector:
                            ids = None if san is None else \
                                _thread_ids(coords, start, count)
                            traces = self._run_threads(ex, program, count,
                                                       ids, cols, scratch, san)
                        else:
                            if race is not None:
                                race.row_base = start
                            ex.reset(count)
                            if scratch is not None:
                                scratch.resize(count)
                            ex.begin_launch(self.machine)
                            for base, col in cols:
                                ex.seed_scalar(base, col)
                            ex.run(program)
                            traces = None if fold else ex.drain_traces()
                    with trace_span("chunk", kernel=kname, threads=count):
                        if traces is None:
                            ex.fold_chunk(acc, grf_bytes)
                        else:
                            for tr in traces:
                                tr.note_grf(grf_bytes)
                            acc.extend(traces)
                            if bacc is not None:
                                bacc.extend(traces)
        finally:
            # a pooled executor must never carry a checker into the
            # next (serving) launch
            ex.san = ex.race = None
        return acc.finalize(), bacc, path

    def _run_threads(self, ex, program, count, ids, cols, scratch,
                     san) -> list:
        """Run one chunk of ``count`` threads one at a time; return
        their traces (``ids``: the thread id tuples, for ``san``)."""
        traces = []
        for i in range(count):
            ex.reset()
            if san is not None:
                san.begin_thread(ids[i])
            if scratch is not None:
                scratch.bytes.fill(0)
            trace = ThreadTrace(self.machine)
            ex.begin_thread(trace)
            for base, col in cols:
                ex.grf.write_bytes(base, col[i:i + 1])
                if san is not None:
                    san.mark_grf_valid(base, 4)
            ex.run(program)
            traces.append(trace)
        return traces

    def _finish_sanitized(self, kernel, kname: str, verdict, oob_base,
                          uninit=None) -> None:
        """Fold a race-checked launch into verdicts and reports."""
        self._race_verdicts[id(kernel)] = (kernel, verdict)
        self._fresh_verdicts.append((kname, verdict))
        oob: Dict[str, int] = {}
        for surf, base in oob_base:
            delta = int(surf.oob_clipped_lanes) - base
            if delta:
                label = getattr(surf, "obs_label", "surface")
                oob[label] = oob.get(label, 0) + delta
        result = sanitize_mod.KernelSanitizeResult(
            kernel=kname, verdict=verdict, oob_lanes=oob)
        if uninit is not None:
            result.uninit = list(uninit.findings)
            result.uninit_total = uninit.total
        self.sanitizer_results.append(result)
        if self.obs.enabled:
            reg = self.obs.registry
            if not verdict.race_free:
                reg.counter("sanitize_race_conflicts", kernel=kname).inc(
                    len(verdict.conflicts))
            if result.uninit_total:
                reg.counter("sanitize_uninit_reads", kernel=kname).inc(
                    result.uninit_total)
        sess = sanitize_mod.current_session()
        if sess is not None:
            sess.report.add(result)

    def adopt_race_verdict(self, kname: str, verdict) -> None:
        """Adopt a :class:`~repro.sanitize.race.RaceVerdict` by name.

        Verdicts travel between devices by kernel name (a shard cluster
        broadcasts each worker's fresh verdicts so a kernel sanitized
        once is JIT-admitted everywhere).  A locally produced verdict
        (identity-keyed) always wins over an adopted one; among adopted
        verdicts a racy one is never overwritten by a race-free one —
        refusal is sticky.
        """
        prior = self._adopted_verdicts.get(kname)
        if prior is not None and not prior.race_free:
            return
        self._adopted_verdicts[kname] = verdict

    def drain_race_verdicts(self) -> list:
        """Return and clear (name, verdict) pairs from local sanitized
        launches since the last drain, for broadcast to peer devices.

        Pop-based so a serving thread can drain concurrently with the
        device thread appending (list.pop(0)/append are atomic).
        """
        fresh = []
        while self._fresh_verdicts:
            try:
                fresh.append(self._fresh_verdicts.pop(0))
            except IndexError:  # pragma: no cover - concurrent drain
                break
        return fresh

    def _collect_oob(self, surfs) -> None:
        """Fold per-surface OOB clip deltas into device totals + metrics."""
        for surf in surfs:
            total = int(getattr(surf, "oob_clipped_lanes", 0))
            seen = getattr(surf, "_oob_reported", 0)
            delta = total - seen
            if delta <= 0:
                continue
            surf._oob_reported = total
            label = getattr(surf, "obs_label", "surface")
            self.oob_lanes[label] = self.oob_lanes.get(label, 0) + delta
            if self.obs.enabled:
                self.obs.registry.counter(
                    "sanitize_oob_lanes", surface=label).inc(delta)

    def _jit_for(self, kernel, kname: str):
        """Resolve the kernel's cached JIT megakernel (compiling once).

        Raises :class:`~repro.isa.jit.JitError` when compilation fails
        or when the megakernel's block costs do not sum exactly on this
        device's machine; updates the device profile / metrics with
        compile-vs-hit accounting.
        """
        from repro.isa.jit import get_jit

        t0 = time.perf_counter()
        jitk, cached = get_jit(kernel)
        if cached:
            self.profile.jit_cache_hits += 1
            if self.obs.enabled:
                self.obs.registry.counter(
                    "jit_cache_hits", kernel=kname).inc()
        else:
            dt = time.perf_counter() - t0
            self.profile.jit_compiles += 1
            if self.obs.enabled:
                reg = self.obs.registry
                reg.counter("jit_compiles", kernel=kname).inc()
                reg.counter("jit_compile_seconds", kernel=kname).inc(dt)
        jitk.block_costs(self.machine)
        return jitk

    def submit(self, traces: Sequence[ThreadTrace], name: str) -> KernelRun:
        """Record a completed enqueue built from externally-run traces."""
        bacc = None
        if self.obs.breakdowns:
            bacc = BreakdownAccumulator(self.machine)
            bacc.extend(traces)
        self.profile.count_launch("external")
        return self._record(time_kernel(traces, self.machine), name, bacc,
                            path="external")

    def _record(self, timing: KernelTiming, name: str,
                bacc: Optional[BreakdownAccumulator] = None,
                path: str = "sequential") -> KernelRun:
        overhead = self.machine.launch_overhead_us
        with trace_span("fold", kernel=name, path=path):
            breakdown = None
            if bacc is not None:
                breakdown = bacc.finalize(name, timing,
                                          launch_overhead_us=overhead)
            run = KernelRun(name=name, timing=timing,
                            launch_overhead_us=overhead,
                            breakdown=breakdown, path=path)
        self.runs.append(run)
        if self.obs.enabled:
            reg = self.obs.registry
            reg.counter("kernel_launches", kernel=name).inc()
            reg.counter("kernel_time_us", kernel=name).inc(timing.time_us)
            reg.counter("kernel_threads",
                        kernel=name).inc(timing.num_threads)
            reg.counter("kernel_dram_bytes",
                        kernel=name).inc(timing.dram_bytes)
            reg.counter("kernel_barriers", kernel=name).inc(timing.barriers)
        return run

    def new_trace(self) -> ThreadTrace:
        return ThreadTrace(self.machine)

    # -- statistics -------------------------------------------------------

    @property
    def total_time_us(self) -> float:
        """Total queue time: kernels plus launch overhead.

        The first enqueue pays the full driver overhead; subsequent
        back-to-back enqueues pipeline behind GPU execution and pay only
        the dispatch gap.
        """
        if not self.runs:
            return 0.0
        overhead = self.machine.launch_overhead_us + \
            (len(self.runs) - 1) * self.machine.pipelined_launch_us
        return self.kernel_time_us + overhead

    @property
    def kernel_time_us(self) -> float:
        return sum(r.kernel_time_us for r in self.runs)

    @property
    def launches(self) -> int:
        return len(self.runs)

    def reset(self, clear_cache: bool = False) -> None:
        """Return the device to a just-constructed state for reuse.

        Clears the recorded runs (the timing accumulator behind
        :attr:`total_time_us`), releases the bound surfaces, and zeroes
        every :class:`DeviceProfile` counter, so pooled devices can be
        reused across load-generator runs without leaking state.  The
        kernel cache survives by default — recompiling is exactly what a
        pooled device wants to avoid — and its hit/miss stats are reset;
        ``clear_cache=True`` also drops the cached programs.
        """
        self.runs.clear()
        self.surfaces.clear()
        self.profile = DeviceProfile()
        self.sanitizer_results.clear()
        self.oob_lanes.clear()
        if self.kernel_cache is not None:
            if clear_cache:
                self.kernel_cache.clear()
            self.kernel_cache.stats = type(self.kernel_cache.stats)()
        if clear_cache:
            # sanitizer verdicts are keyed by kernel identity, exactly
            # like cached programs: drop them together (adopted,
            # name-keyed verdicts go too — a fresh program under an old
            # name must not inherit a stale admission).
            self._race_verdicts.clear()
            self._adopted_verdicts.clear()
            self._fresh_verdicts.clear()

    def report(self) -> str:
        """Human-readable per-run breakdown (for examples and debugging)."""
        lines = [f"device: {self.machine.name}"]
        for r in self.runs:
            tm = r.timing
            lines.append(
                f"  {r.name}: {r.total_time_us:9.1f} us "
                f"(kernel {tm.time_us:9.1f}, bound by {tm.bound_by}, "
                f"{tm.num_threads} threads, {tm.total_instructions} inst, "
                f"{tm.dram_bytes} dram bytes)")
        lines.append(f"  total: {self.total_time_us:.1f} us over "
                     f"{self.launches} launches")
        p = self.profile
        if p.threads_run:
            lines.append(
                f"  dispatch: {p.threads_run} threads, "
                f"{p.chunks_dispatched} chunks, "
                f"peak {p.peak_live_traces} live traces")
        if p.tier_launches:
            tiers = ", ".join(f"{tier}={n}"
                              for tier, n in p.tier_launches.items())
            lines.append(f"  tiers: {tiers}")
        if p.gate_outcomes:
            gates = ", ".join(f"{outcome}={n}"
                              for outcome, n in p.gate_outcomes.items())
            lines.append(f"  wide gate: {gates}")
        if self.kernel_cache is not None:
            st = self.kernel_cache.stats
            lines.append(
                f"  kernel cache: {st.hits} hits, {st.misses} misses "
                f"({st.hit_rate:.0%} hit rate), {st.evictions} evictions, "
                f"{len(self.kernel_cache)} entries")
        if self.oob_lanes:
            oob = ", ".join(f"{k}={v}"
                            for k, v in sorted(self.oob_lanes.items()))
            lines.append(f"  oob clipped lanes: {oob}")
        if self.sanitizer_results:
            clean = sum(1 for r in self.sanitizer_results if r.clean)
            lines.append(
                f"  sanitizer: {len(self.sanitizer_results)} sanitized "
                f"launch(es), {clean} clean")
            for r in self.sanitizer_results:
                if not r.clean:
                    lines.append(f"    {r.summary()}")
        return "\n".join(lines)
