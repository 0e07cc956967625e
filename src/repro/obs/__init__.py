"""Cross-cutting observability: metrics, span traces, time breakdowns.

One :class:`Observability` object bundles the three instruments this
layer offers:

- a :class:`~repro.obs.metrics.MetricsRegistry` of labeled counters /
  gauges / histograms (kernel launches, cache hit ratios, per-pass
  timings),
- a :class:`~repro.obs.tracing.Tracer` emitting structured spans
  (``compile`` > ``pass:*``, ``dispatch`` > ``chunk``) to a Chrome-trace
  or JSONL sink,
- per-kernel :class:`~repro.obs.breakdown.TimeBreakdown` attribution
  computed by the device as threads retire.

The default is :data:`DISABLED`: a null sink, no breakdowns, and spans
that compile down to one attribute check (zero-cost-when-disabled is a
hard requirement — the PR 1 batch-engine speedup must survive, see
``benchmarks/bench_obs_overhead.py``).  Enable globally::

    import repro.obs as obs
    with obs.observed() as o:
        ...run workloads...
    o.export_chrome("trace.json")
    print(o.registry.snapshot())

or per device: ``Device(obs=obs.Observability())``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.obs.breakdown import (
    BreakdownAccumulator, TimeBreakdown, merge_breakdowns,
)
from repro.obs.metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, format_labels,
)
from repro.obs.recorder import DumpReason, FlightDump, FlightRecorder
from repro.obs.request import (
    RequestTrace, SpanNode, mint_trace_id, set_trace_scope,
    traces_to_chrome,
)
from repro.obs.slo import SLObjective, SLOTracker
from repro.obs.tracing import (
    ChromeTraceSink, JsonlSink, NULL_SINK, NullSink, TeeSink, Tracer,
    active_request, get_tracer, set_tracer, trace_span,
)

__all__ = [
    "Observability", "DISABLED",
    "get_observability", "install", "enable", "disable", "observed",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "format_labels",
    "Tracer", "trace_span", "get_tracer", "set_tracer", "active_request",
    "ChromeTraceSink", "JsonlSink", "NullSink", "NULL_SINK", "TeeSink",
    "BreakdownAccumulator", "TimeBreakdown", "merge_breakdowns",
    "RequestTrace", "SpanNode", "mint_trace_id", "set_trace_scope",
    "traces_to_chrome",
    "SLObjective", "SLOTracker",
    "FlightRecorder", "FlightDump", "DumpReason",
]


class _SpanMetricsSink:
    """Wraps a sink and mirrors span durations into a histogram family."""

    enabled = True

    def __init__(self, inner, registry: MetricsRegistry) -> None:
        self.inner = inner
        self.registry = registry

    def emit(self, event: dict) -> None:
        self.inner.emit(event)
        self.registry.histogram(
            "span_duration_us", span=event["name"]).observe(
                event.get("dur", 0.0))


class Observability:
    """A bundle of registry + tracer + breakdown switch."""

    def __init__(self, enabled: bool = True, sink=None,
                 registry: Optional[MetricsRegistry] = None,
                 breakdowns: bool = True,
                 span_metrics: bool = True) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.breakdowns = enabled and breakdowns
        if enabled:
            self.sink = sink if sink is not None else ChromeTraceSink()
            tracer_sink = (_SpanMetricsSink(self.sink, self.registry)
                           if span_metrics else self.sink)
            self.tracer = Tracer(tracer_sink)
        else:
            self.sink = NULL_SINK
            self.tracer = Tracer(NULL_SINK)

    @property
    def chrome(self) -> Optional[ChromeTraceSink]:
        """The ChromeTraceSink if one is attached (possibly inside a tee)."""
        candidates = [self.sink]
        if isinstance(self.sink, TeeSink):
            candidates = list(self.sink.sinks)
        for s in candidates:
            if isinstance(s, ChromeTraceSink):
                return s
        return None

    def export_chrome(self, path_or_file) -> None:
        chrome = self.chrome
        if chrome is None:
            raise ValueError("no ChromeTraceSink attached to this "
                             "Observability instance")
        chrome.export(path_or_file)


#: The shared no-op instance used when nothing is enabled.
DISABLED = Observability(enabled=False)

_current: Observability = DISABLED


def get_observability() -> Observability:
    return _current


def install(obs: Observability) -> Observability:
    """Make ``obs`` the process-wide default (devices pick it up on
    construction; the global tracer serves compiler spans)."""
    global _current
    _current = obs
    set_tracer(obs.tracer)
    return obs


def enable(**kwargs) -> Observability:
    return install(Observability(enabled=True, **kwargs))


def disable() -> Observability:
    return install(DISABLED)


@contextmanager
def observed(**kwargs):
    """Enable observability for a block, restoring the previous state.

    Not thread-safe: the installed bundle is process-wide, and the
    save on entry and the restore on exit are separate steps.  Two
    threads whose ``observed()`` blocks overlap can leave the wrong
    :class:`Observability` installed (whichever the last one to exit
    saved).  Use it from one thread, or pass a per-device bundle
    (``Device(obs=...)``) instead.
    """
    previous = _current
    obs = enable(**kwargs)
    try:
        yield obs
    finally:
        install(previous)
