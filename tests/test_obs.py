"""Instrumentation layer: registry, spans, exports, time breakdowns."""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.obs import (
    ChromeTraceSink, JsonlSink, MetricsRegistry, Observability, TeeSink,
    merge_breakdowns, trace_span,
)
from repro.obs.tracing import NULL_SPAN
from repro.sim.device import Device
from repro.workloads import gemm


# -- metrics registry -------------------------------------------------------


class TestMetricsRegistry:
    def test_label_sets_make_distinct_children(self):
        reg = MetricsRegistry()
        a = reg.counter("launches", kernel="sgemm")
        b = reg.counter("launches", kernel="spmv")
        assert a is not b
        a.inc(3)
        b.inc()
        assert reg.get("launches", kernel="sgemm").value == 3
        assert reg.get("launches", kernel="spmv").value == 1

    def test_same_labels_return_same_child(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", cache="kernel", level="l1")
        b = reg.counter("hits", level="l1", cache="kernel")  # order-free
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_gauge_set_max(self):
        g = MetricsRegistry().gauge("peak")
        g.set_max(4)
        g.set_max(2)
        assert g.value == 4

    def test_histogram_buckets_and_mean(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0), unit="us")
        for v in (0.5, 5.0, 100.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(35.166666, rel=1e-5)
        assert h.buckets[-1] == float("inf")
        assert h.counts == [1, 1, 1]

    def test_snapshot_is_flat_and_labeled(self):
        reg = MetricsRegistry()
        reg.counter("n", kernel="k1").inc(2)
        reg.gauge("peak").set(7)
        snap = reg.snapshot()
        assert snap == {"n{kernel=k1}": 2, "peak": 7}

    def test_as_dict_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.histogram("h", pass_name="baling").observe(3.0)
        doc = json.loads(json.dumps(reg.as_dict()))
        assert doc["h"][0]["labels"] == {"pass_name": "baling"}
        assert doc["h"][0]["count"] == 1


# -- span tracing -----------------------------------------------------------


class TestTracing:
    def test_disabled_fast_path_returns_shared_null_span(self):
        # The module default is disabled: no allocation per span.
        assert trace_span("anything", kernel="x") is NULL_SPAN
        with trace_span("still") as s:
            s.set(attr=1)  # must be a silent no-op

    def test_span_nesting_and_chrome_export(self, tmp_path):
        with obs.observed() as o:
            with trace_span("outer", kernel="k"):
                with trace_span("inner"):
                    pass
        path = tmp_path / "trace.json"
        o.export_chrome(str(path))
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["outer", "inner"]
        outer, inner = events
        # inner nests inside outer's interval, timestamps monotonic
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-6
        assert outer["args"] == {"kernel": "k"}
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_observed_restores_previous_state(self):
        before = obs.get_observability()
        with obs.observed():
            assert obs.get_observability().enabled
        assert obs.get_observability() is before

    def test_jsonl_sink_streams_parseable_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with obs.observed(sink=JsonlSink(str(path)), span_metrics=False):
            with trace_span("a"):
                pass
            with trace_span("b", n=2):
                pass
        lines = [json.loads(ln) for ln in
                 path.read_text().strip().splitlines()]
        assert [ev["name"] for ev in lines] == ["a", "b"]
        assert lines[1]["args"] == {"n": 2}

    def test_tee_sink_fans_out(self):
        chrome = ChromeTraceSink()
        chrome2 = ChromeTraceSink()
        with obs.observed(sink=TeeSink(chrome, chrome2), span_metrics=False):
            with trace_span("x"):
                pass
        assert len(chrome.events) == len(chrome2.events) == 1

    def test_span_durations_mirrored_into_registry(self):
        with obs.observed() as o:
            with trace_span("compile", kernel="k"):
                pass
        h = o.registry.get("span_duration_us", span="compile")
        assert h is not None and h.count == 1


# -- device integration -----------------------------------------------------


def _small_sgemm(device):
    a, b, c = gemm.make_inputs(32, 16, 8, seed=5)
    return gemm.run_cm_sgemm(device, a, b, c), gemm.reference(a, b, c)


class TestDeviceIntegration:
    def test_breakdown_buckets_sum_to_kernel_time(self):
        dev = Device(obs=Observability())
        out, ref = _small_sgemm(dev)
        assert np.allclose(out, ref, atol=1e-3)
        run = dev.runs[0]
        assert run.breakdown is not None
        total = sum(run.breakdown.buckets.values())
        assert total == pytest.approx(run.timing.time_us, rel=0.01)
        assert "alu" in run.breakdown.buckets
        # image reads are labeled per bound surface
        assert any(k.startswith("load:img") for k in run.breakdown.buckets)

    def test_breakdowns_off_when_disabled(self):
        dev = Device()  # module default: disabled observability
        _small_sgemm(dev)
        assert dev.runs[0].breakdown is None

    def test_compiled_path_breakdown_and_spans(self):
        a, b, c = gemm.make_inputs(16, 16, 8, seed=7)
        with obs.observed() as o:
            dev = Device()
            out = gemm.run_cm_sgemm_compiled(dev, a, b, c)
        assert np.allclose(out, gemm.reference(a, b, c, 1.0, 1.0), atol=1e-3)
        run = dev.runs[0]
        assert sum(run.breakdown.buckets.values()) == pytest.approx(
            run.timing.time_us, rel=0.01)
        names = {e["name"] for e in o.chrome.events}
        assert "compile" in names and "dispatch" in names
        assert any(n.startswith("pass:") for n in names)
        # per-kernel counters land in the shared registry
        launches = o.registry.get("kernel_launches", kernel="cm_sgemm_jit")
        assert launches is not None and launches.value == 1

    def test_merge_breakdowns_accumulates_launches(self):
        dev = Device(obs=Observability())
        _small_sgemm(dev)
        _small_sgemm(dev)
        merged = merge_breakdowns([r.breakdown for r in dev.runs])
        assert merged.launches == 2
        assert merged.time_us == pytest.approx(
            sum(r.timing.time_us for r in dev.runs))
        assert sum(merged.buckets.values()) == pytest.approx(
            merged.time_us, rel=0.01)

    def test_peak_live_traces_tracks_real_high_water(self):
        a, b, c = gemm.make_inputs(16, 16, 8, seed=7)

        def launch(max_live_threads):
            dev = Device()
            kern = dev.compile(gemm._jit_gemm_body(8), "cm_sgemm_jit",
                               gemm._JIT_SIG, ["tx", "ty"])
            surfs = [dev.image2d(m.copy(), bytes_per_pixel=4)
                     for m in (a, b, c)]
            dev.run_compiled(kern, (2, 2), surfs,
                             scalars=lambda t: {"tx": t[0], "ty": t[1]},
                             max_live_threads=max_live_threads,
                             tier="sequential")
            return dev

        # chunk of 1: traces retire immediately, peak is exactly 1 (the
        # pre-fix code clamped with max(..., len(live)) only at retire,
        # so this case already worked; the streaming eager path below is
        # the one that used to hard-code 1 even for 0-thread grids).
        assert launch(1).profile.peak_live_traces == 1
        # chunk of 3 over 4 threads: 3 live before the first retire
        assert launch(3).profile.peak_live_traces == 3
        # chunk larger than the grid: all 4 live at the end
        assert launch(64).profile.peak_live_traces == 4

    def test_eager_path_streams_with_single_live_trace(self):
        dev = Device()
        _small_sgemm(dev)
        assert dev.profile.peak_live_traces == 1
        assert dev.profile.threads_run == 1

    def test_profile_is_registry_backed(self):
        dev = Device()
        _small_sgemm(dev)
        snap = dev.profile.registry.snapshot()
        assert snap["device_threads_run"] == dev.profile.threads_run
        assert snap["device_peak_live_traces"] == 1

    def test_cache_hit_ratio_in_report(self):
        a, b, c = gemm.make_inputs(16, 16, 8, seed=7)
        dev = Device()
        for _ in range(4):
            gemm.run_cm_sgemm_compiled(dev, a, b, c)
        assert dev.profile.compile_cache_misses == 1
        assert dev.profile.compile_cache_hits == 3
        assert "(75% hit rate)" in dev.report()

    def test_cache_metrics_mirrored_when_enabled(self):
        a, b, c = gemm.make_inputs(16, 16, 8, seed=7)
        with obs.observed() as o:
            dev = Device()
            gemm.run_cm_sgemm_compiled(dev, a, b, c)
            gemm.run_cm_sgemm_compiled(dev, a, b, c)
        assert o.registry.get("kernel_cache_misses").value == 1
        assert o.registry.get("kernel_cache_hits").value == 1


# -- profiler CLI -----------------------------------------------------------


class TestProfileReport:
    def test_gemm_profile_document(self, tmp_path):
        from repro.report.profile import profile_workload, render_report

        trace_path = tmp_path / "trace.json"
        doc = profile_workload("gemm", quick=True,
                               trace_path=str(trace_path))
        kernels = {k["kernel"]: k for k in doc["kernels"]}
        assert "cm_sgemm" in kernels and "cm_sgemm_jit" in kernels
        for k in kernels.values():
            assert sum(k["buckets_us"].values()) == pytest.approx(
                k["time_us"], rel=0.01)
        # exported trace loads and contains compile + dispatch spans
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"compile", "dispatch"} <= names
        text = render_report(doc)
        assert "cm_sgemm" in text and "(bucket sum)" in text
        # the JSON half of the doc survives serialization
        json.dumps({k: v for k, v in doc.items()
                    if not k.startswith("_")})

    def test_unknown_workload_raises(self):
        from repro.report.profile import profile_workload

        with pytest.raises(KeyError):
            profile_workload("nope")
