"""Grid-vectorized (wide) dispatch on the JIT tier: eligibility,
chunking, per-thread scratch, timing parity, vectorized atomics.

The JIT megakernel runs on the stacked register files, vectorized SEND
handlers and :class:`~repro.isa.wide.WideScratch` of
:mod:`repro.isa.wide`.  The differential fuzz in
test_fuzz_differential.py pins its bit-identity with per-thread
sequential execution; this file covers the dispatch plumbing around it
— path selection in ``Device.run_compiled``, chunked execution under
``max_live_threads``, per-thread scratch spill rows, trace/timing
parity with the breakdown profiler's per-thread fan-out, and the
observability surface.
"""

import dataclasses

import numpy as np
import pytest

from repro.isa.instructions import Instruction, MessageDesc, Opcode
from repro.isa.jit import JitTracingExecutor, jit_eligible
from repro.isa.wide import WideScratch
from repro.memory.surfaces import BufferSurface
from repro.obs import Observability
from repro.sim.device import Device
from repro.workloads import gemm

_VEC = 16


def _saxpy_body(cmx, xbuf, ybuf, tid):
    off = tid * (_VEC * 4)
    x = cmx.vector(np.float32, _VEC)
    cmx.read(xbuf, off, x)
    y = cmx.vector(np.float32, _VEC)
    cmx.read(ybuf, off, y)
    out = cmx.vector(np.float32, _VEC)
    out.assign(x * np.float32(2.0) + y)
    cmx.write(ybuf, off, out)


_SAXPY_SIG = [("xbuf", False), ("ybuf", False)]


def _run_saxpy(tier, n_threads=64, max_live_threads=1024, executor=None,
               obs=None, validate="off", scalars=lambda tid: {"tid": tid[0]}):
    dev = Device(obs=obs) if obs is not None else Device()
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    xbuf = dev.buffer(x.copy())
    ybuf = dev.buffer(y.copy())
    kern = dev.compile(_saxpy_body, "wsaxpy", _SAXPY_SIG, ["tid"])
    run = dev.run_compiled(kern, grid=(n_threads,), surfaces=[xbuf, ybuf],
                           scalars=scalars, name="wsaxpy", tier=tier,
                           max_live_threads=max_live_threads,
                           executor=executor, validate=validate)
    expect = 2.0 * x + y
    got = ybuf.to_numpy().view(np.float32)
    assert np.allclose(got, expect, atol=1e-6)
    assert tier == "auto" or run.path == tier
    return dev, run


def _timing_equal(a, b):
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a))


class TestEligibility:
    def test_compiled_programs_are_eligible(self):
        dev = Device()
        kern = dev.compile(_saxpy_body, "wsaxpy", _SAXPY_SIG, ["tid"])
        assert jit_eligible(kern.program)

    def test_unknown_send_kind_is_ineligible(self):
        # Forward-compat guard: a send the vectorized handlers do not
        # cover must route to the sequential path, not mis-execute.
        bad = Instruction(Opcode.SEND,
                          msg=MessageDesc(kind=None, surface=0))
        assert not jit_eligible([bad])

    def test_wide_true_on_ineligible_program_raises(self):
        dev = Device()
        kern = dev.compile(_saxpy_body, "wsaxpy", _SAXPY_SIG, ["tid"])
        kern.program[0].msg = None  # corrupt: send without descriptor
        if kern.program[0].opcode is not Opcode.SEND:
            kern.program.insert(0, Instruction(
                Opcode.SEND, msg=MessageDesc(kind=None, surface=0)))
        buf = dev.buffer(np.zeros(_VEC, dtype=np.float32))
        with pytest.raises(ValueError, match="not JIT-eligible"):
            dev.run_compiled(kern, grid=(1,), surfaces=[buf, buf],
                             scalars={"tid": 0}, tier="jit")


class TestTimingParity:
    def test_saxpy_wide_matches_scalar(self):
        _, run_w = _run_saxpy("jit")
        _, run_s = _run_saxpy("sequential")
        assert _timing_equal(run_w.timing, run_s.timing)

    def test_chunked_wide_matches_unchunked(self):
        # 64 threads in chunks of 9: totals must not depend on chunking.
        _, run_c = _run_saxpy("jit", max_live_threads=9)
        _, run_u = _run_saxpy("jit")
        assert _timing_equal(run_c.timing, run_u.timing)
        _, run_s = _run_saxpy("sequential")
        assert _timing_equal(run_c.timing, run_s.timing)

    def test_gemm_wide_matches_scalar_with_breakdown(self):
        a, b, c = gemm.make_inputs(16, 16, 8, seed=3)

        def launch(tier):
            dev = Device(obs=Observability())
            kern = dev.compile(gemm._jit_gemm_body(8), "cm_sgemm_jit",
                               gemm._JIT_SIG, ["tx", "ty"])
            surfs = [dev.image2d(m.copy(), bytes_per_pixel=4)
                     for m in (a, b, c)]
            run = dev.run_compiled(
                kern, (2, 2), surfs,
                scalars=lambda t: {"tx": t[0], "ty": t[1]}, tier=tier)
            assert run.path == tier
            return surfs[2].to_numpy().copy(), run

        out_w, run_w = launch("jit")
        out_s, run_s = launch("sequential")
        assert np.array_equal(out_w, out_s)
        assert _timing_equal(run_w.timing, run_s.timing)
        assert run_w.breakdown.buckets == pytest.approx(
            run_s.breakdown.buckets)


class TestScratch:
    def test_spilled_kernel_wide_matches_scalar(self):
        n_vecs = 80  # > 124 free GRFs: forces scratch spills

        def body(cmx, src, out, tid):
            base = tid * (n_vecs * 64)
            vecs = []
            for i in range(n_vecs):
                v = cmx.vector(np.float32, 16)
                cmx.read(src, base + i * 64, v)
                vecs.append(v)
            acc = cmx.vector(np.float32, 16, np.zeros(16))
            for v in reversed(vecs):
                acc += v
            cmx.write(out, tid * 64, acc)

        n_threads = 3

        def launch(tier):
            dev = Device()
            src_data = np.arange(n_threads * n_vecs * 16,
                                 dtype=np.float32)
            src = dev.buffer(src_data.copy())
            out = dev.buffer(np.zeros(n_threads * 16, dtype=np.float32))
            kern = dev.compile(body, "spilly_w",
                               [("src", False), ("out", False)], ["tid"],
                               optimize=False)
            assert kern.allocation.spills > 0
            run = dev.run_compiled(kern, grid=(n_threads,),
                                   surfaces=[src, out],
                                   scalars=lambda t: {"tid": t[0]},
                                   tier=tier)
            assert run.path == tier
            return out.to_numpy().view(np.float32).copy(), run

        out_w, run_w = launch("jit")
        out_s, run_s = launch("sequential")
        assert np.array_equal(out_w, out_s)
        assert _timing_equal(run_w.timing, run_s.timing)

    def test_wide_scratch_rows_are_private(self):
        ws = WideScratch(3, 64)
        ws.write_linear_many(np.array([0, 8, 16]),
                             np.arange(12, dtype=np.uint32).reshape(3, 4)
                             .view(np.uint8))
        rows = ws.read_linear_many(np.array([0, 8, 16]), 16)
        assert np.array_equal(rows[0], rows[0])  # self-consistent
        assert not np.array_equal(ws.bytes2d[0], ws.bytes2d[1])

    def test_wide_scratch_resize_keeps_line_tracking(self):
        ws = WideScratch(2, 256)
        total, new = ws.mark_lines_range_many(np.array([0, 64]), 64)
        assert new.sum() == 2
        ws.resize(4)
        assert ws.bytes2d.shape == (4, 256)
        # same lines again: already touched, no new compulsory misses
        total, new = ws.mark_lines_range_many(np.array([0, 64]), 64)
        assert new.sum() == 0


class TestDispatchPlumbing:
    # These tests pin the vector-tier plumbing itself, so they run with
    # validate="off" (the _run_saxpy default); the sanitized
    # first-launch gating of tier="auto" is covered in test_sanitize.py.
    def test_wide_is_the_default_for_eligible_programs(self):
        dev, run = _run_saxpy("auto")
        assert run.path == "jit"
        # vector tiers keep whole chunks of traces live
        assert dev.profile.peak_live_traces == 64
        assert dev.profile.threads_run == 64

    def test_pooled_wide_executor_reused_across_launches(self):
        pooled = JitTracingExecutor()
        _, run1 = _run_saxpy("jit", executor=pooled)
        assert pooled.num_threads == 64  # the hint was taken
        _, run2 = _run_saxpy("jit", executor=pooled)
        _, run_s = _run_saxpy("sequential")
        assert _timing_equal(run1.timing, run_s.timing)
        assert _timing_equal(run2.timing, run_s.timing)

    def test_dispatch_wide_span_emitted(self):
        from repro import obs as obs_mod
        from repro.obs.tracing import ChromeTraceSink

        sink = ChromeTraceSink()
        with obs_mod.observed(sink=sink, span_metrics=False):
            _run_saxpy("jit", max_live_threads=40)
        wide_spans = [e for e in sink.events
                      if e["name"] == "dispatch:jit"]
        assert len(wide_spans) == 2  # 64 threads in chunks of 40 + 24
        assert sorted(e["args"]["threads"] for e in wide_spans) == [24, 40]
        outer = [e for e in sink.events if e["name"] == "dispatch"]
        assert outer and outer[0]["args"]["path"] == "jit"

    @pytest.mark.parametrize("grid", [(5,), (4, 3), (2, 3, 4), ()])
    def test_coordinate_columns_follow_grid_ids(self, grid):
        from repro.sim import device as device_mod

        coords = device_mod._grid_coords(grid)
        ids = list(Device()._grid_ids(grid))
        assert device_mod._thread_ids(coords, 0, len(ids)) == ids

    @pytest.mark.parametrize("tier", ["sequential", "jit"])
    def test_scalars_callable_gets_one_coordinate_tuple_per_chunk(self, tier):
        calls = []

        def scalars(tid):
            calls.append(tid)
            return {"tid": tid[0]}

        _, run = _run_saxpy(tier, n_threads=10, max_live_threads=4,
                            scalars=scalars)
        assert [len(c) for c in calls] == [1, 1, 1]
        assert [c[0].tolist() for c in calls] == \
            [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        # an int value is shared by the chunk (_run_saxpy checks the sum)
        _run_saxpy(tier, n_threads=1, scalars=lambda tid: {"tid": 0})


class TestWideAtomicReduction:
    def test_fast_int_atomic_matches_lane_loop(self):
        # The grouped prefix-sum reduction for add/sub/inc/dec must match
        # the sequential lane loop exactly, including returned old values
        # under heavy same-address collisions and wraparound.
        from repro.isa.dtypes import UD
        from repro.isa.wide import _fast_int_atomic

        rng = np.random.default_rng(5)
        n = 64
        offsets = (rng.integers(0, 4, n) * 4).astype(np.int64)
        operands = rng.integers(0, 2**32, n, dtype=np.uint64) \
            .astype(np.uint32)
        mask = rng.random(n) > 0.3

        ref_surf = BufferSurface(np.arange(16, dtype=np.uint8).copy())
        with np.errstate(all="ignore"):
            ref_old = ref_surf.atomic("add", offsets, operands, UD,
                                      mask=mask)

        surf = BufferSurface(np.arange(16, dtype=np.uint8).copy())
        old = _fast_int_atomic(surf, "add", offsets, operands, UD, mask)
        assert old is not None
        assert np.array_equal(old, ref_old)
        assert np.array_equal(surf.bytes, ref_surf.bytes)

    def test_unsupported_op_falls_back(self):
        from repro.isa.dtypes import D, F
        from repro.isa.wide import _fast_int_atomic

        surf = BufferSurface(np.zeros(16, dtype=np.uint8))
        offs = np.zeros(4, dtype=np.int64)
        ops = np.ones(4, dtype=np.int32)
        assert _fast_int_atomic(surf, "max", offs, ops, D, None) is None
        assert _fast_int_atomic(
            surf, "add", offs, ops.astype(np.float32), F, None) is None
