"""Batch-execution engine: kernel cache, streaming timing, run_compiled.

Also holds the regression tests for the three bug fixes that shipped with
the engine: logical-vs-arithmetic right shift, multi-line cache-line
coalescing, and predicated atomic return writeback.
"""

import numpy as np

from repro import cm
from repro.compiler import compile_kernel
from repro.compiler.cache import KernelCache, compile_kernel_cached
from repro.isa.dtypes import D, F, UD, W
from repro.isa.executor import FunctionalExecutor
from repro.isa.grf import RegOperand
from repro.isa.instructions import (
    FlagOperand, Immediate, Instruction, MessageDesc, MsgKind, Opcode,
    Predicate,
)
from repro.isa.regions import Region
from repro.memory.surfaces import BufferSurface
from repro.memory.traffic import spanned_lines, unique_cache_lines
from repro.sim import Device, MemKind, ThreadTrace, TimingAccumulator
from repro.sim.machine import GEN11_ICL
from repro.sim.timing import time_kernel
from repro.workloads import gemm


def _packed(n):
    w = min(n, 8)
    return Region(w, w, 1)


def _load_reg(ex, reg, values, dtype):
    ex.grf.write_bytes(reg * 32, np.asarray(values, dtype=dtype.np_dtype))


def _copy_body(cmx, src, dst):
    v = cmx.vector(np.uint32, 16)
    cmx.read(src, 0, v)
    cmx.write(dst, 0, v)


def _scale_body(cmx, src, dst):
    v = cmx.vector(np.uint32, 16)
    cmx.read(src, 0, v)
    w = cmx.vector(np.uint32, 16)
    w.assign(v + v)
    cmx.write(dst, 0, w)


_COPY_SIG = [("src", False), ("dst", False)]


class TestKernelCache:
    def test_hit_after_miss(self):
        cache = KernelCache()
        k1, hit1 = cache.lookup(_copy_body, "copy", _COPY_SIG)
        k2, hit2 = cache.lookup(_copy_body, "copy", _COPY_SIG)
        assert (hit1, hit2) == (False, True)
        assert k1 is k2
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_bodies_distinct_entries(self):
        cache = KernelCache()
        k1 = cache.get_or_compile(_copy_body, "k", _COPY_SIG)
        k2 = cache.get_or_compile(_scale_body, "k", _COPY_SIG)
        assert k1 is not k2
        assert len(cache) == 2 and cache.stats.misses == 2

    def test_signature_is_part_of_the_key(self):
        cache = KernelCache()
        cache.get_or_compile(_copy_body, "copy", _COPY_SIG)
        cache.get_or_compile(_copy_body, "copy", _COPY_SIG, optimize=False)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_explicit_invalidation(self):
        cache = KernelCache()
        cache.get_or_compile(_copy_body, "copy", _COPY_SIG)
        assert cache.invalidate(name="copy") == 1
        assert cache.stats.invalidations == 1
        _, hit = cache.lookup(_copy_body, "copy", _COPY_SIG)
        assert not hit

    def test_lru_eviction(self):
        cache = KernelCache(maxsize=1)
        cache.get_or_compile(_copy_body, "a", _COPY_SIG)
        cache.get_or_compile(_scale_body, "b", _COPY_SIG)
        assert len(cache) == 1 and cache.stats.evictions == 1
        # "a" was evicted: compiling it again misses.
        _, hit = cache.lookup(_copy_body, "a", _COPY_SIG)
        assert not hit

    def test_compile_kernel_cached_helper(self):
        cache = KernelCache()
        k1 = compile_kernel_cached(_copy_body, "copy", _COPY_SIG, cache=cache)
        k2 = compile_kernel_cached(_copy_body, "copy", _COPY_SIG, cache=cache)
        assert k1 is k2 and cache.stats.hits == 1

    def test_device_compile_counts_in_profile(self):
        dev = Device()
        k1 = dev.compile(_copy_body, "copy", _COPY_SIG)
        k2 = dev.compile(_copy_body, "copy", _COPY_SIG)
        assert k1 is k2
        assert dev.profile.compile_cache_misses == 1
        assert dev.profile.compile_cache_hits == 1
        assert "kernel cache: 1 hits, 1 misses" in dev.report()


def _synthetic_traces(machine, count=6):
    traces = []
    for i in range(count):
        tr = ThreadTrace(machine)
        tr.alu(16, F)
        tr.scalar_op(3)
        ev = tr.memory(MemKind.OWORD_READ, nbytes=128, lines=2, dram_lines=1,
                       l3_bytes=128)
        tr.alu(8 + i, D)
        tr.consume(ev)
        tr.memory(MemKind.SCATTER, nbytes=64, lines=3, dram_lines=2,
                  is_read=False)
        tr.memory(MemKind.SLM_READ, nbytes=64, slm_cycles=4)
        tr.memory(MemKind.SAMPLER, nbytes=64, lines=1, texels=16)
        tr.atomic_global([1, 2, 2 + i], surface_id=7)
        tr.barrier()
        tr.note_grf(1024 + i * 32)
        traces.append(tr)
    return traces


_TIMING_FIELDS = [
    "num_threads", "total_instructions", "compute_cycles", "dram_cycles",
    "l3_cycles", "dataport_cycles", "sampler_cycles", "slm_cycles",
    "atomic_cycles", "latency_cycles", "dram_bytes", "global_read_bytes",
    "global_write_bytes", "slm_bytes", "texels", "barriers", "messages",
    "max_grf_bytes",
]


class TestTimingAccumulator:
    def test_bit_identical_to_time_kernel(self):
        traces = _synthetic_traces(GEN11_ICL)
        batch = time_kernel(traces, GEN11_ICL)
        acc = TimingAccumulator(GEN11_ICL)
        for tr in traces:
            acc.add(tr)
        streamed = acc.finalize()
        for fieldname in _TIMING_FIELDS:
            assert getattr(streamed, fieldname) == getattr(batch, fieldname), \
                fieldname
        assert streamed.bounds == batch.bounds
        assert streamed.cycles == batch.cycles
        assert streamed.bound_by == batch.bound_by

    def test_finalize_is_repeatable_and_incremental(self):
        traces = _synthetic_traces(GEN11_ICL)
        acc = TimingAccumulator(GEN11_ICL)
        acc.extend(traces[:3])
        partial = acc.finalize()
        assert partial.num_threads == 3
        assert partial.cycles == time_kernel(traces[:3], GEN11_ICL).cycles
        acc.extend(traces[3:])
        assert acc.finalize().cycles == time_kernel(traces, GEN11_ICL).cycles

    def test_empty_accumulator(self):
        t = TimingAccumulator(GEN11_ICL).finalize()
        assert t.num_threads == 0 and t.cycles == 0.0


# -- run_compiled vs eager run_cm ---------------------------------------------

_BM, _BN, _K = 8, 16, 8


def _gemm_body(cmx, abuf, bbuf, cbuf, tx, ty):
    row0 = ty * _BM
    col0 = tx * _BN
    atile = cmx.matrix(np.float32, _BM, _K)
    cmx.read(abuf, 0, row0, atile)
    btile = cmx.matrix(np.float32, _K, _BN)
    cmx.read(bbuf, col0 * 4, 0, btile)
    acc = cmx.matrix(np.float32, _BM, _BN, np.zeros(_BM * _BN, np.float32))
    for kk in range(_K):
        a_b = atile.replicate(_BM, _K, _BN, 0, kk)
        b_b = btile.replicate(_BM, 0, _BN, 1, kk * _BN)
        acc += a_b * b_b
    ctile = cmx.matrix(np.float32, _BM, _BN)
    cmx.read(cbuf, col0 * 4, row0, ctile)
    out = cmx.matrix(np.float32, _BM, _BN)
    out.assign(acc + ctile * np.float32(0.0))
    cmx.write(cbuf, col0 * 4, row0, out)


def _reduce_sum(vec, n):
    w = n // 2
    while w >= 1:
        lo = vec.select(w, 1, 0)
        lo += vec.select(w, 1, w)
        w //= 2


_NB, _CHUNK, _THREADS = 8, 64, 4


@cm.cm_kernel
def _hist_eager(src, out):
    t = cm.thread_x()
    chunk = cm.vector(cm.uchar, _CHUNK)
    cm.read(src, t * _CHUNK, chunk)
    counts = cm.vector(cm.uint, _NB, 0)
    ones = cm.vector(cm.uint, _CHUNK, 1)
    for b in range(_NB):
        binvec = cm.vector(cm.uint, _CHUNK, 0)
        binvec.merge(ones, chunk == b)
        _reduce_sum(binvec, _CHUNK)
        counts.select(1, 1, b).assign(binvec.select(1, 1, 0))
    offs = cm.vector(cm.uint, _NB, np.arange(_NB))
    cm.write_scattered(out, t * _NB, offs, counts)


def _hist_body(cmx, src, out, t):
    chunk = cmx.vector(np.uint8, _CHUNK)
    cmx.read(src, t * _CHUNK, chunk)
    counts = cmx.vector(np.uint32, _NB, np.zeros(_NB, np.uint32))
    ones = cmx.vector(np.uint32, _CHUNK, np.ones(_CHUNK, np.uint32))
    for b in range(_NB):
        binvec = cmx.vector(np.uint32, _CHUNK, np.zeros(_CHUNK, np.uint32))
        binvec.merge(ones, chunk == b)
        _reduce_sum(binvec, _CHUNK)
        counts.select(1, 1, b).assign(binvec.select(1, 1, 0))
    cmx.write_scattered(out, t * _NB, np.arange(_NB), counts)


class TestRunCompiledVsEager:
    def _run_gemm_pair(self, max_live_threads=1024, tier="auto"):
        m, n, k = 16, 32, _K
        a, b, c = gemm.make_inputs(m, n, k, seed=5)
        dev_e = Device()
        out_e = gemm._run_cm_typed(dev_e, a, b, c, 1.0, 0.0, cm.float32,
                                   _BM, _BN, "gemm_small")
        dev_c = Device()
        kern = dev_c.compile(_gemm_body, "gemm_small_c",
                             [("abuf", True), ("bbuf", True), ("cbuf", True)],
                             ["tx", "ty"])
        abuf = dev_c.image2d(a.copy(), bytes_per_pixel=4)
        bbuf = dev_c.image2d(b.copy(), bytes_per_pixel=4)
        cbuf = dev_c.image2d(c.copy(), bytes_per_pixel=4)
        run = dev_c.run_compiled(
            kern, (n // _BN, m // _BM), [abuf, bbuf, cbuf],
            scalars=lambda tid: {"tx": tid[0], "ty": tid[1]},
            max_live_threads=max_live_threads, tier=tier)
        return dev_e, out_e, dev_c, cbuf.to_numpy().copy(), run, (a, b, c)

    def test_gemm_outputs_identical_and_same_bound(self):
        dev_e, out_e, dev_c, out_c, run, (a, b, c) = self._run_gemm_pair()
        assert np.allclose(out_e, gemm.reference(a, b, c, 1.0, 0.0),
                           atol=1e-4)
        assert np.array_equal(out_e, out_c)
        eager = dev_e.runs[0].timing
        assert run.timing.bound_by == eager.bound_by
        assert run.timing.num_threads == eager.num_threads

    def test_gemm_chunked_dispatch_matches_unchunked(self):
        # pin the scalar path (the JIT tier has its own chunking
        # tests in test_wide_dispatch.py and test_jit.py).
        _, _, dev1, out1, run1, _ = self._run_gemm_pair(
            max_live_threads=64, tier="sequential")
        _, _, dev2, out2, run2, _ = self._run_gemm_pair(
            max_live_threads=1, tier="sequential")
        assert np.array_equal(out1, out2)
        assert run1.timing.cycles == run2.timing.cycles
        assert dev2.profile.chunks_dispatched == 4
        assert dev2.profile.peak_live_traces == 1
        assert dev1.profile.peak_live_traces == 4

    def test_histogram_outputs_identical_and_same_bound(self):
        rng = np.random.default_rng(11)
        pixels = rng.integers(0, _NB, size=_CHUNK * _THREADS, dtype=np.uint8)

        dev_e = Device()
        src_e = dev_e.buffer(pixels.copy())
        out_e = dev_e.buffer(np.zeros(_NB * _THREADS, dtype=np.uint32))
        dev_e.run_cm(_hist_eager, grid=(_THREADS,), args=(src_e, out_e),
                     name="hist")
        parts_e = out_e.to_numpy().reshape(_THREADS, _NB).copy()

        dev_c = Device()
        kern = dev_c.compile(_hist_body, "hist_c",
                             [("src", False), ("out", False)], ["t"])
        src_c = dev_c.buffer(pixels.copy())
        out_c = dev_c.buffer(np.zeros(_NB * _THREADS, dtype=np.uint32))
        run = dev_c.run_compiled(kern, (_THREADS,), [src_c, out_c],
                                 scalars=lambda tid: {"t": tid[0]})
        parts_c = out_c.to_numpy().reshape(_THREADS, _NB).copy()

        expect = np.bincount(pixels, minlength=_NB).astype(np.uint32)
        assert np.array_equal(parts_e.sum(axis=0, dtype=np.uint32), expect)
        assert np.array_equal(parts_e, parts_c)
        assert run.timing.bound_by == dev_e.runs[0].timing.bound_by


# -- bugfix regressions --------------------------------------------------------


class TestShiftSemantics:
    def test_shr_is_logical_on_negative_dwords(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, [-8, -1, 16, -(2 ** 31)], D)
        ex.execute(Instruction(
            Opcode.SHR, 4, RegOperand(2, 0, D),
            [RegOperand(1, 0, D, _packed(4)), Immediate(2, D)]))
        # Negative values shift in zero bits, not copies of the sign bit.
        assert ex.grf.dump_reg(2, D)[:4].tolist() == [
            (0xFFFFFFF8) >> 2, 0xFFFFFFFF >> 2, 4, 0x80000000 >> 2]

    def test_shr_is_logical_on_negative_words(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, [-4, -32768, 6, -1], W)
        ex.execute(Instruction(
            Opcode.SHR, 4, RegOperand(2, 0, W),
            [RegOperand(1, 0, W, _packed(4)), Immediate(1, W)]))
        assert ex.grf.dump_reg(2, W)[:4].tolist() == [
            0xFFFC >> 1, 0x8000 >> 1, 3, 0xFFFF >> 1]

    def test_asr_replicates_sign_on_unsigned_operands(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, [0x80000000, 4], UD)
        ex.execute(Instruction(
            Opcode.ASR, 2, RegOperand(2, 0, UD),
            [RegOperand(1, 0, UD, Region(2, 2, 1)), Immediate(1, UD)]))
        assert ex.grf.dump_reg(2, UD)[:2].tolist() == [0xC0000000, 2]

    def test_asr_on_signed_matches_python(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, [-8, -1, 16, 7], D)
        ex.execute(Instruction(
            Opcode.ASR, 4, RegOperand(2, 0, D),
            [RegOperand(1, 0, D, _packed(4)), Immediate(2, D)]))
        assert ex.grf.dump_reg(2, D)[:4].tolist() == [-2, -1, 4, 1]

    def test_compiled_signed_shift_is_arithmetic(self):
        """The frontend lowers a signed ``>>`` to asr (C semantics)."""
        def body(cmx, src, dst):
            v = cmx.vector(np.int32, 8)
            cmx.read(src, 0, v)
            w = cmx.vector(np.int32, 8)
            w.assign(v >> 1)
            cmx.write(dst, 0, w)

        data = np.array([-8, -1, -2 ** 31, -3, 0, 5, 100, -100],
                        dtype=np.int32)
        src = BufferSurface(data.copy())
        dst = BufferSurface(np.zeros(8, dtype=np.int32))
        k = compile_kernel(body, "sshift", _COPY_SIG)
        k.run([src, dst])
        assert dst.to_numpy().tolist() == (data >> 1).tolist()

    def test_compiled_unsigned_shift_is_logical(self):
        def body(cmx, src, dst):
            v = cmx.vector(np.uint32, 8)
            cmx.read(src, 0, v)
            w = cmx.vector(np.uint32, 8)
            w.assign(v >> 1)
            cmx.write(dst, 0, w)

        data = np.array([0x80000000, 0xFFFFFFFF, 8, 1, 0, 3, 2 ** 31 + 1, 6],
                        dtype=np.uint32)
        src = BufferSurface(data.copy())
        dst = BufferSurface(np.zeros(8, dtype=np.uint32))
        k = compile_kernel(body, "ushift", _COPY_SIG)
        k.run([src, dst])
        assert dst.to_numpy().tolist() == (data >> 1).tolist()


class TestCacheLineCoalescing:
    def test_single_access_spanning_three_lines(self):
        # Bytes [10, 160): lines 0, 1, and 2 — the middle line must be
        # charged too, not just the first and last.
        assert unique_cache_lines(np.array([10]), access_bytes=150) == 3

    def test_spanned_lines_enumerates_interior_lines(self):
        lines = spanned_lines(np.array([0]), access_bytes=256, line_bytes=64)
        assert sorted(lines.tolist()) == [0, 1, 2, 3]

    def test_overlapping_accesses_still_deduplicate(self):
        offs = np.array([0, 32, 64])
        assert unique_cache_lines(offs, access_bytes=64) == 2

    def test_surface_line_tracking_counts_interior_lines(self):
        surf = BufferSurface(np.zeros(512, dtype=np.uint8))
        total, new = surf.mark_lines_offsets(np.array([0]), access_bytes=192)
        assert (total, new) == (3, 3)
        total, new = surf.mark_lines_offsets(np.array([0]), access_bytes=192)
        assert (total, new) == (3, 0)


class TestPredicatedAtomicWriteback:
    def test_disabled_lanes_keep_destination(self):
        surf = BufferSurface((np.arange(8, dtype=np.uint32) * 10).copy())
        ex = FunctionalExecutor({0: surf})
        _load_reg(ex, 1, range(8), UD)        # element offsets
        _load_reg(ex, 2, [1] * 8, UD)         # atomic-add operands
        _load_reg(ex, 3, [7777] * 8, UD)      # dst sentinel
        flag = np.zeros(32, dtype=bool)
        flag[:8] = [True, False] * 4
        ex.flags[0] = flag
        msg = MessageDesc(kind=MsgKind.ATOMIC, surface=0, addr_reg=1,
                          payload_reg=2, payload_bytes=32, atomic_op="add",
                          elem_dtype=UD)
        ex.execute(Instruction(
            Opcode.SEND, 8, RegOperand(3, 0, UD), [],
            pred=Predicate(FlagOperand(0)), msg=msg))
        # Memory: only the even (active) lanes were incremented.
        assert surf.to_numpy().tolist() == [
            v * 10 + (1 - i % 2) for i, v in enumerate(range(8))]
        # Return payload: active lanes get the old value; disabled lanes
        # keep their previous register contents.
        got = ex.grf.dump_reg(3, UD)[:8].tolist()
        assert got == [0, 7777, 20, 7777, 40, 7777, 60, 7777]
