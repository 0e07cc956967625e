"""Kernel JIT megakernels: codegen, caching, dispatch plumbing — and
the stale-plan regressions that motivated program-scoped PlanTables.

Architectural and timing bit-identity of the JIT tier against the
sequential interpreter is pinned by the differential fuzz in
test_fuzz_differential.py; this file covers everything around it:

- the ``id(inst)`` memoization bugs the :class:`~repro.isa.plans.
  PlanTable` keying fixes (a recycled ``Instruction`` object must never
  see a stale plan; pooled executors must not grow unboundedly),
- megakernel compilation, eligibility, and the kernel-attached cache
  (compile once, hit afterwards, released with the kernel),
- ``Device.run_compiled`` tier selection (``tier="auto"/"jit"/...``),
  chunking, pooled executors, and timing parity with the other tiers.
"""

import contextlib
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.compiler.cache import KernelCache
from repro.isa.dtypes import D
from repro.isa.executor import FunctionalExecutor
from repro.isa.grf import RegOperand
from repro.isa.instructions import (
    Immediate, Instruction, MessageDesc, MsgKind, Opcode,
)
from repro.isa import jit as jit_mod
from repro.isa.jit import (
    JitKernel, JitTracingExecutor, get_jit, jit_eligible,
)
from repro.isa.regions import Region
from repro.sim.batch import TracingExecutor
from repro.sim.device import Device
from repro.sim.machine import GEN11_ICL

_VEC = 16


def _packed(n):
    w = min(n, 8)
    return Region(w, w, 1)


def _load_reg(ex, reg, values, dtype):
    ex.grf.write_bytes(reg * 32, np.asarray(values, dtype=dtype.np_dtype))


def _add_imm(imm):
    return Instruction(
        Opcode.ADD, 8, RegOperand(2, 0, D),
        [RegOperand(1, 0, D, _packed(8)), Immediate(imm, D)])


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


def _run_saxpy(tier, n_threads=32, max_live_threads=1024,
               executor=None, dev=None):
    dev = dev if dev is not None else Device()
    rng = np.random.default_rng(11)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    xbuf, ybuf = dev.buffer(x.copy()), dev.buffer(y.copy())
    kern = dev.compile(_saxpy_body, "jsaxpy", _SAXPY_SIG, ["tid"])
    run = dev.run_compiled(kern, grid=(n_threads,), surfaces=[xbuf, ybuf],
                           scalars=lambda t: {"tid": t[0]}, name="jsaxpy",
                           tier=tier, executor=executor,
                           max_live_threads=max_live_threads,
                           validate="off")
    got = ybuf.to_numpy().view(np.float32).copy()
    assert np.allclose(got, 2.0 * x + y, atol=1e-6)
    assert tier == "auto" or run.path == tier
    return dev, run, got


def _timing_equal(a, b):
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a))


# -- the id(inst) regression --------------------------------------------------


class TestStalePlanRegression:
    def test_recycled_instruction_does_not_reuse_stale_plan(self):
        """An Instruction object recycled (same ``id``) into a *new*
        program with mutated operands must be re-planned.

        The pre-PlanTable executor memoized plans in an ``id(inst)``
        keyed dict that survived across ``run()`` calls, so the mutated
        instruction silently executed with the old program's baked
        immediate fetcher and produced the old result."""
        ex = FunctionalExecutor()
        _load_reg(ex, 1, range(8), D)
        inst = _add_imm(10)
        ex.run([inst])
        assert ex.grf.dump_reg(2, D)[:8].tolist() == list(range(10, 18))
        # same object identity, new operands, new program list
        inst.srcs = [RegOperand(1, 0, D, _packed(8)), Immediate(100, D)]
        ex.run([inst])
        assert ex.grf.dump_reg(2, D)[:8].tolist() == list(range(100, 108))

    def test_recycled_destination_not_stale(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, range(8), D)
        inst = _add_imm(5)
        ex.run([inst])
        inst.dst = RegOperand(3, 0, D)
        ex.run([inst])
        assert ex.grf.dump_reg(3, D)[:8].tolist() == list(range(5, 13))

    def test_plan_table_is_program_scoped(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, range(8), D)
        prog = [_add_imm(1)]
        ex.run(prog)
        table = ex.plans
        assert table is not None and table.matches(prog)
        ex.run(prog)  # same list object: table retained
        assert ex.plans is table
        other = [_add_imm(2)]
        ex.run(other)  # different program: table replaced, not grown
        assert ex.plans is not table and ex.plans.matches(other)


class TestBoundedPlanState:
    def test_pooled_executor_keeps_one_program_of_plans(self):
        """The old id-keyed dicts grew by one entry per instruction per
        program for the lifetime of a pooled executor; the PlanTable
        binding holds exactly the current program's plans."""
        ex = FunctionalExecutor()
        _load_reg(ex, 1, range(8), D)
        last = None
        for imm in range(50):
            last = [_add_imm(imm), _add_imm(imm + 1)]
            ex.run(last)
        assert ex.plans.matches(last)
        assert len(ex.plans.plans) == len(last)

    def test_dead_programs_are_collectable(self):
        ex = FunctionalExecutor()
        _load_reg(ex, 1, range(8), D)
        prog = [_add_imm(7)]
        ref = weakref.ref(prog[0])
        ex.run(prog)
        del prog
        ex.run([_add_imm(8)])  # rebinding drops the old table
        gc.collect()
        assert ref() is None


# -- compilation + executors --------------------------------------------------


class TestJitKernel:
    def test_codegen_and_functional_parity(self):
        prog = [_add_imm(10),
                Instruction(Opcode.MUL, 8, RegOperand(3, 0, D),
                            [RegOperand(2, 0, D, _packed(8)),
                             Immediate(3, D)])]
        assert jit_eligible(prog)
        jitk = JitKernel(prog)
        assert "def _mega" in jitk.source and jitk.n_sends == 0

        seq = FunctionalExecutor()
        _load_reg(seq, 1, range(8), D)
        seq.run(prog)

        jx = JitTracingExecutor()
        jx.reset(4)
        jx.begin_launch(GEN11_ICL)
        for t in range(4):
            jx.grf2d[t, 32:64] = np.arange(8, dtype=np.int32).view(np.uint8)
        jx.bind_jit(jitk)
        jx.run(prog)
        for t in range(4):
            got = jx.grf2d[t, 96:128].view(np.int32)
            assert got.tolist() == seq.grf.dump_reg(3, D)[:8].tolist()

    def test_unbound_program_compiles_its_own_megakernel(self):
        bound = [_add_imm(10)]
        other = [_add_imm(99)]
        jx = JitTracingExecutor()
        jx.reset(2)
        jx.begin_launch(GEN11_ICL)
        jx.grf2d[:, 32:64] = np.arange(8, dtype=np.int32).view(np.uint8)
        jitk = JitKernel(bound)
        jx.bind_jit(jitk)
        jx.run(other)  # not the compiled program: compiled for it now
        assert jx._jit is not jitk and jx._jit.matches(other)
        assert jx.grf2d[0, 64:96].view(np.int32).tolist() == \
            list(range(99, 107))

    def test_ineligible_opcode_rejected(self):
        bad = Instruction(Opcode.SEND,
                          msg=MessageDesc(kind=None, surface=0))
        assert not jit_eligible([bad])


class TestKernelAttachedCache:
    def test_get_jit_compiles_once(self):
        dev = Device()
        kern = dev.compile(_saxpy_body, "jsaxpy", _SAXPY_SIG, ["tid"])
        jitk, cached = get_jit(kern)
        assert jitk is not None and not cached
        again, cached = get_jit(kern)
        assert again is jitk and cached

    def test_released_on_cache_eviction(self):
        dev = Device()
        dev.kernel_cache = KernelCache(maxsize=1)
        kern = dev.compile(_saxpy_body, "jsaxpy", _SAXPY_SIG, ["tid"])
        _run_saxpy("jit", dev=dev)
        assert kern._jit is not None and kern._plan_table is not None

        def other_body(cmx, xbuf, ybuf, tid):
            _saxpy_body(cmx, xbuf, ybuf, tid)

        dev.compile(other_body, "jsaxpy2", _SAXPY_SIG, ["tid"])  # evicts
        assert kern._jit is None and kern._plan_table is None


# -- device dispatch ----------------------------------------------------------


class TestDeviceDispatch:
    def test_jit_matches_wide_and_scalar(self):
        # two-way: the JIT is the one vector tier, sequential the oracle
        _, run_j, out_j = _run_saxpy("jit")
        _, run_s, out_s = _run_saxpy("sequential")
        assert np.array_equal(out_j, out_s)
        assert _timing_equal(run_j.timing, run_s.timing)

    def test_jit_is_the_default_top_tier(self):
        dev, run_a, _ = _run_saxpy("auto")
        assert dev.profile.jit_compiles == 1 and run_a.path == "jit"
        _, run_s, _ = _run_saxpy("sequential")
        assert _timing_equal(run_a.timing, run_s.timing)

    def test_chunked_jit_matches_unchunked(self):
        # 32 threads in chunks of 9: totals must not depend on chunking.
        _, run_c, _ = _run_saxpy("jit", max_live_threads=9)
        _, run_u, _ = _run_saxpy("jit")
        assert _timing_equal(run_c.timing, run_u.timing)

    def test_profile_counts_compiles_and_hits(self):
        dev = Device()
        for _ in range(3):
            _run_saxpy("jit", dev=dev)
        assert dev.profile.jit_compiles == 1
        assert dev.profile.jit_cache_hits == 2

    def test_pooled_jit_executor_reused_across_launches(self):
        pooled = JitTracingExecutor()
        dev = Device()
        _, run1, _ = _run_saxpy("auto", executor=pooled, dev=dev)
        _, run2, _ = _run_saxpy("auto", executor=pooled, dev=dev)
        assert pooled.num_threads == 32  # the hint was taken
        _, run_s, _ = _run_saxpy("sequential")
        assert dev.profile.jit_compiles == 1
        assert dev.profile.jit_cache_hits == 1
        assert _timing_equal(run1.timing, run_s.timing)
        assert _timing_equal(run2.timing, run_s.timing)

    def test_pooled_sequential_executor_is_not_repurposed(self):
        # an executor of the other tier is only a hint: the JIT tier
        # builds its own executor rather than raising or repurposing it.
        pooled = TracingExecutor()
        _, run_j, _ = _run_saxpy("jit", executor=pooled)
        assert run_j.path == "jit"
        assert pooled.trace is None and pooled.plans is None
        _, run_s, _ = _run_saxpy("sequential")
        assert _timing_equal(run_j.timing, run_s.timing)

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="tier must be one of"):
            _run_saxpy("vector")

    def test_jit_true_on_ineligible_program_raises(self):
        dev = Device()
        kern = dev.compile(_saxpy_body, "jsaxpy", _SAXPY_SIG, ["tid"])
        kern.program.insert(0, Instruction(
            Opcode.SEND, msg=MessageDesc(kind=None, surface=0)))
        buf = dev.buffer(np.zeros(_VEC, dtype=np.float32))
        with pytest.raises(ValueError, match="not JIT-eligible"):
            dev.run_compiled(kern, grid=(1,), surfaces=[buf, buf],
                             scalars={"tid": 0}, tier="jit", validate="off")

    def test_fold_chunk_matches_trace_fanout(self):
        """The vectorized JIT timing fold and the per-thread trace
        fan-out (which the breakdown profiler forces) must agree on
        every KernelTiming field."""
        from repro import obs as obs_mod

        _, run_fold, _ = _run_saxpy("jit", n_threads=48,
                                    max_live_threads=16)
        with obs_mod.observed(span_metrics=False):
            _, run_fan, _ = _run_saxpy("jit", n_threads=48,
                                       max_live_threads=16)
        assert run_fan.breakdown is not None
        assert _timing_equal(run_fold.timing, run_fan.timing)

    def test_fold_chunk_matches_trace_fanout_under_control_flow(self):
        """The same agreement for a divergent kernel, whose per-thread
        timelines fold row by row instead of from a template."""
        from repro import obs as obs_mod
        from repro.workloads import bitonic

        keys = bitonic.make_input(7, seed=4)     # n = 128: 4 threads
        runs = []
        for observed in (False, True):
            with obs_mod.observed(span_metrics=False) if observed \
                    else contextlib.nullcontext():
                dev = Device()
                out = bitonic.run_cm_bitonic_compiled(dev, keys,
                                                      tier="jit")
            assert np.array_equal(out, np.sort(keys))
            assert {r.path for r in dev.runs} == {"jit"}
            assert all((r.breakdown is not None) == observed
                       for r in dev.runs)
            runs.append(dev.runs)
        for fold, fan in zip(*runs):
            assert _timing_equal(fold.timing, fan.timing)

    def test_dispatch_jit_spans_emitted(self):
        from repro import obs as obs_mod
        from repro.obs.tracing import ChromeTraceSink

        sink = ChromeTraceSink()
        with obs_mod.observed(sink=sink, span_metrics=False):
            _run_saxpy("jit", max_live_threads=20)
        jit_spans = [e for e in sink.events if e["name"] == "dispatch:jit"]
        assert sorted(e["args"]["threads"] for e in jit_spans) == [12, 20]
        outer = [e for e in sink.events if e["name"] == "dispatch"]
        assert outer and outer[0]["args"]["path"] == "jit"


# -- static block timing ------------------------------------------------------


def _serve_kernel(key, params, dev=None):
    from repro.serve.workloads import get_workload

    launch = get_workload(key).make(params)
    dev = dev if dev is not None else Device()
    kern = dev.compile(launch.body, launch.name, launch.sig,
                       launch.scalar_params)
    return dev, kern, launch


_CF_KERNELS = [("bitonic_cf", {"n": 64}), ("kmeans_cf", {"n": 64, "k": 8})]


class TestBlockTiming:
    @pytest.mark.parametrize("key,params", _CF_KERNELS)
    def test_one_charge_per_static_block(self, key, params):
        import re

        _, kern, _ = _serve_kernel(key, params)
        jitk, _ = get_jit(kern)
        src = jitk.source
        charged = [int(k) for k in re.findall(r"iv\S* \+= bn\[(\d+)\]", src)]
        # every block is charged at exactly one place in the source
        assert sorted(charged) == list(range(len(jitk.blocks)))
        assert len(jitk.blocks) < len(kern.program) // 4
        # no accounting call per instruction: only per-row consumes
        calls = set(re.findall(r"\b(\w+)\(_I\d+", src))
        assert not calls and "_account" not in src
        alu = sum(1 for inst in kern.program
                  if inst.opcode not in jit_mod._NON_ALU)
        assert src.count("cs(") < alu // 4

    def test_shipped_machines_sum_exactly(self):
        from repro.sim.machine import (
            GEN9_SKL, GEN11_ICL, GEN12_TGL, SIMD32_APL,
        )

        for key, params in _CF_KERNELS + [("saxpy", {"n": 256}),
                                          ("sgemm", {"m": 16, "n": 16,
                                                     "k": 8})]:
            _, kern, _ = _serve_kernel(key, params)
            jitk, _ = get_jit(kern)
            for machine in (GEN9_SKL, GEN11_ICL, GEN12_TGL, SIMD32_APL):
                bn, bc = jitk.block_costs(machine)
                assert len(bn) == len(bc) == len(jitk.blocks)

    @pytest.mark.parametrize("key,params", [("saxpy", {"n": 256}),
                                            ("bitonic_cf", {"n": 64})])
    def test_inexact_costs_fall_back_to_sequential(self, key, params):
        """n / 6 lanes is not dyadic: block sums could round differently
        from the sequential tracer's running sum, so the JIT declines
        the machine and the launch runs sequential, never drifting."""
        from repro import obs as obs_mod
        from repro.obs.tracing import ChromeTraceSink

        odd = dataclasses.replace(GEN11_ICL, name="odd lanes",
                                  fp32_lanes_per_cycle=6.0)
        runs, gates = {}, {}
        for tier in ("auto", "sequential"):
            dev, kern, launch = _serve_kernel(key, params, Device(odd))
            surfaces, scalars = launch.bind(dev)
            sink = ChromeTraceSink()
            with obs_mod.observed(sink=sink, span_metrics=False):
                runs[tier] = dev.run_compiled(
                    kern, launch.grid, surfaces, scalars=scalars,
                    tier=tier, validate="off")
            launch.finish(surfaces)
            gates[tier] = [e["args"] for e in sink.events
                           if e["name"] == "sanitize_gate"]
        auto = runs["auto"]
        assert _timing_equal(auto.timing, runs["sequential"].timing)
        if auto.path != "jit":
            assert auto.path == "sequential"
            assert gates["auto"][0]["reason"].startswith("jit: ")
        # on this machine the costs are inexact, so the JIT declines
        jitk, _ = get_jit(kern)
        with pytest.raises(jit_mod.JitError, match="does not sum exactly"):
            jitk.block_costs(odd)


# -- generated source size ----------------------------------------------------


def _listing_chunks(jitk):
    """Instruction index -> its code lines in :meth:`JitKernel.listing`
    (block charges and payload consumes are timing, not the
    instruction's own code, and are left out)."""
    import re

    chunks, cur = {}, None
    for line in jitk.listing().splitlines():
        mark = re.match(r"\s*# \[\s*(\d+)\]", line)
        if mark:
            cur = chunks.setdefault(int(mark.group(1)), [])
        elif cur is not None and not re.match(
                r"\s*(iv\S* \+= |cs\(|e\d+\.consumed_at)", line):
            cur.append(line)
    return chunks


class TestCodegenSize:
    @pytest.mark.parametrize("key,params", [
        ("saxpy", {"n": 256}), ("blur", {"blocks_x": 2, "blocks_y": 2}),
        ("sgemm", {"m": 16, "n": 16, "k": 8})])
    def test_alu_source_is_small_and_converts_statically(self, key, params):
        _, kern, _ = _serve_kernel(key, params)
        jitk, _ = get_jit(kern)
        chunks = _listing_chunks(jitk)
        alu = [i for i, inst in enumerate(kern.program)
               if inst.opcode not in jit_mod._NON_ALU]
        assert alu
        for i in alu:
            inst = kern.program[i]
            code = "\n".join(chunks[i])
            assert len(chunks[i]) <= 3, code
            dtypes = {s.dtype for s in inst.srcs}
            if inst.dst is not None:
                dtypes.add(inst.dst.dtype)
            if len(dtypes) == 1 and not inst.sat:
                assert ".dtype !=" not in code and "_cv(" not in code, code
        # the listing only adds comments to the compiled text
        stripped = [ln for ln in jitk.listing().splitlines()
                    if not ln.lstrip().startswith("# [")]
        assert stripped == jitk.source.splitlines()

    def test_sgemm_simd16_chunks_fuse_back(self):
        """Legalization splits sgemm 64x64x16's wide operations into
        SIMD16 instructions; the megakernel re-fuses them, to at most a
        third as many ALU statements as ALU instructions, and the
        listing names every member of a fused run above its statement."""
        _, kern, _ = _serve_kernel("sgemm", {"m": 64, "n": 64, "k": 16})
        jitk, _ = get_jit(kern)
        chunks = _listing_chunks(jitk)
        alu = [i for i, inst in enumerate(kern.program)
               if inst.opcode not in jit_mod._NON_ALU]
        statements = sum(len(chunks[i]) for i in alu)
        assert 3 * statements <= len(alu), (statements, len(alu))
        listing = jitk.listing()
        for i in alu:
            assert f"# [{i:>3}] {kern.program[i].asm()}\n" in listing
        # a run's members are listed back to back: only the last one
        # is followed by code
        fused = [i for i in alu if not chunks[i]]
        assert fused and all(i + 1 in chunks for i in fused)


# -- the stacked register file is as wide as the program reaches -------------


def _serve_launch(dev, kern, launch, tier, executor=None):
    surfaces, scalars = launch.bind(dev)
    run = dev.run_compiled(kern, launch.grid, surfaces, scalars=scalars,
                           name=launch.name, tier=tier, executor=executor,
                           validate="off")
    return run, launch.finish(surfaces)


def _oword_read(payload_reg):
    return [Instruction(Opcode.SEND, 8, msg=MessageDesc(
        MsgKind.OWORD_BLOCK_READ, surface=0, addr0=Immediate(0, D),
        payload_reg=payload_reg, payload_bytes=64))]


class TestSizedRegisterFile:
    def test_pooled_executor_resizes_per_kernel(self):
        """One pooled executor runs kernels of different widths in turn;
        each launch sizes the file to its program and matches the
        sequential tier in output and every timing field."""
        dev = Device()
        pooled = JitTracingExecutor()
        menu = [("saxpy", {"n": 1024}), ("sgemm", {"m": 32, "n": 32, "k": 8}),
                ("bitonic_cf", {"n": 64}), ("saxpy", {"n": 1024})]
        widths = []
        for key, params in menu:
            _, kern, launch = _serve_kernel(key, params, dev)
            run, out = _serve_launch(dev, kern, launch, "jit", pooled)
            run_s, out_s = _serve_launch(Device(), kern, launch,
                                         "sequential")
            assert out == out_s and _timing_equal(run.timing, run_s.timing)
            width = get_jit(kern)[0].grf_bytes
            assert pooled.grf2d.shape[1] == width
            widths.append(width)
        assert widths[0] == widths[3] < 4096 and len(set(widths)) == 3
        assert all(w % 32 == 0 for w in widths)

    def test_payload_past_the_register_file_still_raises(self):
        from repro.memory.surfaces import BufferSurface

        for reg, ok in [(126, True), (127, False)]:  # ends at 4096 / 4128
            prog = _oword_read(reg)
            table = {0: BufferSurface.allocate(256)}
            seq = FunctionalExecutor(table)
            jx = JitTracingExecutor(table)
            jx.bind_jit(JitKernel(prog))
            jx.reset(2)
            jx.begin_launch(GEN11_ICL)
            if ok:
                seq.run(prog)
                jx.run(prog)
                assert jx.grf2d.shape[1] == 4096
            else:
                with pytest.raises(IndexError):
                    seq.run(prog)
                with pytest.raises(IndexError):
                    jx.run(prog)

    def test_unbound_run_widens_a_narrow_file(self):
        """A run whose program reaches past the width the bound kernel
        sized the file to widens it, keeping the seeded bytes."""
        jx = JitTracingExecutor()
        jx.bind_jit(JitKernel([_add_imm(1)]))  # reaches byte 96
        jx.reset(2)
        jx.begin_launch(GEN11_ICL)
        assert jx.grf2d.shape[1] == 96
        jx.grf2d[:, 32:64] = np.arange(8, dtype=np.int32).view(np.uint8)
        wide = Instruction(Opcode.ADD, 8, RegOperand(20, 0, D),
                           [RegOperand(1, 0, D, _packed(8)),
                            Immediate(5, D)])
        jx.run([wide])
        assert jx.grf2d.shape[1] == 21 * 32
        assert jx.grf2d[1, 640:672].view(np.int32).tolist() == \
            list(range(5, 13))
