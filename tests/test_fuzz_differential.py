"""Fuzzing the compiler: random region programs, compiled vs numpy.

Random sequences of strided reads, writes, and arithmetic over one
vector are executed three ways — a plain numpy oracle, the eager CM
machine, and the fully compiled Gen binary — and must agree bit-exactly.
This family of tests is what caught the legalization src/dst aliasing
hazard (an op split into chunks must not read registers an earlier
chunk wrote).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cm
from repro.compiler import compile_kernel
from repro.memory.surfaces import BufferSurface

N = 32


def _legal_select(draw):
    size = draw(st.sampled_from([2, 4, 8, 16]))
    stride = draw(st.integers(1, 3))
    offset = draw(st.integers(0, N - 1 - (size - 1) * stride))
    return size, stride, offset


_STEP = st.builds(
    lambda kind, a, b, c: (kind, a, b, c),
    st.sampled_from(["self_assign", "add_const", "mul_const",
                     "region_add"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-9, 9))


def _apply_numpy(steps, data):
    v = data.astype(np.int64)
    for kind, a, b, c in steps:
        size, stride, offset = _select_params(a, b)
        idx = offset + np.arange(size) * stride
        if kind == "self_assign":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                idx2 = offset2 + np.arange(size2) * stride2
                v[idx] = v[idx2].copy()
        elif kind == "add_const":
            v[idx] += c
        elif kind == "mul_const":
            v[idx] *= c
        elif kind == "region_add":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                idx2 = offset2 + np.arange(size2) * stride2
                v[idx] += v[idx2].copy()
    return (v & 0xFFFFFFFF).astype(np.uint32).astype(np.int32)


def _select_params(seed_a, seed_b):
    size = [2, 4, 8, 16][seed_a % 4]
    stride = 1 + (seed_b % 3)
    while (size - 1) * stride >= N:
        size //= 2
    max_off = N - 1 - (size - 1) * stride
    offset = (seed_a // 4) % (max_off + 1)
    return size, stride, offset


def _apply_cm_ops(cmx_or_cm, v, steps):
    for kind, a, b, c in steps:
        size, stride, offset = _select_params(a, b)
        ref = v.select(size, stride, offset)
        if kind == "self_assign":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                ref.assign(v.select(size2, stride2, offset2))
        elif kind == "add_const":
            ref += c
        elif kind == "mul_const":
            ref *= c
        elif kind == "region_add":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                ref += v.select(size2, stride2, offset2)


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_compiled_matches_numpy_oracle(steps, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-100, 100, N).astype(np.int32)
    expect = _apply_numpy(steps, data)

    def body(cmx, buf):
        v = cmx.vector(np.int32, N)
        cmx.read(buf, 0, v)
        _apply_cm_ops(cmx, v, steps)
        cmx.write(buf, 0, v)

    k = compile_kernel(body, "fuzz", [("buf", False)])
    buf = BufferSurface(data.copy())
    k.run([buf])
    assert buf.to_numpy().tolist() == expect.tolist()


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_eager_matches_numpy_oracle(steps, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-100, 100, N).astype(np.int32)
    expect = _apply_numpy(steps, data)
    v = cm.vector(cm.int32, N, data)
    _apply_cm_ops(cm, v, steps)
    assert v.to_numpy().tolist() == expect.tolist()


# -- JIT megakernel vs per-thread sequential execution ------------------------
#
# The JIT tier (repro.isa.jit) runs a whole program for a chunk of
# threads at once on their stacked register files.  It claims
# bit-identical architectural state to running the same program once
# per thread on the sequential TracingExecutor (GRF bytes, flag
# registers, and shared surface contents — including atomics, whose
# same-address collisions must resolve in thread order) *and* identical
# values in every simulated-timing field.  Sequential dispatch is the
# single reference oracle.  Random programs are hand-built at the
# Instruction level because the frontend never emits atomics directly.

from repro.compiler.finalizer import VectorImmediate  # noqa: E402
from repro.isa.dtypes import D, F, UB, UD, UW, W  # noqa: E402
from repro.isa.executor import FunctionalExecutor  # noqa: E402
from repro.isa.grf import RegOperand  # noqa: E402
from repro.isa.instructions import (  # noqa: E402
    CondMod, FlagOperand, Immediate, Instruction, MathFn, MessageDesc,
    MsgKind, Opcode, Predicate,
)
from repro.isa.jit import JitTracingExecutor, jit_eligible  # noqa: E402
from repro.isa.regions import Region  # noqa: E402
from repro.sanitize import RaceDetector  # noqa: E402
from repro.sim.batch import TracingExecutor  # noqa: E402
from repro.sim.machine import GEN11_ICL  # noqa: E402
from repro.sim.timing import TimingAccumulator  # noqa: E402
from repro.sim.trace import ThreadTrace  # noqa: E402

_TIDS = [0, 1, 2, 3, 7]          # includes a gap so addresses collide unevenly
_TID_BASE = 32                   # r1.0:d
_SURF_WORDS = 64                 # 256-byte buffer, dword-addressed
_ADDR_MASK = _SURF_WORDS - 1

_DATA = (2, 3, 4, 5)             # :d working registers
_FREG = 6                        # :f working register
_AREG = 8                        # :ud element-offset register
_PREG = 9                        # payload register
_OREG = 10                       # atomic old-value register
_SREG = 11                       # thread-private scatter offsets
_TREG = 12                       # scratch for tid*8

_ALU_OPS = [Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.XOR,
            Opcode.MIN, Opcode.MAX]
_CONDS = [CondMod.EQ, CondMod.NE, CondMod.LT, CondMod.LE, CondMod.GT,
          CondMod.GE]
_ATOMIC_OPS = ["add", "sub", "inc", "dec", "min", "max", "xchg", "and",
               "or", "xor"]


def _src(reg, dt, n=8, sub=0):
    return RegOperand(reg, sub, dt, Region.contiguous(min(n, 8)))


def _bcast(reg, dt, sub=0):
    return RegOperand(reg, sub, dt, Region.scalar())


def _dst(reg, dt, sub=0):
    return RegOperand(reg, sub, dt)


def _prologue():
    """Seed registers with lane- and thread-varying values from r1 (tid)."""
    out = []
    for i, r in enumerate(_DATA):
        lanes = tuple((i * 37 + j * 11 + 5) % 251 - 100 for j in range(8))
        out.append(Instruction(Opcode.MOV, 8, _dst(r, D),
                               [VectorImmediate(lanes, D)]))
        out.append(Instruction(Opcode.ADD, 8, _dst(r, D),
                               [_src(r, D), _bcast(1, D)]))
    out.append(Instruction(Opcode.MOV, 8, _dst(_FREG, F), [_src(2, D)]))
    out.append(Instruction(Opcode.MOV, 8, _dst(_AREG, UD),
                           [VectorImmediate(tuple(range(0, 24, 3)), UD)]))
    out.append(Instruction(Opcode.ADD, 8, _dst(_AREG, UD),
                           [_src(_AREG, UD), _bcast(1, D)]))
    out.append(Instruction(Opcode.AND, 8, _dst(_AREG, UD),
                           [_src(_AREG, UD), Immediate(_ADDR_MASK, UD)]))
    # Scatter offsets fold into a private 8-word window per thread
    # (tid*8 + lane offset): non-atomic cross-thread writes to the same
    # bytes are a data race, so the generator keeps them disjoint and
    # the race detector certifies that it succeeded (see
    # _run_sequential).  Gathers and atomics keep the shared _AREG
    # pattern — reads of a read-only surface and colliding atomics are
    # race-free and exactly the ordered cases worth fuzzing.
    out.append(Instruction(Opcode.AND, 8, _dst(_SREG, UD),
                           [_src(_AREG, UD), Immediate(7, UD)]))
    out.append(Instruction(Opcode.SHL, 8, _dst(_TREG, UD),
                           [_bcast(1, UD), Immediate(3, UD)]))
    out.append(Instruction(Opcode.ADD, 8, _dst(_SREG, UD),
                           [_src(_SREG, UD), _bcast(_TREG, UD)]))
    out.append(Instruction(Opcode.MOV, 8, _dst(_PREG, D), [_src(3, D)]))
    return out


_MAX_STEPS = 10

#: ALU ops whose conversion to the destination type the JIT decides at
#: codegen: (opcode, math fn, exec size, dst dtype, source dtypes), an
#: ``"imm"`` source being a non-zero immediate of the first source's
#: type.  None saturates.
_CONV_CASES = [
    # numpy's result dtype is the destination's: no conversion
    (Opcode.ADD, None, 16, UB, (UB, UB)),
    (Opcode.MUL, None, 16, W, (W, W)),
    (Opcode.SHL, None, 16, UB, (UB, "imm")),
    (Opcode.AVG, None, 16, UB, (UB, UB)),
    (Opcode.MAX, None, 8, UD, (D, UD)),
    (Opcode.SHR, None, 16, UW, (W, "imm")),    # W shifts logically as UW
    (Opcode.ASR, None, 16, W, (UW, UW)),       # UW shifts arithmetically
    (Opcode.MATH, MathFn.IDIV, 8, D, (D, "imm")),
    # numpy's result dtype differs from the destination's: a conversion
    (Opcode.ADD, None, 16, W, (UB, UB)),
    (Opcode.ADD, None, 16, UB, (W, W)),
    (Opcode.MUL, None, 16, UB, (W, UB)),
    (Opcode.SHL, None, 8, D, (W, W)),
    (Opcode.AVG, None, 16, W, (UB, UB)),
    (Opcode.MIN, None, 8, D, (D, UD)),
    (Opcode.SHR, None, 16, W, (W, "imm")),
    (Opcode.ASR, None, 16, UW, (UW, "imm")),
    (Opcode.MATH, MathFn.INV, 8, F, (D,)),
    (Opcode.MATH, MathFn.INV, 8, D, (W,)),     # 1/0 = inf truncates to 0
    (Opcode.MATH, MathFn.IDIV, 16, W, (UB, "imm")),
    (Opcode.MOV, None, 8, F, (D,)),
]


def _conv_step(a, b, c, pred):
    op, fn, n, dst_dt, src_dts = _CONV_CASES[a % len(_CONV_CASES)]
    srcs = []
    for k, dt in enumerate(src_dts):
        if dt == "imm":
            srcs.append(Immediate(c % 7 + 1, src_dts[0]))
        else:
            srcs.append(RegOperand(_DATA[(b + k) % 4], 0, dt,
                                   Region.contiguous(8)))
    dst = _dst(_DATA[(a // len(_CONV_CASES)) % 4], dst_dt)
    return [Instruction(op, n, dst, srcs, math_fn=fn, pred=pred)]


def _build_step(kind, a, b, c, idx=0):
    """One deterministic instruction (or a few) from drawn integers."""
    pred = None
    if c % 3 == 1:
        pred = Predicate(FlagOperand(0), invert=bool(c % 2))
    if kind == "alu":
        op = _ALU_OPS[a % len(_ALU_OPS)]
        dt = D if b % 2 else UD
        dr, s0, s1 = (_DATA[a % 4], _DATA[b % 4], _DATA[(a + b) % 4])
        return [Instruction(op, 8, _dst(dr, dt),
                            [_src(s0, dt), _src(s1, dt)], pred=pred,
                            sat=bool(a % 5 == 0))]
    if kind == "w_alu":
        op = _ALU_OPS[b % len(_ALU_OPS)]
        return [Instruction(op, 16, _dst(_DATA[a % 4], UW),
                            [RegOperand(_DATA[b % 4], 0, UW,
                                        Region.contiguous(8)),
                             Immediate(c % 97, UW)], sat=bool(b % 2))]
    if kind == "conv":
        return _conv_step(a, b, c, pred)
    if kind == "b_alu":
        return [Instruction(Opcode.ADD, 16, _dst(_DATA[a % 4], UB),
                            [RegOperand(_DATA[b % 4], 0, UB,
                                        Region.contiguous(8)),
                             Immediate(c % 200, UW)], sat=True)]
    if kind == "shift":
        op = [Opcode.SHL, Opcode.SHR, Opcode.ASR][a % 3]
        return [Instruction(op, 8, _dst(_DATA[a % 4], UD),
                            [_src(_DATA[b % 4], UD),
                             Immediate(c % 31, UD)])]
    if kind == "mad":
        return [Instruction(Opcode.MAD, 8, _dst(_FREG, F),
                            [_src(_FREG, F), _src(2, D),
                             Immediate(float(c) / 7.0, F)], pred=pred)]
    if kind == "math":
        fn = [MathFn.INV, MathFn.SQRT, MathFn.EXP][a % 3]
        return [Instruction(Opcode.MATH, 8, _dst(_FREG, F),
                            [_src(_FREG, F)], math_fn=fn)]
    if kind == "cmp":
        cond = _CONDS[a % len(_CONDS)]
        dst = _dst(_DATA[c % 4], D) if c % 4 == 0 else None
        return [Instruction(Opcode.CMP, 8, dst,
                            [_src(_DATA[a % 4], D), _src(_DATA[b % 4], D)],
                            cond_mod=cond, flag=FlagOperand(0))]
    if kind == "sel":
        return [Instruction(Opcode.SEL, 8, _dst(_DATA[c % 4], D),
                            [_src(_DATA[a % 4], D), _src(_DATA[b % 4], D)],
                            pred=Predicate(FlagOperand(0),
                                           invert=bool(a % 2)))]
    if kind == "use":
        # reads a message payload (gather data / atomic old values):
        # the load-use dependency that timing charges as exposed latency
        src = _PREG if c % 2 else _OREG
        return [Instruction(Opcode.ADD, 8, _dst(_DATA[a % 4], D),
                            [_src(src, D), _src(_DATA[b % 4], D)],
                            pred=pred)]
    if kind == "scalar":
        # exec_size 1: uniform inside SIMD control flow, yet threads
        # that left a loop must not see it
        return [Instruction(Opcode.ADD, 1, _dst(_DATA[a % 4], D, b % 8),
                            [_bcast(_DATA[b % 4], D, c % 8),
                             Immediate(c % 50, D)])]
    if kind == "pred_mov":
        return [Instruction(Opcode.MOV, 8, _dst(_DATA[b % 4], D),
                            [_src(_DATA[a % 4], D)],
                            pred=Predicate(FlagOperand(0),
                                           invert=bool(c % 2)))]
    # Memory steps keep the program *race-free across threads*: gathers
    # read surface 0 (never written), scatters hit thread-private
    # windows of surface 1 (_SREG), and each atomic step gets a private
    # window of surface 2 (addr0).  A read that observes another
    # thread's write is a data race — undefined on hardware, and the
    # one thing the lockstep model legitimately reorders relative to
    # sequential per-thread dispatch.  This discipline is not taken on
    # faith: _run_sequential runs the repro.sanitize race detector over
    # every generated program and asserts the race-free verdict.
    if kind == "gather":
        msg = MessageDesc(MsgKind.GATHER, surface=0, addr_reg=_AREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
        return [Instruction(Opcode.SEND, 8, None, [], msg=msg, pred=pred)]
    if kind == "scatter":
        msg = MessageDesc(MsgKind.SCATTER, surface=1, addr_reg=_SREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
        return [Instruction(Opcode.SEND, 8, None, [], msg=msg, pred=pred)]
    if kind == "atomic":
        op = _ATOMIC_OPS[a % len(_ATOMIC_OPS)]
        needs_src = op not in ("inc", "dec")
        msg = MessageDesc(MsgKind.ATOMIC, surface=2,
                          addr0=Immediate(idx * _SURF_WORDS, UD),
                          addr_reg=_AREG,
                          payload_reg=_PREG if needs_src else -1,
                          payload_bytes=32 if needs_src else 0,
                          atomic_op=op, elem_dtype=UD if b % 2 else D)
        dst = _dst(_OREG, msg.elem_dtype) if b % 3 else None
        return [Instruction(Opcode.SEND, 8, dst, [], msg=msg, pred=pred)]
    raise AssertionError(kind)


_WIDE_STEP = st.builds(
    lambda kind, a, b, c: (kind, a, b, c),
    st.sampled_from(["alu", "w_alu", "b_alu", "shift", "mad", "math",
                     "cmp", "sel", "pred_mov", "gather", "scatter",
                     "atomic", "use", "scalar", "conv"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


def _build_program(steps):
    prog = list(_prologue())
    for idx, step in enumerate(steps):
        prog.extend(_build_step(*step, idx=idx))
    return prog


def _make_surfaces(seed):
    rng = np.random.default_rng(seed)

    def buf(words):
        data = rng.integers(0, 2**31, words, dtype=np.int64)
        return BufferSurface(data.astype(np.int32).view(np.uint8).copy())

    return {0: buf(_SURF_WORDS),                    # gather source
            1: buf(_SURF_WORDS),                    # scatter target
            2: buf(_SURF_WORDS * (_MAX_STEPS + 1))}  # atomic windows


def _surface_bytes(table):
    return {k: s.bytes.copy() for k, s in table.items()}


def _run_sequential(program, seed, certify=True, tids=_TIDS,
                    make=_make_surfaces):
    """(GRFs, per-thread flags, surfaces, KernelTiming), one thread at a
    time on the reference TracingExecutor (surfaces from ``make``)."""
    table = make(seed)
    detector = RaceDetector()
    detector.attach(table.values())
    ex = TracingExecutor(table)
    grfs, flags, traces = [], [], []
    for tid in tids:
        ex.reset()
        detector.begin_thread(tid)
        traces.append(ThreadTrace(GEN11_ICL))
        ex.begin_thread(traces[-1])
        ex.grf.write_bytes(_TID_BASE, np.asarray([tid], dtype=np.int32))
        ex.run(program)
        grfs.append(ex.grf.bytes.copy())
        flags.append({k: v.copy() for k, v in ex.flags.items()})
    verdict = detector.finish()
    if certify:
        # The JIT-vs-sequential equivalence claim only holds for
        # race-free programs; certify the generator's discipline.
        assert verdict.race_free, \
            "generator produced a racy program: " + \
            "; ".join(str(c) for c in verdict.conflicts)
    acc = TimingAccumulator(GEN11_ICL)
    acc.extend(traces)
    return np.stack(grfs), flags, _surface_bytes(table), acc.finalize()


def _run_jit(program, seed, chunk=len(_TIDS), tids=_TIDS,
             make=_make_surfaces):
    """Same result tuple as :func:`_run_sequential`, from one pooled
    JitTracingExecutor running the threads in chunks of ``chunk`` (the
    device's ``max_live_threads`` loop, timing folded per chunk)."""
    table = make(seed)
    ex = JitTracingExecutor(table)
    acc = TimingAccumulator(GEN11_ICL)
    grfs, flags = [], []
    for start in range(0, len(tids), chunk):
        part = tids[start:start + chunk]
        ex.reset(len(part))
        ex.begin_launch(GEN11_ICL)
        ex.seed_scalar(_TID_BASE, np.asarray(part, dtype=np.int32))
        ex.run(program)
        ex.fold_chunk(acc)
        grfs.extend(ex.grf2d.copy())
        flags.extend({k: v[t].copy() for k, v in ex.flags.items()}
                     for t in range(len(part)))
    return np.stack(grfs), flags, _surface_bytes(table), acc.finalize()


def _assert_bit_identical(seq, jit):
    """GRF, flags, surfaces and every KernelTiming field agree."""
    seq_grf, seq_flags, seq_surf, seq_t = seq
    jit_grf, jit_flags, jit_surf, jit_t = jit
    for bti in seq_surf:
        assert np.array_equal(jit_surf[bti], seq_surf[bti]), \
            f"surface {bti} state diverged"
    assert np.array_equal(jit_grf, seq_grf), "GRF state diverged"
    no_flag = np.zeros(32, dtype=bool)
    for t, (seq_f, jit_f) in enumerate(zip(seq_flags, jit_flags)):
        for idx in set(seq_f) | set(jit_f):
            assert np.array_equal(jit_f.get(idx, no_flag),
                                  seq_f.get(idx, no_flag)), \
                f"thread {t}: flag f{idx} diverged"
    for f in dataclasses.fields(seq_t):
        assert getattr(jit_t, f.name) == getattr(seq_t, f.name), \
            f"timing field {f.name} diverged"


@settings(max_examples=30, deadline=None)
@given(st.lists(_WIDE_STEP, min_size=1, max_size=10),
       st.integers(0, 2**31 - 1))
def test_wide_matches_sequential_bit_exact(steps, seed):
    program = _build_program(steps)
    with np.errstate(all="ignore"):
        _assert_bit_identical(_run_sequential(program, seed),
                              _run_jit(program, seed))


@pytest.mark.parametrize("pred", [False, True])
@pytest.mark.parametrize("case", range(len(_CONV_CASES)))
def test_static_conversions_match_sequential(case, pred):
    """Every conversion case, unpredicated and under a lane-varying
    predicate (a masked write rejects a float or signed value the
    destination type cannot take without an explicit conversion)."""
    program = list(_prologue())
    program += _build_step("cmp", 0, 1, 1)  # f0 = r2 != r3, per lane
    for b in range(4):
        program += _build_step("conv", case + b * len(_CONV_CASES), b,
                               1 if pred else 0)
    with np.errstate(all="ignore"):
        _assert_bit_identical(_run_sequential(program, 5),
                              _run_jit(program, 5))


def _collision_atomic_program(op_idx, invert, with_dst):
    """Atomics under a data-dependent predicate, colliding across threads."""
    op = _ATOMIC_OPS[op_idx]
    needs_src = op not in ("inc", "dec")
    prog = list(_prologue())
    # flag = (r2 < r3): thread- and lane-dependent predicate
    prog.append(Instruction(Opcode.CMP, 8, None,
                            [_src(2, D), _src(3, D)],
                            cond_mod=CondMod.LT, flag=FlagOperand(0)))
    # force heavy collisions: addresses only span 4 words
    prog.append(Instruction(Opcode.AND, 8, _dst(_AREG, UD),
                            [_src(_AREG, UD), Immediate(3, UD)]))
    msg = MessageDesc(MsgKind.ATOMIC, surface=0, addr_reg=_AREG,
                      payload_reg=_PREG if needs_src else -1,
                      payload_bytes=32 if needs_src else 0,
                      atomic_op=op, elem_dtype=D)
    prog.append(Instruction(
        Opcode.SEND, 8, _dst(_OREG, D) if with_dst else None, [], msg=msg,
        pred=Predicate(FlagOperand(0), invert=invert)))
    return prog


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(_ATOMIC_OPS) - 1), st.booleans(), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_wide_predicated_atomics_thread_order(op_idx, invert, with_dst,
                                              seed):
    prog = _collision_atomic_program(op_idx, invert, with_dst)
    with np.errstate(all="ignore"):
        _assert_bit_identical(_run_sequential(prog, seed),
                              _run_jit(prog, seed))


# -- divergent structured control flow ----------------------------------------
#
# Random *divergent* programs: nested SIMD_IF/ELSE/ENDIF regions and
# DO/WHILE loops with data-dependent (thread- and lane-varying) trip
# counts, optional data-dependent BREAKs, and straight-line work in the
# bodies.  The JIT must compile every such program and keep
# bit-identical GRF/flag/surface state and timing to sequential
# per-thread dispatch: empty-mask regions still *step through* their
# instructions — no thread ever takes a different instruction path,
# only different masks — and loop rows issue in the same order a
# minimum-PC group scheduler would pick.

from repro.isa.instructions import CF_OPCODES  # noqa: E402

_CF_CREG_BASE = 13               # per-loop-depth trip counters


def _emit_cf_node(node, out, depth, step=None):
    """Append the instructions of one CF-tree node to ``out`` (leaves
    built by ``step``, default :func:`_build_step`)."""
    tag = node[0]
    if tag == "leaf":
        _, kind, a, b, c = node
        out.extend((step or _build_step)(kind, a, b, c))
        return
    if tag == "if":
        _, a, b, has_else, body, orelse = node
        # lane- and thread-varying condition from the data registers
        out.append(Instruction(Opcode.CMP, 8, None,
                               [_src(_DATA[a % 4], D), _src(_DATA[b % 4], D)],
                               cond_mod=_CONDS[a % len(_CONDS)],
                               flag=FlagOperand(0)))
        out.append(Instruction(Opcode.SIMD_IF, 8, None, [],
                               pred=Predicate(FlagOperand(0),
                                              invert=bool(b % 2))))
        for child in body:
            _emit_cf_node(child, out, depth, step)
        if has_else:
            out.append(Instruction(Opcode.SIMD_ELSE, 8, None, []))
            for child in orelse:
                _emit_cf_node(child, out, depth, step)
        out.append(Instruction(Opcode.SIMD_ENDIF, 8, None, []))
        return
    if tag == "loop":
        _, a, use_break, body = node
        creg = _CF_CREG_BASE + depth
        # trip counter: 1..3 per lane plus (tid & 1) — divergent both
        # across lanes and across threads, and strictly decreasing for
        # every lane still in the loop, so termination is structural.
        lanes = tuple(1 + (a + j) % 3 for j in range(8))
        out.append(Instruction(Opcode.AND, 8, _dst(creg, UD),
                               [_bcast(1, UD), Immediate(1, UD)]))
        out.append(Instruction(Opcode.ADD, 8, _dst(creg, D),
                               [_src(creg, D), VectorImmediate(lanes, D)]))
        out.append(Instruction(Opcode.SIMD_DO, 8, None, []))
        for child in body:
            _emit_cf_node(child, out, depth + 1, step)
        if use_break:
            out.append(Instruction(Opcode.CMP, 8, None,
                                   [_src(_DATA[a % 4], D),
                                    _src(_DATA[(a + 1) % 4], D)],
                                   cond_mod=CondMod.GT, flag=FlagOperand(1)))
            out.append(Instruction(Opcode.SIMD_BREAK, 8, None, [],
                                   pred=Predicate(FlagOperand(1))))
        out.append(Instruction(Opcode.ADD, 8, _dst(creg, D),
                               [_src(creg, D), Immediate(-1, D)]))
        out.append(Instruction(Opcode.CMP, 8, None,
                               [_src(creg, D), Immediate(0, D)],
                               cond_mod=CondMod.GT, flag=FlagOperand(1)))
        out.append(Instruction(Opcode.SIMD_WHILE, 8, None, [],
                               pred=Predicate(FlagOperand(1))))
        return
    raise AssertionError(tag)


# Body work inside divergent regions: no atomics — the race-free
# discipline (private scatter windows, read-only gathers) carries over,
# and colliding atomics already have their own ordered differential
# above.
_CF_LEAF = st.builds(
    lambda kind, a, b, c: ("leaf", kind, a, b, c),
    st.sampled_from(["alu", "shift", "cmp", "sel", "pred_mov",
                     "gather", "scatter", "use", "scalar"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


def _if_node(children):
    return st.builds(
        lambda a, b, has_else, body, orelse:
            ("if", a, b, has_else, body, orelse),
        st.integers(0, 10**6), st.integers(0, 10**6), st.booleans(),
        st.lists(children, min_size=1, max_size=3),
        st.lists(children, min_size=0, max_size=2))


def _loop_node(children):
    return st.builds(
        lambda a, use_break, body: ("loop", a, use_break, body),
        st.integers(0, 10**6), st.booleans(),
        st.lists(children, min_size=1, max_size=3))


_CF_CHILD = st.recursive(
    _CF_LEAF, lambda ch: st.one_of(_if_node(ch), _loop_node(ch)),
    max_leaves=8)
# every top-level node is a CF construct, so every generated program
# exercises divergence
_CF_TOP = st.one_of(_if_node(_CF_CHILD), _loop_node(_CF_CHILD))


def _build_cf_program(nodes, step=None):
    prog = list(_prologue())
    for node in nodes:
        _emit_cf_node(node, prog, 0, step)
    return prog


def _assert_cf_bit_identical(program, seed):
    assert any(i.opcode in CF_OPCODES for i in program)
    assert jit_eligible(program), "CF program must be JIT-admitted"
    with np.errstate(all="ignore"):
        _assert_bit_identical(_run_sequential(program, seed),
                              _run_jit(program, seed))


@settings(max_examples=120, deadline=None)
@given(st.lists(_CF_TOP, min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
def test_wide_divergent_cf_matches_sequential(nodes, seed):
    _assert_cf_bit_identical(_build_cf_program(nodes), seed)


@settings(max_examples=80, deadline=None)
@given(_loop_node(st.one_of(_CF_LEAF, _if_node(_CF_CHILD),
                            _loop_node(_CF_LEAF))),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_wide_nested_loop_break_matches_sequential(loop, force_break, seed):
    # break-heavy variant: the outer loop always carries a
    # data-dependent BREAK, with nested IFs / inner loops in the body.
    tag, a, use_break, body = loop
    _assert_cf_bit_identical(
        _build_cf_program([(tag, a, use_break or force_break, body)]), seed)


# -- chunked JIT launches vs sequential ---------------------------------------
#
# The same two-way differential with the threads split into chunks of
# two on one pooled executor, as Device.run_compiled does under a small
# max_live_threads: state resizes between chunks, surfaces and line
# tracking persist, and timing folds chunk by chunk.


@settings(max_examples=30, deadline=None)
@given(st.lists(_WIDE_STEP, min_size=1, max_size=10),
       st.integers(0, 2**31 - 1))
def test_jit_matches_wide_and_sequential_bit_exact(steps, seed):
    program = _build_program(steps)
    # every construct the generator can emit must compile
    assert jit_eligible(program)
    with np.errstate(all="ignore"):
        _assert_bit_identical(_run_sequential(program, seed),
                              _run_jit(program, seed, chunk=2))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(_ATOMIC_OPS) - 1), st.booleans(), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_jit_predicated_atomics_thread_order(op_idx, invert, with_dst,
                                             seed):
    prog = _collision_atomic_program(op_idx, invert, with_dst)
    with np.errstate(all="ignore"):
        _assert_bit_identical(_run_sequential(prog, seed),
                              _run_jit(prog, seed, chunk=2))


# -- seeded-bug corpus --------------------------------------------------------
#
# The detector certification in _run_sequential is only meaningful if
# the checkers actually fire on the bug classes they claim to catch:
# plant one of each (cross-thread race, out-of-bounds clip, read of an
# uninitialized register) and require a 100% catch rate.


from repro.memory.surfaces import Image2DSurface  # noqa: E402
from repro.sanitize import (  # noqa: E402
    ExecSanitizer, OOBError, UninitTracker, strict,
)


def _verdict_for(program, seed=5):
    table = _make_surfaces(seed)
    detector = RaceDetector()
    detector.attach(table.values())
    ex = FunctionalExecutor(table)
    for tid in _TIDS:
        ex.reset()
        detector.begin_thread(tid)
        ex.grf.write_bytes(_TID_BASE, np.asarray([tid], dtype=np.int32))
        ex.run(program)
    return detector.finish()


class TestSeededBugs:
    def test_planted_write_write_race_is_caught(self):
        # scatter through the *shared* offset register: threads with
        # overlapping _AREG windows write the same bytes of surface 1.
        prog = list(_prologue())
        msg = MessageDesc(MsgKind.SCATTER, surface=1, addr_reg=_AREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=msg))
        verdict = _verdict_for(prog)
        assert not verdict.race_free
        assert any(c.kind == "write-write" for c in verdict.conflicts)
        # and the certified path refuses such a program outright
        with pytest.raises(AssertionError, match="racy"):
            _run_sequential(prog, seed=5)

    def test_planted_read_write_race_is_caught(self):
        # private-window scatters plus a shared-window gather of the
        # *same* surface: later threads read bytes earlier threads wrote.
        prog = list(_prologue())
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
            MsgKind.SCATTER, surface=1, addr_reg=_SREG,
            payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
            MsgKind.GATHER, surface=1, addr_reg=_AREG,
            payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
        verdict = _verdict_for(prog)
        assert not verdict.race_free
        assert any(c.kind == "read-write" for c in verdict.conflicts)

    def test_race_free_program_is_certified(self):
        # the same shape with disciplined addressing passes cleanly.
        prog = list(_prologue())
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
            MsgKind.SCATTER, surface=1, addr_reg=_SREG,
            payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
            MsgKind.GATHER, surface=0, addr_reg=_AREG,
            payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
        assert _verdict_for(prog).race_free

    def test_planted_uninit_read_is_caught(self):
        prog = list(_prologue())
        prog.append(Instruction(Opcode.ADD, 8, _dst(_DATA[0], D),
                                [_src(20, D), _src(_DATA[1], D)]))
        table = _make_surfaces(3)
        ex = FunctionalExecutor(table)
        san = ExecSanitizer(uninit=UninitTracker())
        ex.san = san
        ex.reset()
        san.begin_thread(0)
        ex.grf.write_bytes(_TID_BASE, np.asarray([0], dtype=np.int32))
        san.mark_grf_valid(_TID_BASE, 4)
        ex.run(prog)
        assert san.uninit.total > 0
        assert any(f.reg == 20 for f in san.uninit.findings)

    def test_clean_program_has_no_uninit_findings(self):
        prog = _build_program([("alu", 1, 2, 3), ("gather", 0, 0, 0),
                               ("scatter", 0, 0, 0)])
        table = _make_surfaces(3)
        ex = FunctionalExecutor(table)
        san = ExecSanitizer(uninit=UninitTracker())
        ex.san = san
        ex.reset()
        san.begin_thread(0)
        ex.grf.write_bytes(_TID_BASE, np.asarray([0], dtype=np.int32))
        san.mark_grf_valid(_TID_BASE, 4)
        ex.run(prog)
        assert san.uninit.total == 0, san.uninit.findings

    def test_planted_oob_block_read_is_caught(self):
        img = Image2DSurface(np.zeros((8, 16), dtype=np.uint8))
        msg = MessageDesc(MsgKind.MEDIA_BLOCK_READ, surface=0,
                          addr0=Immediate(12, UD), addr1=Immediate(4, UD),
                          payload_reg=_PREG, block_width=8, block_height=8)
        prog = [Instruction(Opcode.SEND, 8, None, [], msg=msg)]
        ex = FunctionalExecutor({0: img})
        ex.reset()
        ex.run(prog)
        # 8x8 block at (12, 4) on a 16x8 image: only 4x4 is in bounds.
        assert img.oob_clipped_lanes == 48
        with strict():
            ex2 = FunctionalExecutor({0: img})
            ex2.reset()
            with pytest.raises(OOBError):
                ex2.run(prog)


# -- the JIT tier's race verdict vs the sequential detector -------------------
#
# validate="first" certifies a kernel on its first, vectorized launch,
# from access records the JIT tier's SENDs append per chunk.  That
# verdict must equal the sequential detector's — race_free and the set
# of conflict kinds — on every program of both corpora above, and on
# programs that break the generator's race-free discipline on purpose.

def _verdict_jit(program, seed=5, chunk=2):
    """The race verdict of a chunked JIT run of ``program``."""
    table = _make_surfaces(seed)
    detector = RaceDetector().attach(table.values(), hook=False)
    detector.add_threads(_TIDS)
    ex = JitTracingExecutor(table)
    ex.race = detector
    for start in range(0, len(_TIDS), chunk):
        tids = _TIDS[start:start + chunk]
        detector.row_base = start
        ex.reset(len(tids))
        ex.begin_launch(GEN11_ICL)
        ex.seed_scalar(_TID_BASE, np.asarray(tids, dtype=np.int32))
        ex.run(program)
    return detector.finish()


def _assert_same_verdict(program, seed=5):
    with np.errstate(all="ignore"):
        seq, jit = _verdict_for(program, seed), _verdict_jit(program, seed)
    assert jit.race_free == seq.race_free
    assert {c.kind for c in jit.conflicts} == \
        {c.kind for c in seq.conflicts}
    return seq


def _racy_step(kind, a, b, c, idx=0):
    """Memory steps that break the race-free discipline: shared-window
    scatters, gathers and atomics on the scatter target (surface 1)."""
    pred = Predicate(FlagOperand(0), invert=bool(c % 2)) \
        if c % 3 == 1 else None
    if kind == "race_scatter":
        msg = MessageDesc(MsgKind.SCATTER, surface=1, addr_reg=_AREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
    elif kind == "race_gather":
        msg = MessageDesc(MsgKind.GATHER, surface=1, addr_reg=_AREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
    elif kind == "race_atomic":
        msg = MessageDesc(MsgKind.ATOMIC, surface=1, addr_reg=_AREG,
                          payload_reg=_PREG, payload_bytes=32,
                          atomic_op="add", elem_dtype=D)
    else:
        return _build_step(kind, a, b, c, idx)
    return [Instruction(Opcode.SEND, 8, None, [], msg=msg, pred=pred)]


_RACY_STEP = st.builds(
    lambda kind, a, b, c: (kind, a, b, c),
    st.sampled_from(["alu", "cmp", "use", "gather", "scatter", "atomic",
                     "race_scatter", "race_gather", "race_atomic"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


@settings(max_examples=30, deadline=None)
@given(st.lists(_WIDE_STEP, min_size=1, max_size=10),
       st.integers(0, 2**31 - 1))
def test_jit_verdict_matches_sequential_on_certified_programs(steps, seed):
    assert _assert_same_verdict(_build_program(steps), seed).race_free


@settings(max_examples=60, deadline=None)
@given(st.lists(_RACY_STEP, min_size=1, max_size=6),
       st.integers(0, 2**31 - 1))
def test_jit_verdict_matches_sequential_on_racy_programs(steps, seed):
    prog = list(_prologue())
    for idx, step in enumerate(steps):
        prog.extend(_racy_step(*step, idx=idx))
    _assert_same_verdict(prog, seed)


@settings(max_examples=40, deadline=None)
@given(st.lists(_CF_TOP, min_size=1, max_size=2),
       st.integers(0, 2**31 - 1))
def test_jit_verdict_matches_sequential_under_control_flow(nodes, seed):
    assert _assert_same_verdict(_build_cf_program(nodes), seed).race_free


_RACY_LEAF = st.builds(
    lambda kind, a, b, c: ("leaf", kind, a, b, c),
    st.sampled_from(["alu", "cmp", "gather", "scatter", "race_scatter",
                     "race_gather", "race_atomic"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
_RACY_CF = st.recursive(
    _RACY_LEAF, lambda ch: st.one_of(_if_node(ch), _loop_node(ch)),
    max_leaves=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_if_node(_RACY_CF), _loop_node(_RACY_CF)),
                min_size=1, max_size=2),
       st.integers(0, 2**31 - 1))
def test_jit_verdict_matches_sequential_on_racy_control_flow(nodes, seed):
    # masked lanes and threads that left a loop make no access
    _assert_same_verdict(_build_cf_program(nodes, _racy_step), seed)


@pytest.mark.parametrize("op_idx", range(len(_ATOMIC_OPS)))
def test_jit_verdict_matches_sequential_on_colliding_atomics(op_idx):
    prog = _collision_atomic_program(op_idx, invert=False, with_dst=True)
    assert _assert_same_verdict(prog).race_free


@pytest.mark.parametrize("kinds", [
    ("scatter", "race_scatter"), ("scatter", "race_gather"),
    ("race_atomic", "race_gather"), ("race_atomic", "race_scatter"),
    ("scatter", "gather")])
def test_jit_verdict_matches_sequential_on_seeded_bugs(kinds):
    # the seeded-bug shapes of TestSeededBugs, plus atomic-read and
    # atomic-write plants: every kind the detector reports
    prog = list(_prologue())
    for kind in kinds:
        prog.extend(_racy_step(kind, 0, 0, 0))
    seq = _assert_same_verdict(prog)
    assert seq.race_free == (kinds == ("scatter", "gather"))


# -- load-use across loop edges -------------------------------------------------
#
# The JIT retires a SEND payload only where a may-pending dataflow over
# the structured program says one can be waiting, back edges included.
# These deterministic programs put the first use of a payload on the
# other side of a loop edge, with per-thread trip counts (tid & 1 plus
# 1..3 per lane), and require every KernelTiming field and each drained
# event's issue/first-use positions to match the sequential tracer.

from repro.isa import jit as jit_mod  # noqa: E402

_LOOP_CREG = _CF_CREG_BASE


def _loop_edge_program(body, after):
    """Prologue, then DO <count down, ``body``> WHILE, then ``after``."""
    prog = list(_prologue())
    lanes = tuple(1 + j % 3 for j in range(8))
    prog += [
        Instruction(Opcode.AND, 8, _dst(_LOOP_CREG, UD),
                    [_bcast(1, UD), Immediate(1, UD)]),
        Instruction(Opcode.ADD, 8, _dst(_LOOP_CREG, D),
                    [_src(_LOOP_CREG, D), VectorImmediate(lanes, D)]),
        Instruction(Opcode.SIMD_DO, 8, None, []),
        Instruction(Opcode.ADD, 8, _dst(_LOOP_CREG, D),
                    [_src(_LOOP_CREG, D), Immediate(-1, D)]),
        Instruction(Opcode.CMP, 8, None,
                    [_src(_LOOP_CREG, D), Immediate(0, D)],
                    cond_mod=CondMod.GT, flag=FlagOperand(1)),
        *body,
        Instruction(Opcode.SIMD_WHILE, 8, None, [],
                    pred=Predicate(FlagOperand(1))),
        *after]
    return prog


def _use(payload_reg, dst_reg):
    return Instruction(Opcode.ADD, 8, _dst(dst_reg, D),
                       [_src(payload_reg, D), _src(_DATA[1], D)])


def _gather_last_in_body():
    # first ALU of the next iteration and first ALU after the loop both
    # read the payload of the body's last instruction
    gather = Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
        MsgKind.GATHER, surface=0, addr_reg=_AREG, payload_reg=_PREG,
        payload_bytes=32, elem_dtype=D))
    prog = _loop_edge_program([gather], [_use(_PREG, _DATA[2])])
    body_start = next(i for i, inst in enumerate(prog)
                      if inst.opcode is Opcode.SIMD_DO) + 1
    prog.insert(body_start, _use(_PREG, _DATA[3]))
    return prog


def _atomic_in_loop():
    # thread-private words of surface 2, so the per-thread issue order
    # of the loop's atomics cannot change their returned old values
    atomic = Instruction(Opcode.SEND, 8, _dst(_OREG, D), [],
                         msg=MessageDesc(
                             MsgKind.ATOMIC, surface=2, addr_reg=_SREG,
                             payload_reg=_PREG, payload_bytes=32,
                             atomic_op="add", elem_dtype=D))
    return _loop_edge_program([atomic], [_use(_OREG, _DATA[2])])


def _traces(program, seed, jit):
    """Per-thread traces of one launch over _TIDS on either tier."""
    table = _make_surfaces(seed)
    if jit:
        ex = JitTracingExecutor(table)
        ex.reset(len(_TIDS))
        ex.begin_launch(GEN11_ICL)
        ex.seed_scalar(_TID_BASE, np.asarray(_TIDS, dtype=np.int32))
        ex.run(program)
        return ex.drain_traces()
    ex = TracingExecutor(table)
    traces = []
    for tid in _TIDS:
        ex.reset()
        traces.append(ThreadTrace(GEN11_ICL))
        ex.begin_thread(traces[-1])
        ex.grf.write_bytes(_TID_BASE, np.asarray([tid], dtype=np.int32))
        ex.run(program)
    return traces


def _positions(traces):
    return [[(e.kind, e.issue_at, e.consumed_at) for e in tr.events]
            for tr in traces]


@pytest.mark.parametrize("max_maps", [None, 0])
@pytest.mark.parametrize("build", [_gather_last_in_body, _atomic_in_loop])
def test_load_use_across_loop_edges(build, max_maps, monkeypatch):
    if max_maps is not None:  # the analysis' coarse fallback
        monkeypatch.setattr(jit_mod, "_MAX_PENDING_MAPS", max_maps)
    program = build()
    seq = _traces(program, 7, jit=False)
    # trip counts differ across threads, and the last payload is used
    # after the loop
    assert len({len(tr.events) for tr in seq}) > 1
    assert all(tr.events[-1].consumed_at is not None for tr in seq)
    assert _positions(_traces(program, 7, jit=True)) == _positions(seq)
    with np.errstate(all="ignore"):
        for chunk in (len(_TIDS), 2):
            _assert_bit_identical(_run_sequential(program, 7),
                                  _run_jit(program, 7, chunk=chunk))


# -- fused ALU runs -----------------------------------------------------------
#
# The JIT fuses a run of consecutive same-shape ALU instructions into one
# statement over (T, k, n) operands.  The corpus below builds runs of
# ADD/MUL/MAD/MOV/logic instructions with scalar, contiguous, strided
# and immediate operands, at progression and scattered offsets, plants
# read-after-write, write-after-read and write-after-write overlaps, and
# interleaves predicated, saturating, MATH and CMP members; every
# program must match sequential dispatch in chunks of 1, 2 and 32.

_RUN_AREA = {D: 16, F: 32}       # first register of each dtype's area
_RUN_REGS = 16                   # registers per area
_RUN_ELEMS = _RUN_REGS * 8       # dwords per area
_RUN_TIDS = list(range(32))
_RUN_OPS = [Opcode.ADD, Opcode.MUL, Opcode.MAD, Opcode.MOV, Opcode.AND,
            Opcode.OR, Opcode.XOR]
_LOGIC_OPS = (Opcode.AND, Opcode.OR, Opcode.XOR)


def _run_prologue():
    """Lane- and thread-varying dwords in r16..r31, the same values as
    floats in r32..r47, and lane-varying flag 0."""
    out = list(_prologue())
    for r in range(_RUN_REGS):
        lanes = tuple((r * 29 + j * 13) % 97 - 48 for j in range(8))
        out += [Instruction(Opcode.MOV, 8, _dst(16 + r, D),
                            [VectorImmediate(lanes, D)]),
                Instruction(Opcode.ADD, 8, _dst(16 + r, D),
                            [_src(16 + r, D), _bcast(1, D)]),
                Instruction(Opcode.MOV, 8, _dst(32 + r, F),
                            [_src(16 + r, D)])]
    out.append(Instruction(Opcode.CMP, 8, None, [_src(16, D), _src(17, D)],
                           cond_mod=CondMod.GT, flag=FlagOperand(0)))
    return out


def _area_op(dt, elem, region=None):
    """A source through ``region`` or, without one, a destination at
    dword ``elem`` of ``dt``'s area."""
    reg, sub = _RUN_AREA[dt] + elem // 8, elem % 8
    if region is None:
        return RegOperand(reg, sub, dt)
    return RegOperand(reg, sub, dt, region)


#: Source regions of the corpus by kind: (region, dwords spanned) for
#: exec size n.
_RUN_REGIONS = {
    "scalar": lambda n: (Region.scalar(), 1),
    "vector": lambda n: (Region.contiguous(n), n),
    "stride2": lambda n: (Region(2, 1, 0), 2 * n - 1),   # every other dword
    "pairs": lambda n: (Region(1, 2, 0), (n + 1) // 2),  # each dword twice
}


def _run_offsets(rng, k, width, repeat):
    """``k`` dword offsets of ``width``-wide operands: an arithmetic
    progression (step 0 only when ``repeat``) or scattered ones."""
    top = _RUN_ELEMS - width
    if rng.random() < 0.65:
        steps = [width, width + 1, 2 * width, -width, -2 * width - 1]
        step = int(rng.choice(steps + [0] * repeat))
        if abs(step) * (k - 1) > top:  # keep the run inside the area
            step = (top // (k - 1)) * (1 if step > 0 else -1)
        span = step * (k - 1)
        lo, hi = max(0, -span), top - max(0, span)
        start = int(rng.integers(lo, hi + 1))
        return [start + j * step for j in range(k)]
    return [int(e) for e in rng.integers(0, top + 1, k)]


def _fused_run(seed):
    """One run of same-shape ALU instructions, hazards and interleaved
    members included, from one seed."""
    rng = np.random.default_rng(seed)
    op = _RUN_OPS[rng.integers(len(_RUN_OPS))]
    dt = D if op in _LOGIC_OPS else (D, F)[rng.integers(2)]
    src_dt = D if op is Opcode.MOV and rng.random() < 0.3 else dt
    n = (1, 8, 16)[rng.integers(3)]
    width = 1 if n == 1 else n
    k = int(rng.integers(2, 7))
    nsrc = {Opcode.MAD: 3, Opcode.MOV: 1}.get(op, 2)
    kinds = [("scalar", "vector", "imm", "stride2", "pairs")[
        rng.integers(5)] for _ in range(nsrc)]
    regions = [None if kind == "imm" else _RUN_REGIONS[kind](n)
               for kind in kinds]
    same_imm = rng.random() < 0.5
    dsts = _run_offsets(rng, k, width, 0)
    srcs = [_run_offsets(rng, k, r[1], 1) if r else None for r in regions]
    regs = [p for p, r in enumerate(regions) if r]
    hazard = ("none", "raw", "war", "waw")[rng.integers(4)]
    if hazard != "none":
        i = int(rng.integers(0, k - 1))
        j = int(rng.integers(i + 1, k))
        if hazard == "waw":
            dsts[j] = dsts[i]
        elif regs and hazard == "raw" and src_dt is dt:
            p = regs[0]
            srcs[p][j] = min(dsts[i], _RUN_ELEMS - regions[p][1])
        elif regs and hazard == "war" and src_dt is dt:
            dsts[j] = min(srcs[regs[0]][i], _RUN_ELEMS - width)

    def imm():
        v = int(rng.integers(-9, 10)) if not same_imm else 3
        if src_dt is F:
            return Immediate(v / 4.0, F)
        if n == 8 and not same_imm and rng.random() < 0.5:
            return VectorImmediate(tuple(v + lane for lane in range(8)), D)
        return Immediate(v, src_dt)

    out = []
    for j in range(k):
        ops = [_area_op(src_dt, srcs[p][j], r[0]) if r else imm()
               for p, r in enumerate(regions)]
        inst = Instruction(op, n, _area_op(dt, dsts[j]), ops)
        extra = rng.random()
        if extra < 0.12:    # a predicated member
            inst = dataclasses.replace(
                inst, pred=Predicate(FlagOperand(0), invert=extra < 0.06))
        elif extra < 0.18 and op is not Opcode.MOV and dt is D:
            inst = dataclasses.replace(inst, sat=True)
        out.append(inst)
        if extra > 0.9:     # a MATH or CMP between members
            e = int(rng.integers(0, _RUN_ELEMS - 8))
            if extra > 0.95:
                out.append(Instruction(
                    Opcode.MATH, 8, _area_op(F, e),
                    [_area_op(F, e, Region.contiguous(8))],
                    math_fn=MathFn.SQRT))
            else:
                out.append(Instruction(
                    Opcode.CMP, 8, None,
                    [_area_op(D, e, Region.contiguous(8)), Immediate(0, D)],
                    cond_mod=CondMod.GT, flag=FlagOperand(0)))
    return out


def _fusion_groups(program):
    """Instruction indices per megakernel statement that more than one
    instruction shares (the listing names a fused run's members right
    above its statement)."""
    import re

    from repro.isa.jit import JitKernel

    groups, pending = [], []
    for line in JitKernel(program).listing().splitlines():
        mark = re.match(r"\s*# \[\s*(\d+)\]", line)
        if mark:
            pending.append(int(mark.group(1)))
        elif pending:
            if len(pending) > 1:
                groups.append(pending)
            pending = []
    return groups


def _assert_runs_match(program):
    with np.errstate(all="ignore"):
        seq = _run_sequential(program, 0, tids=_RUN_TIDS)
        for chunk in (1, 2, 32):
            _assert_bit_identical(
                seq, _run_jit(program, 0, chunk=chunk, tids=_RUN_TIDS))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
def test_fused_runs_match_sequential(seeds):
    program = _run_prologue()
    for seed in seeds:
        program += _fused_run(seed)
    _assert_runs_match(program)


def _mul_run(dsts, scalars, rows):
    """SIMD16 float MULs: dst[j] = scalar[j] * row[j] (dword offsets)."""
    return [Instruction(Opcode.MUL, 16, _area_op(F, d),
                        [_area_op(F, s, Region.scalar()),
                         _area_op(F, r, Region.contiguous(16))])
            for d, s, r in zip(dsts, scalars, rows)]


@pytest.mark.parametrize("case", ["progression", "scattered", "raw", "war",
                                  "waw", "predicated"])
def test_fused_run_cases(case):
    """Planted layouts and hazards: which members share a statement,
    and that every one matches sequential dispatch."""
    dsts, scalars, rows = [64, 80, 96, 112], [0, 3, 6, 9], [16] * 4
    if case == "scattered":
        dsts, scalars, rows = [64, 96, 80, 112], [5, 0, 9, 2], [16, 40, 3, 7]
    elif case == "raw":      # member 2 reads member 1's destination
        rows = [16, 16, 80, 16]
    elif case == "war":      # member 2 overwrites member 0's row
        rows, dsts = [40, 16, 16, 16], [64, 80, 40, 112]
    elif case == "waw":      # members 1 and 3 write the same bytes
        dsts = [64, 80, 96, 80]
    run = _mul_run(dsts, scalars, rows)
    if case == "predicated":
        run[2] = dataclasses.replace(run[2], pred=Predicate(FlagOperand(0)))
    program = _run_prologue() + run
    first = len(program) - 4
    expect = {
        "progression": [[first, first + 1, first + 2, first + 3]],
        "scattered": [[first, first + 1, first + 2, first + 3]],
        "raw": [[first, first + 1], [first + 2, first + 3]],
        "war": [[first, first + 1, first + 2, first + 3]],
        "waw": [[first, first + 1, first + 2]],
        "predicated": [[first, first + 1]],
    }[case]
    assert [g for g in _fusion_groups(program) if g[0] >= first] == expect
    _assert_runs_match(program)


def _small_word_surfaces(value):
    """Surface tables whose every dword is ``value``: loaded words are
    valid dword offsets, on other lines than the original addresses."""
    def make(seed):
        table = _make_surfaces(seed)
        for surf in table.values():
            surf.bytes[:] = np.full(surf.bytes.size // 4, value,
                                    dtype=np.int32).view(np.uint8)
        return table
    return make


@pytest.mark.parametrize("kind", ["gather", "atomic"])
def test_send_overwriting_its_addresses_records_reread_addresses(kind):
    """A GATHER whose payload is its own address register, and an ATOMIC
    whose returned old values land on its addresses: the sequential
    tracer reads the addresses after the SEND runs, and so must the
    JIT's timing record."""
    if kind == "gather":
        msg = MessageDesc(MsgKind.GATHER, surface=0, addr_reg=_AREG,
                          payload_reg=_AREG, payload_bytes=32,
                          elem_dtype=D)
        send = Instruction(Opcode.SEND, 8, None, [], msg=msg)
        make = _small_word_surfaces(60)
    else:
        msg = MessageDesc(MsgKind.ATOMIC, surface=2, addr_reg=_AREG,
                          atomic_op="inc", elem_dtype=D)
        send = Instruction(Opcode.SEND, 8, _dst(_AREG, D), [], msg=msg)
        make = _small_word_surfaces(0)
    assert jit_mod._rewrites_addresses(send)
    program = _prologue() + [send, _use(_AREG, _DATA[2])]
    with np.errstate(all="ignore"):
        seq = _run_sequential(program, 3, make=make)
        for chunk in (len(_TIDS), 2):
            _assert_bit_identical(
                seq, _run_jit(program, 3, chunk=chunk, make=make))
