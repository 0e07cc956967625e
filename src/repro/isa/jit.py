"""Kernel JIT: megakernel compilation of Gen programs — the vector tier.

Sequential dispatch pays one Python interpreter step per instruction
per thread.  Given a compiled program, :class:`JitKernel` instead
*generates Python source* for one function — the **megakernel** — that
executes the whole program for a chunk of T threads at once, on the
stacked ``(T, 4096)`` register file of :class:`JitTracingExecutor`,
with zero interpreter dispatch:

- the megakernel binds one typed view of the stacked register file per
  dtype at entry (``g1 = g.view(np.float32)``), and every
  element-aligned region operand is pre-resolved against it: scalar and
  contiguous regions become zero-copy element slices
  (``g1[:, 416:432]``), strided ones ``np.take`` with a baked element
  index array; an unaligned operand is a byte slice viewed as its dtype;
- consecutive ALU instructions that agree in opcode, exec size, operand
  dtypes and operand kinds (the SIMD16 chunks legalization split a wide
  operation into) fuse into one statement over ``(T, k, n)`` operands,
  unless a member reads or overwrites bytes an earlier member writes
  (see :func:`_fusion_info`, :func:`_joins`);
- immediates are baked broadcast arrays; execution dtypes, conversion
  and saturation decisions are resolved at compile time;
- predication compiles to masked ``np.copyto`` writes against baked
  flag views;
- SEND instructions call closures built per message kind, passing them
  the SEND's address columns as baked typed-view slices; a closure uses
  one read of them for execution, the race recorder and the timing
  record, whose cache lines :mod:`repro.memory.surfaces` marks without
  a sort across threads.

**Structured SIMD control flow** compiles to plain Python control flow
over vectorized mask state.  IF/ELSE/ENDIF/BREAK become inlined updates
of the ``(T, 32)`` active mask ``a`` and the ``(T, depth, 32)``
restore/else frame stacks ``rs``/``pd``, at the static frame depths of
:meth:`~repro.isa.plans.PlanTable.cf_plan` (BREAK also clears its
``break_clear`` levels).  Each DO…WHILE becomes a Python ``while`` over
the rows (threads) still looping: a thread whose WHILE condition has no
live lane restores its mask and leaves the row set, and the loop ends
when the set is empty — the immediate post-dominator where the
reconvergence plan says every thread rejoins.  That is the issue order
of a scheduler that always runs the minimum per-thread PC, so memory
effects and atomics keep thread order.  Inside a loop every write and
SEND is masked to the loop's rows as well as to the active lanes.

Timing never needs an interpreter either.  SIMD control flow changes
only the active masks: every thread steps through every instruction
of a structured region, and only loop trip counts give a thread its
own instruction stream.  Code generation therefore cuts the program
into static **blocks** and the megakernel charges each block's issue
cost (instructions, issue cycles, barriers) once, to the ``(T,)``
accumulators of the rows that run it.  A block ends where the row set
changes (DO/WHILE), at a SEND (which stamps its issue position), and
before an ALU instruction whose sources may hold a pending SEND payload
(a may-pending dataflow over the structured program, loop back edges
included, finds those at codegen, and only there does the megakernel
retire payloads).  A loop-free program is the case where the rows are
always all T threads.  :class:`JitTracingExecutor` holds the stacked
state, the vectorized SENDs and the ``(T,)`` timing accumulators the
megakernel runs against.  Costs depend on the machine, so
:meth:`JitKernel.block_costs` sums them lazily per machine, and
declines (:class:`JitError`) a machine whose costs do not sum exactly
in any grouping.  The per-thread traces are bit-identical to the
sequential path's.

Plan state is shared through the program-scoped
:class:`~repro.isa.plans.PlanTable` and the compiled function caches on
:class:`~repro.compiler.driver.CompiledKernel` (see :func:`get_jit`), so
JIT artifacts live exactly as long as their program does in the
:class:`~repro.compiler.cache.KernelCache`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

from repro.isa.cfg import CFError, analyze_cf
from repro.isa.dtypes import UD, DType, convert, promote, signed, unsigned
from repro.isa.executor import (
    CF_STEP_LIMIT, ExecutionError, FunctionalExecutor, _contiguous_region,
    _emask_off, _math_compute,
)
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import (
    CF_OPCODES, CondMod, Immediate, Instruction, MathFn, MsgKind, Opcode,
)
from repro.isa.msg_geometry import (
    media_block_messages, oword_block_messages, scatter_messages,
)
from repro.isa.plans import PlanTable
from repro.isa.wide import (
    _ACCESS_KIND, _MEM_KIND, _WIDE_MSG_KINDS, WideScratch, _fold_event,
    _SendEvent, _wide_atomic,
)
from repro.obs.tracing import trace_span
from repro.sim.batch import CF_COSTS, _alu_cost
from repro.sim.trace import MemEvent, ThreadTrace

__all__ = [
    "JitError", "JitKernel", "JitTracingExecutor", "get_jit",
    "ineligible_reason", "jit_eligible",
]


class JitError(ExecutionError):
    """Raised when a program cannot be compiled to a megakernel.

    The device gate treats this as "not JIT-eligible" and runs the
    launch on the sequential tier, recording the reason; it never
    indicates an invalid program (those raise the ordinary execution
    errors, exactly as the sequential interpreter would at run time).
    """


def ineligible_reason(program: Iterable[Instruction],
                      plans: Optional[PlanTable] = None) -> Optional[str]:
    """Why a compiled program cannot run on the JIT tier (or ``None``).

    Two static refusals, surfaced separately in the device gate
    taxonomy:

    - ``"unsupported-message"`` — a SEND uses a message kind the
      vectorized handlers do not cover;
    - ``"malformed-control-flow"`` — the structured-CF opcodes do not
      nest (code generation lowers CF through the program's
      reconvergence plan, which such a program does not have).

    Well-formed structured control flow is *not* disqualifying.  Given
    the program's ``plans``, the control-flow analysis is the table's
    cached :meth:`~repro.isa.plans.PlanTable.cf_plan`.
    """
    program = tuple(program)
    has_cf = False
    for inst in program:
        if inst.opcode is Opcode.SEND:
            msg = inst.msg
            if msg is None or msg.kind not in _WIDE_MSG_KINDS:
                return "unsupported-message"
        elif inst.opcode in CF_OPCODES:
            has_cf = True
    if has_cf:
        try:
            if plans is not None:
                plans.cf_plan()
            else:
                analyze_cf(program)
        except CFError:
            return "malformed-control-flow"
    return None


def jit_eligible(program: Iterable[Instruction]) -> bool:
    """Static pre-check: can this program compile to a megakernel?

    A ``True`` answer can still fail compilation on operand corner
    cases (:class:`JitError`); the device gate then runs the launch
    sequentially and records the compile error as the reason.
    """
    return ineligible_reason(program) is None


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------


def _bind(env: dict, prefix: str, value) -> str:
    """Intern ``value`` into the codegen environment; returns its name.

    Identical objects share one name (dtype singletons, interned
    ``np.dtype`` instances), which keeps the generated source readable.
    The ``id`` side table makes each lookup O(1); every interned value
    stays alive in ``env`` for the whole codegen, so no id is reused.
    """
    names = env["_ids"]
    key = (prefix, id(value))
    name = names.get(key)
    if name is None:
        name = names[key] = f"{prefix}{len(env)}"
        env[name] = value
    return name


def _view(env: dict, dt: np.dtype) -> str:
    """The megakernel's name for its typed view of the stacked GRF.

    The megakernel binds one ``g.view(dtype)`` per dtype at entry
    (``g1 = g.view(np.float32)``), so an aligned operand is a plain
    element slice; uint8 operands slice ``g`` itself.
    """
    if dt == np.uint8:
        return "g"
    views = env["_views"]
    name = views.get(dt)
    if name is None:
        name = views[dt] = f"g{len(views) + 1}"
    return name


def _slice(env: dict, dt: np.dtype, lo: int, hi: int) -> str:
    """A zero-copy ``(T, m)`` view of GRF bytes ``[lo, hi)`` as ``dt``:
    an element slice of the typed view, or a byte slice viewed as
    ``dt`` where ``lo`` is not a multiple of the element size."""
    sz = dt.itemsize
    if lo % sz:
        return f"g[:, {lo}:{hi}].view({_bind(env, '_dt', dt)})"
    return f"{_view(env, dt)}[:, {lo // sz}:{hi // sz}]"


def _src_expr(env: dict, pb: FunctionalExecutor, s, n: int):
    """(expression, operand np dtype, byte span or None).

    Decided from the region parameters: scalar regions compile to
    ``(T, 1)`` slices of the typed GRF views that broadcast, contiguous
    regions to zero-copy slices, anything else to ``np.take`` with a
    baked flat byte index (the only operand that builds a byte plan).
    The span is ``(first byte, end byte, run)``, ``run`` telling whether
    the bytes read are exactly that range.  Immediates (including packed
    vector immediates) bake to shared read-only ``(n,)`` arrays.
    """
    if isinstance(s, RegOperand):
        sz = s.dtype.size
        o0 = s.byte_offset
        region = s.region
        end = o0 + (region.span(n) + 1) * sz
        if o0 < 0 or end > pb.grf.bytes.size:
            pb._src_plan(s, n)  # raises the interpreter's bounds error
        dt = np.dtype(s.dtype.np_dtype)
        if region.is_scalar(n) or region.is_contiguous(n):
            return _slice(env, dt, o0, end), dt, (o0, end, True)
        plan = pb._src_plan(s, n)
        if o0 % sz == 0:  # element indices into the typed view
            ixn = _bind(env, "_ix", plan[:, 0] // sz)
            return (f"np.take({_view(env, dt)}, {ixn}, axis=1)", dt,
                    (o0, end, False))
        ixn = _bind(env, "_ix", np.ascontiguousarray(plan.reshape(-1)))
        dtn = _bind(env, "_dt", dt)
        return f"np.take(g, {ixn}, axis=1).view({dtn})", dt, (o0, end, False)
    arr = np.asarray(pb._fetch(s, n))  # read-only broadcast payload
    return _bind(env, "_c", arr), arr.dtype, None


def _dst_span(pb: FunctionalExecutor, dst: RegOperand, n: int) -> tuple:
    """``(first byte, end byte, packed)`` of an ``n``-element write;
    raises the interpreter's bounds error for a write outside the GRF."""
    sz = dst.dtype.size
    o0 = dst.byte_offset
    end = o0 + ((n - 1) * dst.dst_stride + 1) * sz
    if o0 < 0 or end > pb.grf.bytes.size:
        pb._dst_plan(dst, n)
    return o0, end, n == 1 or dst.dst_stride == 1


def _mask_expr(inst: Instruction) -> Optional[str]:
    p = inst.pred
    if p is None:
        return None
    base = f"f{p.flag.index}[:, :{inst.exec_size}]"
    return f"(~{base})" if p.invert else base


def _math_expr(env: dict, inst: Instruction, exec_dt: DType,
               ops: list) -> str:
    fn = inst.math_fn
    if fn is MathFn.INV:
        return f"(1.0 / {ops[0]})"
    if fn is MathFn.SQRT:
        return f"np.sqrt({ops[0]})"
    if fn is MathFn.RSQRT:
        return f"(1.0 / np.sqrt({ops[0]}))"
    if fn is MathFn.LOG:
        return f"np.log2({ops[0]})"
    if fn is MathFn.EXP:
        return f"np.exp2({ops[0]})"
    if fn is MathFn.POW:
        return f"np.power({ops[0]}, {ops[1]})"
    if fn is MathFn.FDIV:
        return f"({ops[0]} / {ops[1]})"
    if fn is MathFn.IDIV:
        dtn = _bind(env, "_dt", np.dtype(exec_dt.np_dtype))
        return f"(({ops[0]} // {ops[1]}).astype({dtn}))"
    if fn is MathFn.SIN:
        return f"np.sin({ops[0]})"
    if fn is MathFn.COS:
        return f"np.cos({ops[0]})"
    raise JitError(f"unhandled math fn {fn}")


def _alu_expr(env: dict, inst: Instruction, exec_dt: DType,
              ops: list) -> str:
    """The expression computing one ALU instruction (mirrors
    :func:`repro.isa.executor._alu_compute` case by case)."""
    op = inst.opcode
    if op is Opcode.ADD:
        return f"({ops[0]} + {ops[1]})"
    if op is Opcode.SUB:
        return f"({ops[0]} - {ops[1]})"
    if op is Opcode.MUL:
        return f"({ops[0]} * {ops[1]})"
    if op is Opcode.MAD:
        return f"({ops[0]} + {ops[1]} * {ops[2]})"
    if op is Opcode.AND:
        return f"({ops[0]} & {ops[1]})"
    if op is Opcode.OR:
        return f"({ops[0]} | {ops[1]})"
    if op is Opcode.XOR:
        return f"({ops[0]} ^ {ops[1]})"
    if op is Opcode.NOT:
        return f"(~{ops[0]})"
    if op is Opcode.SHL:
        return f"({ops[0]} << {ops[1]})"
    if op in (Opcode.SHR, Opcode.ASR):
        if exec_dt.is_float:
            raise JitError(f"{op.value} on float operands")
        # shr: logical (view as unsigned); asr: arithmetic (view signed).
        want = unsigned(exec_dt) if op is Opcode.SHR else signed(exec_dt)
        if want is not exec_dt:
            vtn = _bind(env, "_dt", np.dtype(want.np_dtype))
            return f"(({ops[0]}).view({vtn}) >> ({ops[1]}).view({vtn}))"
        return f"({ops[0]} >> {ops[1]})"
    if op is Opcode.MIN:
        return f"np.minimum({ops[0]}, {ops[1]})"
    if op is Opcode.MAX:
        return f"np.maximum({ops[0]}, {ops[1]})"
    if op is Opcode.AVG:
        return f"(({ops[0]} + {ops[1]} + 1) >> 1)"
    if op is Opcode.MATH:
        return _math_expr(env, inst, exec_dt, ops)
    raise JitError(f"unhandled opcode {op}")


def _and(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None or b is None:
        return a or b
    return f"({a} & {b})"


def _emit_write(out: list, env: dict, pb: FunctionalExecutor,
                dst: RegOperand, n: int, val: str,
                mask: Optional[str]) -> None:
    """One statement storing the expression ``val`` to ``dst``."""
    o0, end, packed = _dst_span(pb, dst, n)
    if packed:
        dt = np.dtype(dst.dtype.np_dtype)
        dv = _slice(env, dt, o0, end)
        if mask is not None:
            out.append(f"np.copyto({dv}, {val}, where={mask})")
        elif o0 % dt.itemsize:
            out.append(f"{dv}[...] = {val}")
        else:
            out.append(f"{dv} = {val}")
    else:  # strided destination: the stacked-GRF RMW fancy-index path
        opn = _bind(env, "_wo", dst)
        ixn = _bind(env, "_wx", pb._dst_plan(dst, n))
        out.append(f"ex._write_dst({opn}, {val}, {mask or 'None'}, {ixn})")


def _result_dtype(inst: Instruction, exec_dt: DType) -> Optional[np.dtype]:
    """The numpy dtype of :func:`_alu_expr`'s value, whose operands all
    have ``exec_dt`` (``None`` when numpy rejects the operation, which
    the generated code then raises at run time exactly as the
    interpreter does)."""
    op = inst.opcode
    if op is Opcode.MATH:  # integer sources promote per function
        ones = np.ones(1, dtype=exec_dt.np_dtype)
        try:
            with np.errstate(all="ignore"):
                return _math_compute(inst.math_fn,
                                     [ones] * len(inst.srcs)).dtype
        except (TypeError, ValueError):  # numpy refuses the dtype
            return None
    if op is Opcode.SHR and exec_dt.is_signed:
        return np.dtype(unsigned(exec_dt).np_dtype)
    if op is Opcode.ASR and not exec_dt.is_signed:
        return np.dtype(signed(exec_dt).np_dtype)
    return np.dtype(exec_dt.np_dtype)


def _alu_value(env: dict, inst: Instruction, fetched: list) -> str:
    """The expression of one ALU instruction's value in its destination
    type, from its ``(expression, np dtype, span)`` sources.

    A conversion to the destination type is emitted only where numpy's
    result dtype, known at codegen from the operand dtypes, differs from
    it (the interpreter converts exactly then), or under ``.sat``.
    """
    op = inst.opcode
    dst_t = inst.dst.dtype
    if op is Opcode.MOV:
        val, rdt = fetched[0][:2]
    elif op is Opcode.SEL:
        val = (f"np.where({_mask_expr(inst)}, {fetched[0][0]}, "
               f"{fetched[1][0]})")
        rdt = np.result_type(fetched[0][1], fetched[1][1])
    else:
        exec_dt = inst.srcs[0].dtype
        for s in inst.srcs[1:]:
            exec_dt = promote(exec_dt, s.dtype)
        if not dst_t.is_float and exec_dt.is_float and \
                op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            raise JitError("bitwise ops on float operands")
        ops = []
        for expr, sdt, _span in fetched:
            if sdt != np.dtype(exec_dt.np_dtype):
                expr = f"_cv({expr}, {_bind(env, '_ET', exec_dt)})"
            ops.append(expr)
        val = _alu_expr(env, inst, exec_dt, ops)
        rdt = _result_dtype(inst, exec_dt)
    if inst.sat:
        return f"_cv({val}, {_bind(env, '_ET', dst_t)}, True)"
    if rdt != np.dtype(dst_t.np_dtype):
        return f"_cv({val}, {_bind(env, '_ET', dst_t)})"
    return val


def _emit_alu(out: list, env: dict, pb: FunctionalExecutor,
              inst: Instruction, cfm: Optional[str]) -> None:
    """One ALU instruction; ``cfm`` is its SIMD-CF write mask, if any.

    One statement computes the value and stores it.
    """
    op = inst.opcode
    dst = inst.dst
    if dst is None:
        raise JitError(f"ALU instruction without destination: {inst.asm()}")
    n = inst.exec_size
    do, dend, packed = _dst_span(pb, dst, n)
    pred = _mask_expr(inst)
    mask = _and(pred, cfm)
    fetched = [_src_expr(env, pb, s, n) for s in inst.srcs]

    if op is Opcode.MOV:
        val, rdt, span = fetched[0]
        if span is not None and rdt == np.dtype(dst.dtype.np_dtype) and \
                not inst.sat:
            # the value stays a view of the stacked GRF
            so, send, run = span
            nb = n * dst.dtype.size
            if mask is None and run and send - so == nb and packed:
                # whole-region move: one byte-range copy, no views at all
                if so != do:
                    out.append(f"g[:, {do}:{do + nb}] = g[:, {so}:{so + nb}]")
                return
            if so < dend and do < send and (run and packed or np.intersect1d(
                    pb._src_plan(inst.srcs[0], n).reshape(-1),
                    pb._dst_plan(dst, n).reshape(-1)).size):
                # the value would be a live view of bytes the write
                # overwrites; materialize it first (the sequential
                # interpreter fetches copies, so this is what keeps
                # overlap semantics identical)
                fetched[0] = (f"({val}).copy()", rdt, span)
    elif op is Opcode.SEL:
        if pred is None:
            raise JitError("sel requires a predicate")
        mask = cfm  # sel writes all lanes; the predicate picked the source
    _emit_write(out, env, pb, dst, n, _alu_value(env, inst, fetched), mask)


# -- fused ALU runs -----------------------------------------------------------
#
# Legalization splits a wide region operation into SIMD16 instructions;
# codegen re-fuses a run of consecutive ALU instructions that agree in
# opcode, exec size, operand dtypes and operand kinds into one statement
# over (T, k, n) operands.  All of a statement's reads happen before its
# store, so a run may not read bytes an earlier member writes, and its
# destinations may not overlap (MOV runs, whose value is a live view,
# keep sources and destinations apart as well).

#: ALU opcodes that never join a run: MATH (its transcendental numpy
#: kernels are held to the sequential tier one instruction at a time
#: only), CMP (writes flags) and SEL (always predicated).
_UNFUSED = {Opcode.MATH, Opcode.CMP, Opcode.SEL}


def _overlap(a: tuple, b: tuple) -> bool:
    return a[0] < b[1] and b[0] < a[1]


class _Fusable(NamedTuple):
    """What fusion needs of one ALU instruction (:func:`_fusion_info`)."""

    #: what every member of a run shares: opcode, exec size, dtypes and
    #: operand kinds
    key: tuple
    #: per source: ``("i", payload)`` for an immediate, ``("r", dtype,
    #: element, width)`` for a scalar or contiguous region, ``("x",
    #: dtype, elements)`` for any other
    srcs: list
    #: ``(dtype, element, width)`` of the packed destination
    dst: tuple
    #: source byte ranges (a strided source's whole span, which can only
    #: refuse a run too many) and the destination's
    reads: list
    write: tuple


def _fusion_info(pb: FunctionalExecutor,
                 inst: Instruction) -> Optional[_Fusable]:
    """What fusion needs of an ALU instruction that may join a fused run,
    else ``None``.

    Candidates are unpredicated, unsaturated ALU instructions whose
    destination is packed and element-aligned and whose sources are
    immediates or element-aligned regions.
    """
    op = inst.opcode
    dst = inst.dst
    if op in _UNFUSED or inst.pred is not None or inst.sat or dst is None:
        return None
    n = inst.exec_size
    do, dend, packed = _dst_span(pb, dst, n)
    ddt = np.dtype(dst.dtype.np_dtype)
    if not packed or do % ddt.itemsize:
        return None
    limit = pb.grf.bytes.size
    srcs, kinds, reads = [], [], []
    for s in inst.srcs:
        if not isinstance(s, RegOperand):
            arr = np.asarray(pb._fetch(s, n))
            srcs.append(("i", arr))
            kinds.append(("i", arr.dtype))
            continue
        dt = np.dtype(s.dtype.np_dtype)
        sz, o0 = dt.itemsize, s.byte_offset
        end = o0 + (s.region.span(n) + 1) * sz
        if o0 < 0 or end > limit or o0 % sz:
            return None
        if s.region.is_scalar(n) or s.region.is_contiguous(n):
            width = (end - o0) // sz
            srcs.append(("r", dt, o0 // sz, width))
            kinds.append(("r", dt, width))
        else:
            srcs.append(("x", dt, pb._src_plan(s, n)[:, 0] // sz))
            kinds.append(("x", dt))
        reads.append((o0, end))
    if op is Opcode.MOV and reads and _overlap(reads[0], (do, dend)):
        return None
    return _Fusable((op, n, ddt, tuple(kinds)), srcs,
                    (ddt, do // ddt.itemsize, 1 if n == 1 else n), reads,
                    (do, dend))


def _joins(run: list, info: _Fusable) -> bool:
    """Whether an instruction with fusion ``info`` may extend ``run``."""
    if info.key != run[0][2].key:
        return False
    mov = info.key[0] is Opcode.MOV
    for _, _, member in run:
        if _overlap(info.write, member.write) or any(
                _overlap(r, member.write) for r in info.reads):
            return False  # write-after-write / read-after-write
        if mov and any(_overlap(info.write, r) for r in member.reads):
            return False
    return True


def _run_operand(env: dict, pb: FunctionalExecutor, dt: np.dtype,
                 elems: list, width: int, store: bool) -> str:
    """One operand of a fused run as a ``(T, k, width)`` expression.

    Element offsets in arithmetic progression become strided views of
    the typed GRF view (a broadcast one for a repeated operand); any
    other offsets a bound ``(k, width)`` index array.  ``store`` asks
    for an assignment target.
    """
    view = _view(env, dt)
    k, e0 = len(elems), elems[0]
    step = elems[1] - e0
    if all(e == e0 + j * step for j, e in enumerate(elems)):
        if step == 0:  # the same operand in every member
            return f"{view}[:, None, {e0}:{e0 + width}]"
        if width == 1:
            stop = elems[-1] + (1 if step > 0 else -1)
            return f"{view}[:, {e0}:{stop if stop >= 0 else ''}:{step}, None]"
        if step >= width and e0 + k * step <= pb.grf.bytes.size // dt.itemsize:
            v = f"{view}[:, {e0}:{e0 + k * step}].reshape(_T, {k}, {step})"
            if step > width:
                return f"{v}[:, :, :{width}]"
            return f"{v}[...]" if store else v
    ixn = _bind(env, "_ix", np.asarray(elems)[:, None] + np.arange(width))
    return f"{view}[:, {ixn}]" if store else f"np.take({view}, {ixn}, axis=1)"


def _emit_run(env: dict, pb: FunctionalExecutor, run: list) -> str:
    """The one statement of a fused run of ALU instructions."""
    first = run[0][1]
    infos = [info for _, _, info in run]
    fetched = []
    for p in range(len(first.srcs)):
        descs = [info.srcs[p] for info in infos]
        if descs[0][0] == "i":
            c = descs[0][1]
            if any(d[1].tobytes() != c.tobytes() for d in descs):
                c = np.stack([d[1] for d in descs])  # (k, n)
                c.flags.writeable = False
            fetched.append((_bind(env, "_c", c), c.dtype, None))
        elif descs[0][0] == "x":
            dt = descs[0][1]
            ixn = _bind(env, "_ix", np.stack([d[2] for d in descs]))
            fetched.append((f"np.take({_view(env, dt)}, {ixn}, axis=1)", dt,
                            None))
        else:
            _, dt, _, width = descs[0]
            fetched.append((_run_operand(env, pb, dt, [d[2] for d in descs],
                                         width, False), dt, None))
    ddt, _, width = infos[0].dst
    target = _run_operand(env, pb, ddt, [info.dst[1] for info in infos],
                          width, True)
    return f"{target} = {_alu_value(env, first, fetched)}"


_CMP_FNS = {
    CondMod.EQ: "np.equal", CondMod.NE: "np.not_equal",
    CondMod.LT: "np.less", CondMod.LE: "np.less_equal",
    CondMod.GT: "np.greater", CondMod.GE: "np.greater_equal",
}


def _emit_cmp(out: list, env: dict, pb: FunctionalExecutor,
              inst: Instruction, cfm: Optional[str]) -> None:
    """One CMP: flag lanes (and the optional bool-vector dst) are
    written under the SIMD-CF mask only — a CMP's predicate is unused."""
    n = inst.exec_size
    fn = _CMP_FNS.get(inst.cond_mod)
    if fn is None:
        raise JitError(f"cmp without conditional modifier: {inst.asm()}")
    exec_dt = promote(inst.srcs[0].dtype, inst.srcs[1].dtype)
    ops = []
    for s in inst.srcs:
        expr, sdt, _sidx = _src_expr(env, pb, s, n)
        if sdt != np.dtype(exec_dt.np_dtype):
            expr = f"_cv({expr}, {_bind(env, '_ET', exec_dt)})"
        ops.append(expr)
    fi = inst.flag.index if inst.flag else 0
    val = f"{fn}({ops[0]}, {ops[1]})"
    if inst.dst is not None:
        out.append(f"r = np.broadcast_to({val}, (_T, {n}))")
        val = "r"
    if cfm is None:
        out.append(f"f{fi}[:, :{n}] = {val}")
    else:
        out.append(f"np.copyto(f{fi}[:, :{n}], {val}, where={cfm})")
    if inst.dst is not None:
        dtn = _bind(env, "_dt", np.dtype(inst.dst.dtype.np_dtype))
        _emit_write(out, env, pb, inst.dst, n, f"r.astype({dtn})", cfm)


# -- structured control flow --------------------------------------------------
#
# Generated names: ``a`` is the (T, 32) active mask, ``rs``/``pd`` the
# (T, depth, 32) restore / pending-else frame stacks, ``rw{L}`` the
# ascending thread ids running at loop level L (``rw0``: every thread)
# and ``rm{L}`` the matching (T, 1) row mask.  Outside loops every
# thread runs, so frame updates use the ``:`` selector.


def _cf_write_mask(inst: Instruction, level: int,
                   depth: int) -> Optional[str]:
    """The SIMD-CF write mask of a non-CF instruction (or ``None``).

    At frame depth 0 every lane is active; inside a loop the rows that
    left it must not observe the write — even a scalar one, which is
    otherwise uniform inside SIMD control flow.
    """
    n = inst.exec_size
    rows = f"rm{level}" if level else None
    if n == 1:
        return rows
    off = _emask_off(inst)
    if off + n > 32:
        raise JitError(
            f"operation covers lanes {off}..{off + n - 1} inside SIMD "
            f"control flow (only 32 execution-mask channels exist)")
    if depth == 0:
        return None
    return _and(f"a[:, {off}:{off + n}]", rows)


def _cf_cond(env: dict, inst: Instruction, sel: str) -> str:
    """The (R, 32) lanes an IF/WHILE/BREAK acts on: predicate flag
    lanes (all lanes when unpredicated) AND the active mask."""
    if inst.pred is None:
        return f"a[{sel}].copy()"
    lanes = f"f{inst.pred.flag.index}[{sel}]"
    if inst.pred.invert:
        lanes = f"~{lanes}"
    n = inst.exec_size
    if n < 32:
        name = f"_lm{n}"
        if name not in env:
            env[name] = np.arange(32) < n
        lanes = f"{lanes} & {name}"
    return f"{lanes} & a[{sel}]"


def _sync_rows(level: int) -> str:
    """Publish loop level ``level``'s rows to the SEND handlers."""
    if level == 0:
        return "ex._rows, ex._rowm, ex._row_all = rw0, None, True"
    return (f"ex._rows, ex._rowm, ex._row_all = "
            f"rw{level}, rm{level}, rw{level}.size == _T")


def _emit_cf(out: list, env: dict, inst: Instruction, i: int, cf,
             level: int) -> int:
    """Emit one CF opcode; returns the loop level after it."""
    op = inst.opcode
    d = cf.depth_at[i]
    sel = f"rw{level}" if level else ":"
    rows = f"rw{level}"
    if op is Opcode.SIMD_IF:
        out += [f"_c = {_cf_cond(env, inst, sel)}",
                f"rs[{sel}, {d}] = a[{sel}]",
                f"pd[{sel}, {d}] = a[{sel}] & ~_c",
                f"a[{sel}] = _c"]
    elif op is Opcode.SIMD_ELSE:
        out.append(f"a[{sel}] = pd[{sel}, {d - 1}]")
    elif op is Opcode.SIMD_ENDIF:
        out.append(f"a[{sel}] = rs[{sel}, {d - 1}]")
    elif op is Opcode.SIMD_BREAK:
        # Broken lanes leave every IF frame up to the innermost loop
        # too, so they cannot resurrect at an ELSE/ENDIF.
        out += [f"_c = {_cf_cond(env, inst, sel)}",
                f"a[{sel}] = a[{sel}] & ~_c"]
        for lvl in cf.break_clear[i]:
            out += [f"rs[{sel}, {lvl}] = rs[{sel}, {lvl}] & ~_c",
                    f"pd[{sel}, {lvl}] = pd[{sel}, {lvl}] & ~_c"]
    elif op is Opcode.SIMD_DO:
        inner = level + 1
        out += [f"rs[{sel}, {d}] = a[{sel}]",
                f"rw{inner} = {rows}",
                "while True:",
                f"    rm{inner} = np.zeros((_T, 1), dtype=bool)",
                f"    rm{inner}[rw{inner}] = True",
                "    " + _sync_rows(inner)]
        return inner
    else:  # SIMD_WHILE: threads with no live lane leave the loop
        out += [f"_c = {_cf_cond(env, inst, sel)}",
                "_ag = _c.any(axis=1)",
                f"_xr = {rows}[~_ag]",
                f"a[_xr] = rs[_xr, {d - 1}]",
                f"{rows} = {rows}[_ag]",
                f"if not {rows}.size:",
                "    break",
                f"a[{rows}] = _c[_ag]",
                f"st += {i - cf.body_of[i] + 1}",
                "if st > _LIM:",
                "    raise _XE('SIMD control flow executed more than "
                f"{CF_STEP_LIMIT} instructions (runaway loop?)')"]
        return level - 1
    return level


# -- static timing: pending payloads and block costs --------------------------


#: Opcodes that are not ALU instructions: only ALU/CMP sources retire
#: pending payloads, and only SENDs leave them.
_NON_ALU = CF_OPCODES | {Opcode.SEND, Opcode.BARRIER, Opcode.NOP}

#: Most pending maps the load-use analysis carries into a loop before
#: it falls back to a coarser answer (see :func:`_consume_points`).
_MAX_PENDING_MAPS = 64


def _payload_regs(inst: Instruction) -> tuple:
    """The GRF registers a SEND leaves pending until their first use:
    its read payload, or an atomic's returned old values."""
    msg = inst.msg
    kind = msg.kind
    if kind is MsgKind.MEDIA_BLOCK_READ:
        first, nbytes = msg.payload_reg, msg.block_width * msg.block_height
    elif kind is MsgKind.OWORD_BLOCK_READ:
        first, nbytes = msg.payload_reg, msg.payload_bytes
    elif kind is MsgKind.GATHER:
        first = msg.payload_reg
        nbytes = inst.exec_size * msg.elem_dtype.size
    elif kind is MsgKind.ATOMIC and inst.dst is not None:
        first = inst.dst.byte_offset // GRF_SIZE_BYTES
        nbytes = inst.exec_size * msg.elem_dtype.size
    else:
        return ()
    return tuple(range(first, first + -(-nbytes // GRF_SIZE_BYTES)))


def _reads(pending: frozenset, regs: tuple) -> dict:
    """Pending SEND site -> the lowest of ``regs`` that awaits it."""
    out: dict = {}
    for r, s in sorted(pending):
        if r in regs:
            out.setdefault(s, r)
    return out


def _consume_points(program, plans: PlanTable, cf) -> dict:
    """ALU index -> (registers to look up per row, SEND sites to stamp).

    The sequential tracer maps each register to the SEND whose payload
    it still awaits, and an ALU instruction reading one retires that
    SEND's whole payload.  Keyed by SEND *site* the map is exact: a
    SEND re-registers all its registers, so every register naming a
    site names its latest instance.  The analysis tracks the set of
    site-level maps that can reach each point.  Every thread takes the
    same path through IF/ELSE and only loop trip counts differ, so a
    loop body is re-walked until the set entering it stops growing (the
    back edge).

    A SEND outside every loop issues one record for all rows.  When an
    ALU outside every loop reads such a site's payload on every path,
    the megakernel stamps that record directly; any other pending site
    is found per row through one source register that names it.  Past
    :data:`_MAX_PENDING_MAPS` maps the analysis looks up every source
    register some SEND loads.  An instruction's source registers are
    its :class:`PlanTable` slot, which the sequential tracer reads too.
    """
    loads = {i: _payload_regs(inst) for i, inst in enumerate(program)
             if inst.opcode is Opcode.SEND}
    if not any(loads.values()):
        return {}
    do_while = {d - 1: w for w, d in cf.body_of.items()}
    sources = plans.source_regs
    points: dict = {}
    outside = set()  # SEND sites outside every loop

    def walk(lo: int, hi: int, maps: set, loop: int) -> set:
        i = lo
        while i < hi:
            op = program[i].opcode
            if op is Opcode.SIMD_DO:
                w, entry = do_while[i], maps
                while True:
                    maps = walk(i + 1, w + 1, entry, loop + 1)
                    if maps <= entry:
                        break
                    entry = entry | maps
                    if len(entry) > _MAX_PENDING_MAPS:
                        raise OverflowError
                i = w + 1
                continue
            if op is Opcode.SEND and loads[i]:
                if not loop:
                    outside.add(i)
                regs = loads[i]
                maps = {frozenset([p for p in m if p[0] not in regs]
                                  + [(r, i) for r in regs]) for m in maps}
            elif op not in _NON_ALU:
                regs = sources(i)
                reads = {m: _reads(m, regs) for m in maps}
                if any(reads.values()):
                    look, stamp = points.setdefault(i, (set(), set()))
                    for read in reads.values():
                        for s, r in read.items():
                            if not loop and s in outside and all(
                                    s in other for other in reads.values()):
                                stamp.add(s)  # read on every path
                            else:
                                look.add(r)
                    # one use retires the SEND's whole payload
                    maps = {frozenset(p for p in m if p[1] not in reads[m])
                            for m in maps}
            i += 1
        return maps

    try:
        walk(0, len(program), {frozenset()}, 0)
    except OverflowError:
        loaded = {r for regs in loads.values() for r in regs}
        points = {i: (loaded.intersection(sources(i)), ()) for i, inst in
                  enumerate(program) if inst.opcode not in _NON_ALU}
    return {i: (tuple(sorted(look)), tuple(sorted(stamp)))
            for i, (look, stamp) in points.items() if look or stamp}


def _send_messages(inst: Instruction) -> int:
    """Hardware messages one SEND splits into."""
    msg = inst.msg
    if msg.kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
        return media_block_messages(msg.block_width, msg.block_height)
    if msg.kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
        return oword_block_messages(msg.payload_bytes)
    return scatter_messages(inst.exec_size)


def _issue_steps(inst: Instruction, machine) -> tuple:
    """The (instructions, issue cycles) additions the sequential tracer
    makes for one instruction, in its order."""
    op = inst.opcode
    icpi = machine.issue_cycles_per_inst
    if op in CF_OPCODES:
        n = CF_COSTS[op]
        return ((n, n * icpi),)
    if op is Opcode.SEND:
        steps = ((1, 2 * icpi),)  # the front end (ThreadTrace.memory)
        extra = 2 * (_send_messages(inst) - 1)
        if extra and inst.msg.kind is not MsgKind.ATOMIC:
            steps = ((extra, extra * icpi),) + steps
        return steps
    return (_alu_cost(inst, machine),)


def _block_costs(program, blocks, machine) -> tuple:
    """``(bn, bc)``: each block's instruction count and issue cycles.

    The megakernel adds a block's cycles in one step where the
    sequential tracer adds them one instruction at a time, so every
    addend must sum exactly in any grouping: a multiple of 2**-10 below
    2**20 keeps a thread's sum of at most 2 * CF_STEP_LIMIT (< 2**23)
    addends within float64's 53 bits.  Integer costs and ``n / lanes``
    with power-of-two lanes qualify; any other cost raises
    :class:`JitError`, and the device runs the launch sequentially.
    """
    bn, bc = [], []
    for block in blocks:
        n = c = 0
        for i in block:
            for dn, dc in _issue_steps(program[i], machine):
                if not (0 <= dc < 2.0 ** 20 and (dc * 1024.0).is_integer()):
                    raise JitError(
                        f"issue cost {dc!r} of `{program[i].asm()}` on "
                        f"{machine.name} does not sum exactly")
                n += dn
                c += dc
        bn.append(n)
        bc.append(float(c))
    return bn, bc


# -- megakernel source ---------------------------------------------------------


def _regs_of(lo: int, hi: int) -> range:
    """The GRF registers holding bytes ``[lo, hi)``."""
    return range(lo // GRF_SIZE_BYTES, (hi - 1) // GRF_SIZE_BYTES + 1)


def _grf_extent(program) -> int:
    """How wide the stacked register file must be for ``program``
    (:attr:`JitKernel.grf_bytes`): one past the highest GRF byte an
    operand, SEND address or SEND payload touches, rounded up to whole
    registers so every typed view of a row is aligned."""
    top = 0
    for inst in program:
        n = inst.exec_size
        dst = inst.dst
        if dst is not None:
            top = max(top, dst.byte_offset + (
                (n - 1) * dst.dst_stride + 1) * dst.dtype.size)
        srcs = [(s, n) for s in inst.srcs]
        msg = inst.msg
        if inst.opcode is Opcode.SEND and msg is not None:
            srcs += [(msg.addr0, 1), (msg.addr1, 1)]
            if msg.kind in _BLOCK_KINDS:
                nbytes = msg.block_width * msg.block_height
            elif msg.kind in _OWORD_KINDS:
                nbytes = msg.payload_bytes
            else:  # scattered: per-lane dword offsets, then the data
                top = max(top, msg.addr_reg * GRF_SIZE_BYTES + 4 * n)
                nbytes = 0 if msg.kind is MsgKind.ATOMIC and \
                    not msg.payload_bytes else n * msg.elem_dtype.size
            top = max(top, msg.payload_reg * GRF_SIZE_BYTES + nbytes)
        for s, k in srcs:
            if isinstance(s, RegOperand):
                top = max(top, s.byte_offset
                          + (s.region.span(k) + 1) * s.dtype.size)
    return -(-top // GRF_SIZE_BYTES) * GRF_SIZE_BYTES


def _rewrites_addresses(inst: Instruction) -> bool:
    """Whether a SEND writes a register it reads its addresses from.

    The sequential tracer reads a SEND's addresses after the SEND has
    run, so such a SEND's timing record must re-read them; every other
    SEND records the addresses it executed with.
    """
    msg = inst.msg
    spans = [(s.byte_offset, s.byte_offset + s.dtype.size)
             for s in (msg.addr0, msg.addr1) if isinstance(s, RegOperand)]
    if msg.kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
        base = msg.addr_reg * GRF_SIZE_BYTES
        spans.append((base, base + 4 * inst.exec_size))
    written = set(_payload_regs(inst))
    dst = inst.dst
    if dst is not None:  # an atomic's returned old values
        lo = dst.byte_offset
        written.update(_regs_of(lo, lo + dst.dtype.size * (
            (inst.exec_size - 1) * dst.dst_stride + 1)))
    return any(r in written for lo, hi in spans for r in _regs_of(lo, hi))


# -- SEND closures -------------------------------------------------------------
#
# A SEND compiles to ``_send{k}(ex, rw{L}, <address columns>)``.  The
# columns are typed-GRF-view slices baked into the megakernel: a (T, 1)
# scalar operand (``g2[:, 9:10]``) or the (T, n) lanes of a scattered
# message (``g3[:, 40:56]``); an immediate operand is its int.  The
# closure is built for the SEND's message kind, so a warm SEND does no
# plan lookup and no kind dispatch.

_BLOCK_KINDS = (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE)
_OWORD_KINDS = (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE)


def _column(env: dict, pb: FunctionalExecutor, s) -> str:
    """A per-message scalar address operand: a (T, 1) column, or the
    int of an immediate."""
    if isinstance(s, Immediate):
        return str(int(s.value))
    return _src_expr(env, pb, s, 1)[0]


def _addr_rows(col, sel, rows: np.ndarray) -> np.ndarray:
    """A scalar address column (see :func:`_column`) as (R,) int64 for
    the rows running the SEND (``sel`` selects them from the column)."""
    if type(col) is int:
        return np.full(rows.size, col, dtype=np.int64)
    return col[sel, 0].astype(np.int64)


def _address_args(env: dict, pb: FunctionalExecutor,
                  inst: Instruction) -> str:
    """The address columns a SEND's closure takes: the block origin
    ``x, y`` of a media block message, the ``offset`` of an oword block
    one, or the lanes and the global offset (``None`` when absent) of a
    scattered one."""
    msg = inst.msg
    if msg.kind in _BLOCK_KINDS:
        cols = [_column(env, pb, msg.addr0), _column(env, pb, msg.addr1)]
    elif msg.kind in _OWORD_KINDS:
        cols = [_column(env, pb, msg.addr0)]
    else:
        n = inst.exec_size
        lanes = RegOperand(msg.addr_reg, 0, UD, region=_contiguous_region(n))
        base = msg.addr0
        cols = [_src_expr(env, pb, lanes, n)[0],
                "None" if base is None or (isinstance(base, Immediate)
                                           and int(base.value) == 0)
                else _column(env, pb, base)]
    return ", ".join(cols)


def _event_shape(inst: Instruction) -> tuple:
    """The message-wide fields of a SEND's timing record: event kind,
    bytes, L3 bytes (``None``: whole lines), messages, is-read."""
    msg = inst.msg
    kind = msg.kind
    if kind in _BLOCK_KINDS:
        nbytes = l3_bytes = msg.block_width * msg.block_height
    elif kind in _OWORD_KINDS:
        nbytes = l3_bytes = msg.payload_bytes
    else:  # scattered messages move whole lines
        nbytes, l3_bytes = inst.exec_size * msg.elem_dtype.size, None
    return (_MEM_KIND[kind], nbytes, l3_bytes, _send_messages(inst),
            _ACCESS_KIND[kind] != "w")


def _send_fn(inst: Instruction, looked_up: set):
    """The ``_send{k}`` closure: run one SEND for ``rows`` at the
    address columns the megakernel passes, feed the race recorder, mark
    the message's cache lines and return its timing record
    (:meth:`JitTracingExecutor._record`).

    Execution, the race recorder and the record share one read of the
    columns, unless the SEND overwrites them (see
    :func:`_rewrites_addresses`).  Of its payload registers the record
    tracks only those a consume point ``looked_up``.
    """
    regs = tuple(r for r in _payload_regs(inst) if r in looked_up)
    reread = _rewrites_addresses(inst)
    shape = _event_shape(inst)
    kind = inst.msg.kind
    if kind in _BLOCK_KINDS:
        return _block_send(inst, shape, regs, reread)
    if kind in _OWORD_KINDS:
        return _oword_send(inst, shape, regs, reread)
    return _scattered_send(inst, shape, regs, reread)


def _block_send(inst: Instruction, shape: tuple, regs: tuple,
                reread: bool):
    msg = inst.msg
    bti, w, h = msg.surface, msg.block_width, msg.block_height
    base = msg.payload_reg * GRF_SIZE_BYTES
    access = _ACCESS_KIND[msg.kind]

    def read(ex, surf, sel, x, y):
        block = surf.read_block_many(x, y, w, h)  # (R, h, w)
        ex._store_payload(base, block.reshape(x.size, -1), sel)

    def write(ex, surf, sel, x, y):
        data = ex._load_payload(base, w * h, sel)
        surf.write_block_many(x, y, w, h, data.reshape(x.size, h, w))

    run = read if msg.kind is MsgKind.MEDIA_BLOCK_READ else write

    def _send(ex, rows, xs, ys):
        part = None if ex._row_all else rows
        sel = slice(None) if part is None else part
        x, y = _addr_rows(xs, sel, rows), _addr_rows(ys, sel, rows)
        surf = ex._surface(bti)
        run(ex, surf, sel, x, y)
        if ex.race is not None:
            ex.race.note_blocks(surf, access, part, x, y, w, h)
        if reread:
            x, y = _addr_rows(xs, sel, rows), _addr_rows(ys, sel, rows)
        lines, new = surf.mark_lines_block2d_many(x, y, w, h, surf.pitch)
        return ex._record(shape, surf, bti, rows, regs, lines, new)
    return _send


def _oword_send(inst: Instruction, shape: tuple, regs: tuple,
                reread: bool):
    msg = inst.msg
    bti, nbytes = msg.surface, msg.payload_bytes
    base = msg.payload_reg * GRF_SIZE_BYTES
    access = _ACCESS_KIND[msg.kind]

    # scratch rows are per thread; other surfaces are shared
    def read(ex, surf, sel, part, off):
        own = {"rows": part} if isinstance(surf, WideScratch) else {}
        ex._store_payload(base, surf.read_linear_many(off, nbytes, **own),
                          sel)

    def write(ex, surf, sel, part, off):
        own = {"rows": part} if isinstance(surf, WideScratch) else {}
        surf.write_linear_many(off, ex._load_payload(base, nbytes, sel),
                               **own)

    run = read if msg.kind is MsgKind.OWORD_BLOCK_READ else write

    def _send(ex, rows, offsets):
        part = None if ex._row_all else rows
        sel = slice(None) if part is None else part
        off = _addr_rows(offsets, sel, rows)
        surf = ex._surface(bti)
        run(ex, surf, sel, part, off)
        if ex.race is not None:
            ex.race.note_rows(surf, access, part, off, nbytes)
        if reread:
            off = _addr_rows(offsets, sel, rows)
        lines, new = surf.mark_lines_range_many(off, nbytes)
        return ex._record(shape, surf, bti, rows, regs, lines, new)
    return _send


def _scattered_send(inst: Instruction, shape: tuple, regs: tuple,
                    reread: bool):
    msg = inst.msg
    bti, n, elem = msg.surface, inst.exec_size, msg.elem_dtype
    esz = elem.size
    base = msg.payload_reg * GRF_SIZE_BYTES
    access = _ACCESS_KIND[msg.kind]
    atomic = msg.kind is MsgKind.ATOMIC

    # ``flat``/``fmask``: the (R*n) lane offsets and lane mask flattened
    # thread-major (lane order within a thread, threads in ascending
    # id), the order the sequential dispatch loop performs them in, so
    # overlap and atomic semantics match.  ``mask``: the (T, n) mask.
    def gather(ex, surf, sel, flat, fmask, mask):
        data = surf.gather(flat, elem, mask=fmask)
        ex._store_payload(base, data.reshape(-1, n).view(np.uint8), sel)

    def scatter(ex, surf, sel, flat, fmask, mask):
        raw = np.ascontiguousarray(ex._load_payload(base, n * esz, sel))
        surf.scatter(flat, raw.view(elem.np_dtype).reshape(-1), mask=fmask)

    def atomics(ex, surf, sel, flat, fmask, mask):
        operands = None
        if msg.payload_bytes:
            operands = np.ascontiguousarray(
                ex._load_payload(base, n * esz, sel)) \
                .view(elem.np_dtype).reshape(-1)
        old = _wide_atomic(surf, msg.atomic_op, flat, operands, elem,
                           fmask)
        if inst.dst is not None:
            # rows that left a loop keep their destination registers
            vals = np.zeros((ex.num_threads, n), dtype=elem.np_dtype)
            vals[sel] = old.reshape(-1, n)
            ex._write_dst(inst.dst, vals, mask=mask)

    run = {MsgKind.GATHER: gather, MsgKind.SCATTER: scatter,
           MsgKind.ATOMIC: atomics}[msg.kind]

    def offsets(lanes, gbase, sel):
        """(R, n) byte offsets: element-granular (CM semantics)."""
        offs = lanes[sel].astype(np.int64)
        if type(gbase) is int:
            offs += gbase
        elif gbase is not None:
            offs += gbase[sel].astype(np.int64)
        offs *= esz
        return offs

    def _send(ex, rows, lanes, gbase):
        part = None if ex._row_all else rows
        sel = slice(None) if part is None else part
        offs = offsets(lanes, gbase, sel)
        mask = ex._exec_mask(inst)
        keep = None
        if mask is not None:
            keep = mask[sel]
            if keep.shape != offs.shape:  # a (T, 1) loop-row mask
                keep = np.broadcast_to(keep, offs.shape)
        surf = ex._surface(bti)
        if ex.race is not None:
            ex.race.note_rows(surf, access, part, offs, esz, keep)
        run(ex, surf, sel, offs.reshape(-1),
            None if keep is None else keep.reshape(-1), mask)
        if reread:
            offs = offsets(lanes, gbase, sel)
        lines, new = surf.mark_lines_offsets_many(offs, esz, mask=keep)
        ev = ex._record(shape, surf, bti, rows, regs, lines, new)
        if atomic:
            ev.words, ev.wmask, ev.surface_id = offs // 4, keep, id(surf)
        return ev
    return _send


def _codegen(program, plans: PlanTable, env: dict, cf):
    """Generate megakernel source; returns (source, send count, blocks,
    marks).

    ``blocks`` holds each static block's cost-bearing instruction
    indices; ``marks`` pairs each instruction with the source line its
    code starts at (see :meth:`JitKernel.listing`; every member of a
    fused run marks the run's statement).  The generated
    ``_mega(ex, bn, bc)`` charges block k's instruction count ``bn[k]``
    and issue cycles ``bc[k]`` (and its barriers) once to the rows that
    run it, retires pending payloads
    only at the points :func:`_consume_points` finds, and returns the
    number of instructions it issued (re-executed loop bodies
    included).  The ``_send{k}`` closures are bound into ``env``.

    Outside loops and SIMD-CF write masks, consecutive ALU instructions
    fuse into runs (:func:`_fusion_info`, :func:`_joins`).  A run ends
    at any other instruction, so it never crosses a SEND, a block
    charge or a consume point; a consume point may start one.
    """
    pb = FunctionalExecutor()  # bounds checks and strided byte plans
    consumes = _consume_points(program, plans, cf)
    looked_up = {r for look, _ in consumes.values() for r in look}
    loops = bool(cf.body_of)
    env["_views"] = {}
    lines = ["def _mega(ex, bn, bc):",
             "    g = ex.grf2d",
             "    _T = g.shape[0]",
             "    iv, isv, bv = ex._inst_vec, ex._issue_vec, ex._barrier_vec",
             "    rw0 = np.arange(_T)"]
    flag_idxs = set()
    for inst in program:
        if inst.pred is not None:
            flag_idxs.add(inst.pred.flag.index)
        if inst.opcode is Opcode.CMP:
            flag_idxs.add(inst.flag.index if inst.flag else 0)
    for fi in sorted(flag_idxs):
        lines.append(f"    f{fi} = ex._flag_lanes({fi})")
    if cf.has_cf:
        depth = max(cf.max_depth, 1)
        lines += ["    a = ex._wact = np.ones((_T, 32), dtype=bool)",
                  f"    rs = np.zeros((_T, {depth}, 32), dtype=bool)",
                  f"    pd = np.zeros((_T, {depth}, 32), dtype=bool)",
                  "    " + _sync_rows(0)]
    if any(look for look, _ in consumes.values()):
        lines.append("    cs = ex._consume")
    stamped = {s for _, stamp in consumes.values() for s in stamp}
    if loops:
        lines.append("    st = 0")
    blocks: list = []
    block: list = []
    barriers = 0
    run: list = []  # the open fused run: (index, instruction, fusion info)

    def charge(out: list, level: int) -> None:
        """Close the open block: one charge to the rows at ``level``."""
        nonlocal barriers
        if not block and not barriers:
            return
        k = len(blocks)
        blocks.append(tuple(block))
        sel = f"[rw{level}]" if level else ""
        stmt = f"iv{sel} += bn[{k}]; isv{sel} += bc[{k}]"
        if barriers:
            stmt += f"; bv{sel} += {barriers}"
        out.append(stmt)
        block.clear()
        barriers = 0

    def flush() -> None:
        """Emit the open run (its first member is already marked)."""
        if not run:
            return
        out: list = []
        if len(run) == 1:
            _emit_alu(out, env, pb, run[0][1], None)
        else:
            out.append(_emit_run(env, pb, run))
        marks.extend((len(lines), i) for i, _, _ in run[1:])
        lines.extend("    " + ln for ln in out)
        run.clear()

    n_sends = 0
    level = 0
    marks = []
    for i, inst in enumerate(program):
        op = inst.opcode
        fuse = cfm = None
        if op not in _NON_ALU:
            if cf.has_cf:
                cfm = _cf_write_mask(inst, level, cf.depth_at[i])
            if cfm is None and not level:
                fuse = _fusion_info(pb, inst)
        if fuse is not None and run and i not in consumes and \
                _joins(run, fuse):
            run.append((i, inst, fuse))
            block.append(i)
            continue
        flush()
        out: list = []
        marks.append((len(lines), i))
        indent = "    " * (level + 1)
        rows = f"rw{level}"
        if op in CF_OPCODES:
            block.append(i)
            if op in (Opcode.SIMD_DO, Opcode.SIMD_WHILE):
                charge(out, level)  # the row set changes right after
            level = _emit_cf(out, env, inst, i, cf, level)
        elif op is Opcode.SEND:
            msg = inst.msg
            if msg is None or msg.kind not in _WIDE_MSG_KINDS:
                raise JitError(f"send not vectorizable: {inst.asm()}")
            block.append(i)
            charge(out, level)  # the SEND stamps its issue position
            keep = f"e{i} = " if i in stamped else ""
            args = _address_args(env, pb, inst)
            out.append(f"{keep}_send{n_sends}(ex, {rows}, {args})")
            env[f"_send{n_sends}"] = _send_fn(inst, looked_up)
            n_sends += 1
        elif op is Opcode.BARRIER:
            barriers += 1
        elif op is not Opcode.NOP:
            if i in consumes:
                charge(out, level)  # the first use reads the issue position
                look, stamp = consumes[i]
                if look:
                    out.append(f"cs({look}, {rows})")
                out += [f"e{s}.consumed_at = isv.copy()" for s in stamp]
            block.append(i)
            if fuse is not None:
                run.append((i, inst, fuse))  # emitted by flush()
            elif op is Opcode.CMP:
                _emit_cmp(out, env, pb, inst, cfm)
            else:
                _emit_alu(out, env, pb, inst, cfm)
        lines.extend(indent + ln for ln in out)
        if op is Opcode.SIMD_WHILE:  # after the loop: the outer rows
            lines.append("    " * (level + 1) + _sync_rows(level))
    flush()
    tail: list = []
    charge(tail, 0)
    lines.extend("    " + ln for ln in tail)
    issued = f"{len(program)} + st" if loops else f"{len(program)}"
    lines.append(f"    return {issued}")
    # the typed GRF views, bound at entry (after ``g``)
    views = [f"    {name} = g.view(np.{dt.name})"
             for dt, name in env.pop("_views").items()]
    lines[2:2] = views
    marks = [(ln + len(views), i) for ln, i in marks]
    return "\n".join(lines) + "\n", n_sends, blocks, marks


# ---------------------------------------------------------------------------
# compiled kernel object + executor
# ---------------------------------------------------------------------------


class JitKernel:
    """A compiled megakernel for one program binding.

    Holds the generated source (``.source``; :meth:`listing` annotates
    it with each instruction's assembly), the
    compiled function ``fn``, the shared :class:`PlanTable`, the static
    ``blocks`` the megakernel charges, and a per-machine cache of their
    costs (:meth:`block_costs`).  Like a plan table, a
    :class:`JitKernel` is valid for exactly the program *object* it was
    compiled from.
    """

    def __init__(self, program, plans: Optional[PlanTable] = None) -> None:
        self.program = program
        if plans is not None and plans.matches(program):
            self.plans = plans
        else:
            self.plans = PlanTable(program)
        try:
            cf = self.plans.cf_plan()
        except CFError as exc:
            raise JitError(f"malformed control flow: {exc}") from None
        env = {"np": np, "_cv": convert, "_XE": ExecutionError,
               "_LIM": CF_STEP_LIMIT - len(program), "_ids": {}}
        self.source, self.n_sends, self.blocks, self._marks = _codegen(
            program, self.plans, env, cf)
        exec(compile(self.source, "<jit-megakernel>", "exec"), env)
        self.fn = env["_mega"]
        self._costs: dict = {}
        #: bytes of each thread's register file the program touches
        self.grf_bytes = _grf_extent(program)

    def matches(self, program) -> bool:
        return program is self.program

    def listing(self) -> str:
        """The megakernel source with a ``# [i] asm`` comment above the
        code of each instruction (built on demand; the compiled text
        carries none)."""
        starts: dict = {}
        for line, i in self._marks:
            starts.setdefault(line, []).append(i)
        out = []
        for k, line in enumerate(self.source.splitlines()):
            indent = line[:len(line) - len(line.lstrip())]
            out += [f"{indent}# [{i:>3}] {self.program[i].asm()}"
                    for i in starts.get(k, ())]
            out.append(line)
        return "\n".join(out) + "\n"

    def block_costs(self, machine) -> tuple:
        """Per-block costs on ``machine`` (cached); raises
        :class:`JitError` when they do not sum exactly."""
        costs = self._costs.get(machine)
        if costs is None:
            costs = self._costs[machine] = _block_costs(
                self.program, self.blocks, machine)
        return costs


class JitTracingExecutor(FunctionalExecutor):
    """Runs a program's megakernel on the stacked state of a chunk.

    Architectural state for T threads lives in :attr:`grf2d`
    (``(T, num_regs*32)`` uint8) and ``(T, 32)`` flag arrays; the
    inherited executor machinery serves only what is thread-invariant,
    operand region plans and immediate caches (``self.grf`` only
    resolves plans and checks bounds).  Each SEND runs once for all the
    chunk's rows (helpers in :mod:`repro.isa.wide`), restricted inside
    a loop to the rows still looping.  Timing lives in ``(T,)`` instruction,
    issue-cycle and barrier accumulators, which the megakernel charges
    block by block, plus one per-row record per SEND;
    :meth:`fold_chunk` folds them into a
    :class:`~repro.sim.timing.TimingAccumulator` and
    :meth:`drain_traces` fans them out into per-thread traces, both
    exactly what the sequential path would have produced.

    ``run()`` compiles the program when the bound :class:`JitKernel`
    was built from a different one (binding changes speed, never
    results).
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128, num_threads: int = 0) -> None:
        super().__init__(surfaces, num_regs)
        self.num_threads = num_threads
        #: columns of :attr:`grf2d` (see :meth:`reset`)
        self._width = self.grf.bytes.size
        self.grf2d = np.zeros((num_threads, self._width), dtype=np.uint8)
        # SIMD-CF state, live only while a control-flow program runs:
        # the (T, 32) active mask, the innermost loop's rows / (T, 1)
        # row mask, and whether those rows cover every thread.
        self._wact: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None
        self._rowm: Optional[np.ndarray] = None
        self._row_all = True
        # Timing of the current chunk (see begin_launch).
        self.machine = None
        self._inst_vec: Optional[np.ndarray] = None
        self._issue_vec: Optional[np.ndarray] = None
        self._barrier_vec: Optional[np.ndarray] = None
        self._events: list[_SendEvent] = []
        self._pending_vec: dict = {}   # GRF reg -> (T,) event index or -1
        #: a :class:`~repro.sanitize.race.RaceDetector` fed one access
        #: batch per SEND while a launch is race-checked, else ``None``
        self.race = None
        self._jit: Optional[JitKernel] = None

    def bind_jit(self, jitk: Optional[JitKernel]) -> None:
        """Bind the megakernel the next runs use; later resets size the
        register file to the bytes it touches (:meth:`reset`)."""
        self._jit = jitk
        full = self.grf.bytes.size
        self._width = full if jitk is None else min(jitk.grf_bytes, full)

    def reset(self, num_threads: Optional[int] = None) -> None:
        """Zero architectural state, optionally resizing to a new T.

        The stacked register file is as wide as the bound megakernel's
        program reaches (the whole file while none is bound, or when
        the program reaches past it, so such an access still raises):
        the bytes past it are never read or written.
        """
        T = self.num_threads if num_threads is None else num_threads
        if self.grf2d.shape != (T, self._width):
            self.num_threads = T
            self.grf2d = np.zeros((T, self._width), dtype=np.uint8)
        else:
            self.grf2d.fill(0)
        self.flags.clear()
        self.instructions_executed = 0
        self._end_cf()

    def _end_cf(self) -> None:
        """Leave control-flow row state (every thread, no masks)."""
        self._wact = None
        self._rows = None
        self._rowm = None
        self._row_all = True

    def seed_scalar(self, byte_offset: int, values: np.ndarray) -> None:
        """Seed a 4-byte scalar parameter column (one int32 per thread)."""
        vals = np.ascontiguousarray(np.asarray(values, dtype=np.int32))
        self.grf2d[:, byte_offset:byte_offset + 4] = \
            vals.view(np.uint8).reshape(self.num_threads, 4)

    def begin_launch(self, machine) -> None:
        """Fresh per-row timing accumulators for the next chunk."""
        T = self.num_threads
        self.machine = machine
        self._inst_vec = np.zeros(T, dtype=np.int64)
        self._issue_vec = np.zeros(T, dtype=np.float64)
        self._barrier_vec = np.zeros(T, dtype=np.int64)
        self._events = []
        self._pending_vec = {}

    def run(self, program) -> None:
        # Sanitizer hooks assume one thread's register file and lane
        # masks; sanitized launches run sequentially (the JIT tier's
        # race check records its SENDs through ``self.race`` instead).
        if self.san is not None:
            raise ExecutionError(
                "sanitizer hooks cannot run on the JIT executor; "
                "use sequential dispatch for sanitized launches")
        if self.machine is None:
            raise ExecutionError(
                "begin_launch must be called before a JIT run")
        jitk = self._jit
        if jitk is None or not jitk.matches(program):
            jitk = self._jit = JitKernel(program, self.plans)
        width = min(jitk.grf_bytes, self.grf.bytes.size)
        if self.grf2d.shape[1] < width:  # sized for another program
            wide = np.zeros((self.num_threads, width), dtype=np.uint8)
            wide[:, :self.grf2d.shape[1]] = self.grf2d
            self.grf2d = wide
        self.plans = jitk.plans
        bn, bc = jitk.block_costs(self.machine)
        try:
            self.instructions_executed += jitk.fn(self, bn, bc)
        finally:
            self._end_cf()

    # -- operand access (wide) --------------------------------------------

    def _write_dst(self, operand: RegOperand, values: np.ndarray,
                   mask: np.ndarray | None = None,
                   idx: np.ndarray | None = None) -> None:
        dtype = operand.dtype.np_dtype
        T = self.num_threads
        values = np.asarray(values)
        n = values.shape[-1]
        if idx is None:
            idx = self._dst_plan(operand, n)
        if values.shape != (T, n) or values.dtype != dtype or \
                not values.flags["C_CONTIGUOUS"]:
            values = np.ascontiguousarray(
                np.broadcast_to(values, (T, n)), dtype=dtype)
        raw = values.view(np.uint8).reshape(T, n, operand.dtype.size)
        if mask is None:
            self.grf2d[:, idx] = raw
        else:
            keep = np.asarray(mask, dtype=bool)
            if keep.ndim == 1:
                keep = np.broadcast_to(keep, (T, n))
            cur = self.grf2d[:, idx]  # (T, n, size) read-modify-write
            np.copyto(cur, raw, where=keep[:, :, None])
            self.grf2d[:, idx] = cur

    def _flag_lanes(self, index: int) -> np.ndarray:
        f = self.flags.get(index)
        if f is None:
            f = np.zeros((self.num_threads, 32), dtype=bool)
            self.flags[index] = f
        return f

    def _pred_mask(self, inst: Instruction) -> np.ndarray | None:
        if inst.pred is None:
            return None
        lanes = self._flag_lanes(inst.pred.flag.index)[:, : inst.exec_size]
        return ~lanes if inst.pred.invert else lanes.copy()

    def _cf_active_lanes(self, inst: Instruction) -> np.ndarray | None:
        """SIMD-CF write-enable: active-lane window AND loop rows.

        ``None`` outside control flow, or when every thread runs with
        every covered lane active.  Unlike the sequential version, a
        scalar (exec_size 1) instruction still needs masking inside a
        loop some threads have left — their registers must not observe
        its write — so the row mask applies even then.
        """
        act = self._wact
        if act is None:
            return None
        n = inst.exec_size
        m = None
        if n > 1:
            off = _emask_off(inst)
            if off + n > 32:
                raise ExecutionError(
                    f"operation covers lanes {off}..{off + n - 1} inside "
                    f"SIMD control flow (only 32 execution-mask channels "
                    f"exist)")
            m = act[:, off:off + n]
        if not self._row_all:
            rowm = self._rowm
            m = rowm if m is None else (m & rowm)
        elif m is not None and m.all():
            m = None
        return m

    # -- memory (wide) ----------------------------------------------------

    def _load_payload(self, base: int, nbytes: int,
                      sel=slice(None)) -> np.ndarray:
        self._check_payload(base, nbytes)
        return self.grf2d[sel, base:base + nbytes]

    def _store_payload(self, base: int, data: np.ndarray,
                       sel=slice(None)) -> None:
        self._check_payload(base, data.shape[1])
        self.grf2d[sel, base:base + data.shape[1]] = data

    def _check_payload(self, base: int, nbytes: int) -> None:
        if base < 0 or base + nbytes > self.grf2d.shape[1]:
            raise IndexError(
                f"GRF payload of {nbytes} bytes at offset {base} overruns "
                f"the {self.grf2d.shape[1]}-byte register file")

    # -- timing -------------------------------------------------------------

    def _record(self, shape: tuple, surf, bti: int, rows: np.ndarray,
                regs: tuple, lines: np.ndarray,
                new: np.ndarray) -> _SendEvent:
        """Record one SEND issued by ``rows``: ``shape`` holds its
        message-wide fields (:func:`_event_shape`), ``lines``/``new``
        its per-row line footprint.

        Mirrors :meth:`~repro.sim.batch.TracingExecutor._account_send`
        minus its front-end charge, which the megakernel already added
        with the block the SEND ends: stamp each row's issue position,
        and point the payload registers ``regs`` at the new record.
        """
        ev = _SendEvent(*shape, getattr(surf, "obs_label", None)
                        or f"bti{bti}", rows, lines, new,
                        self._issue_vec[rows])
        index = len(self._events)
        self._events.append(ev)
        pend = self._pending_vec
        for reg in regs:
            vec = pend.get(reg)
            if vec is None:
                vec = pend[reg] = np.full(self.num_threads, -1,
                                          dtype=np.int64)
            vec[rows] = index
        return ev

    def _consume(self, regs: tuple, rows: np.ndarray) -> None:
        """First use of ``regs`` by ``rows``: stamp ``consumed_at`` on
        every SEND record one of them points at, per row
        (:meth:`~repro.sim.batch.TracingExecutor._consume_regs`).  A
        stamped record is retired: its whole payload no longer stalls,
        so the other registers pointing at it are skipped.  The
        megakernel calls this only where the codegen found a register
        that may be pending."""
        pend = self._pending_vec
        for reg in regs:
            vec = pend.get(reg)
            if vec is None or not rows.size:
                continue
            evi = vec[rows]
            first = int(evi[0])
            if (evi == first).all():  # the usual case: one record
                groups = [(first, rows)] if first >= 0 else []
            else:
                groups = [(e, rows[evi == e])
                          for e in np.unique(evi[evi >= 0]).tolist()]
            for e, erows in groups:
                ev = self._events[e]
                if erows.size == ev.rows.size:  # every row it issued for
                    fresh = ev.consumed_at < 0
                    ev.consumed_at[fresh] = self._issue_vec[ev.rows[fresh]]
                    continue
                pos = np.searchsorted(ev.rows, erows)
                fresh = ev.consumed_at[pos] < 0
                ev.consumed_at[pos[fresh]] = self._issue_vec[erows[fresh]]

    def drain_traces(self) -> list[ThreadTrace]:
        """Materialize the chunk's T per-thread traces from the (T,)
        accumulators and the per-row SEND records, each thread's events
        in its own issue order."""
        per_thread: list[list] = [[] for _ in range(self.num_threads)]
        for ev in self._events:
            for i, t in enumerate(ev.rows.tolist()):
                per_thread[t].append((ev, i))
        out = []
        for t, sent in enumerate(per_thread):
            tr = ThreadTrace(self.machine)
            tr.issue_cycles = float(self._issue_vec[t])
            tr.inst_count = int(self._inst_vec[t])
            tr.barriers = int(self._barrier_vec[t])
            for ev, i in sent:
                lines = int(ev.lines[i])
                consumed = ev.consumed_at[i]
                tr.events.append(MemEvent(
                    kind=ev.kind, nbytes=ev.nbytes, lines=lines,
                    dram_lines=int(ev.dram[i]),
                    l3_bytes=lines * 64 if ev.l3_bytes is None
                    else ev.l3_bytes,
                    msgs=ev.msgs, issue_at=float(ev.issue_at[i]),
                    consumed_at=None if consumed < 0 else float(consumed),
                    is_read=ev.is_read, surface=ev.surface))
                if ev.words is not None:
                    words = ev.words[i] if ev.wmask is None else \
                        ev.words[i][ev.wmask[i]]
                    tr.atomic_addrs.update(
                        (ev.surface_id, int(w)) for w in words)
            out.append(tr)
        self._events = []
        self._pending_vec = {}
        return out

    def fold_chunk(self, acc, grf_bytes: int = 0) -> None:
        """Fold this chunk's timing straight into a
        :class:`~repro.sim.timing.TimingAccumulator`.

        Bit-identical to ``acc.extend(self.drain_traces())`` (with
        ``note_grf(grf_bytes)`` applied to each fanned-out trace) but
        without materializing T :class:`ThreadTrace` objects — on short
        programs the per-thread fan-out dominates the whole launch.
        Integer totals vectorize exactly; the float running sums (issue
        cycles, thread completion time) repeat the same per-thread
        addition sequence the scalar fold performs, each thread's stall
        summed over its own events in issue order, so ``finalize()``
        produces the same :class:`KernelTiming` to the last bit.
        """
        m = self.machine
        count = self.num_threads
        events = self._events
        stall = np.zeros(count)
        for ev in events:
            if ev.is_read:  # adding 0.0 for a never-used load is exact
                late = np.maximum(0.0, MemEvent.latency(ev, m)
                                  - (ev.consumed_at - ev.issue_at))
                late[ev.consumed_at < 0] = 0.0
                stall[ev.rows] += late
        # ThreadTrace.exec_cycles per thread, in its float order
        times = (self._issue_vec + stall
                 + self._barrier_vec * m.barrier_cycles)
        acc.num_threads += count
        # the scalar fold's addition sequence: accumulate is strictly
        # left to right, so the running totals are bit-identical
        acc._total_issue = _running_sum(acc._total_issue, self._issue_vec)
        acc._total_thread_time = _running_sum(acc._total_thread_time, times)
        if count:
            acc._max_thread_time = max(acc._max_thread_time,
                                       float(times.max()))
        acc.total_instructions += int(self._inst_vec.sum())
        acc.barriers += int(self._barrier_vec.sum())
        acc.messages += sum(ev.rows.size for ev in events)
        if count and grf_bytes > acc.max_grf_bytes:
            acc.max_grf_bytes = grf_bytes
        for ev in events:
            _fold_event(acc, ev)
        self._events = []
        self._pending_vec = {}


def _running_sum(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + ...``, added in that order."""
    return float(np.add.accumulate(np.concatenate(([total], values)))[-1])


# ---------------------------------------------------------------------------
# kernel-cache attachment
# ---------------------------------------------------------------------------


def get_jit(kernel):
    """(megakernel, was_cached) for a CompiledKernel.

    The compiled :class:`JitKernel` is cached on the kernel object
    itself — right next to the program in the
    :class:`~repro.compiler.cache.KernelCache` — and released with it
    (:meth:`CompiledKernel.release_derived`).  A compile failure raises
    :class:`JitError`; its reason is cached in the same slot, so a
    declined kernel pays the compile attempt exactly once.
    """
    cur = kernel._jit
    if isinstance(cur, str):
        raise JitError(cur)
    if cur is not None:
        return cur, True
    with trace_span("jit:compile",
                    kernel=getattr(kernel, "name", "?")) as span:
        try:
            jitk = JitKernel(kernel.program, plans=kernel.plan_table())
        except JitError as exc:
            kernel._jit = str(exc)
            span.set(eligible=False, reason=str(exc))
            raise
        span.set(eligible=True, instructions=len(kernel.program))
    kernel._jit = jitk
    return jitk, False
