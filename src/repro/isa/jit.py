"""Kernel JIT: megakernel compilation of Gen programs — the vector tier.

Sequential dispatch pays one Python interpreter step per instruction
per thread.  Given a compiled program, :class:`JitKernel` instead
*generates Python source* for one function — the **megakernel** — that
executes the whole program for a chunk of T threads at once, on the
stacked ``(T, 4096)`` register file of :class:`~repro.isa.wide.
WideExecutor`, with zero interpreter dispatch:

- every region operand is pre-resolved to a baked slice (contiguous /
  scalar regions become zero-copy ``grf2d[:, a:b].view(dtype)`` views
  of the stacked register file; strided regions become ``np.take`` with
  a baked index array);
- immediates are baked broadcast arrays; execution dtypes, conversion
  and saturation decisions are resolved at compile time;
- predication compiles to masked ``np.copyto`` writes against baked
  flag views;
- SEND instructions call pre-bound closures over the vectorized message
  handlers.

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

Timing never needs an interpreter either.  For a program without loops
every issue-timeline quantity is thread-invariant (IF/ELSE/ENDIF skip
no instruction), so a static **template trace** is built once per
(program, machine) by replaying the exact accounting sequence of
:class:`~repro.sim.batch.TracingExecutor`, and
:meth:`JitTracingExecutor.run` installs its totals and event prototypes
before the megakernel runs; the SEND closures add only the per-thread
cache-line counts.  Loop trip counts make each thread's instruction
stream depend on its data, so a program with loops calls the per-row
accounting helpers of :class:`~repro.isa.wide.WideExecutor` after every
instruction, for exactly the rows that issue it, in issue order.
Either way the per-thread traces are bit-identical to the sequential
path's.

Plan state is shared through the program-scoped
:class:`~repro.isa.plans.PlanTable` and the compiled function caches on
:class:`~repro.compiler.driver.CompiledKernel` (see :func:`get_jit`), so
JIT artifacts live exactly as long as their program does in the
:class:`~repro.compiler.cache.KernelCache`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.isa.cfg import CFError, analyze_cf
from repro.isa.dtypes import DType, convert, promote, signed, unsigned
from repro.isa.executor import (
    CF_STEP_LIMIT, ExecutionError, FunctionalExecutor, _emask_off,
)
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import (
    CF_OPCODES, CondMod, Instruction, MathFn, MsgKind, Opcode,
)
from repro.isa.msg_geometry import (
    media_block_messages, oword_block_messages, scatter_messages,
)
from repro.isa.plans import PlanTable
from repro.isa.wide import _WIDE_MSG_KINDS, _WideEvent, WideExecutor
from repro.obs.tracing import trace_span
from repro.sim.batch import CF_COSTS, _alu_cost
from repro.sim.trace import MemKind, ThreadTrace

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
    """
    for k, v in env.items():
        if v is value and k.startswith(prefix):
            return k
    name = f"{prefix}{len(env)}"
    env[name] = value
    return name


def _is_packed(idx: np.ndarray) -> bool:
    """True when a (n, size) byte-index plan is one contiguous run."""
    flat = idx.reshape(-1)
    return bool((flat == flat[0] + np.arange(flat.size)).all())


def _src_expr(env: dict, pb: FunctionalExecutor, s, n: int):
    """(expression, operand np dtype, byte-index plan or None).

    Contiguous regions compile to zero-copy views of the stacked GRF;
    scalar regions to ``(T, 1)`` views that broadcast; anything else to
    ``np.take`` with a baked flat index.  Immediates (including packed
    vector immediates) bake to shared read-only ``(n,)`` arrays.
    """
    if isinstance(s, RegOperand):
        idx = pb._src_plan(s, n)  # validates bounds against the GRF
        sz = s.dtype.size
        offs = idx[:, 0]
        o0 = int(offs[0])
        dtn = _bind(env, "_dt", np.dtype(s.dtype.np_dtype))
        if bool((offs == o0).all()):
            expr = f"g[:, {o0}:{o0 + sz}].view({dtn})"
        elif bool((offs == o0 + np.arange(n) * sz).all()):
            expr = f"g[:, {o0}:{o0 + n * sz}].view({dtn})"
        else:
            ixn = _bind(env, "_ix", np.ascontiguousarray(idx.reshape(-1)))
            expr = f"np.take(g, {ixn}, axis=1).view({dtn})"
        return expr, np.dtype(s.dtype.np_dtype), idx
    arr = np.asarray(pb._fetch(s, n))  # read-only broadcast payload
    return _bind(env, "_c", arr), arr.dtype, None


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


def _emit_write(out: list, env: dict, inst: Instruction, i: int,
                mask: Optional[str], didx: np.ndarray) -> None:
    """Store ``r{i}`` to the instruction's destination region."""
    dst = inst.dst
    n = inst.exec_size
    sz = dst.dtype.size
    offs = didx[:, 0]
    o0 = int(offs[0])
    if bool((offs == o0 + np.arange(n) * sz).all()):
        dtn = _bind(env, "_dt", np.dtype(dst.dtype.np_dtype))
        dv = f"g[:, {o0}:{o0 + n * sz}].view({dtn})"
        if mask is None:
            out.append(f"{dv}[...] = r{i}")
        else:
            out.append(f"np.copyto({dv}, r{i}, where={mask})")
    else:  # strided destination: the stacked-GRF RMW fancy-index path
        opn = _bind(env, "_wo", dst)
        ixn = _bind(env, "_wx", didx)
        out.append(f"ex._write_dst({opn}, r{i}, {mask or 'None'}, {ixn})")


def _emit_alu(out: list, env: dict, pb: FunctionalExecutor,
              inst: Instruction, i: int, cfm: Optional[str]) -> None:
    """One ALU instruction; ``cfm`` is its SIMD-CF write mask, if any."""
    op = inst.opcode
    dst = inst.dst
    if dst is None:
        raise JitError(f"ALU instruction without destination: {inst.asm()}")
    n = inst.exec_size
    didx = pb._dst_plan(dst, n)
    npd = np.dtype(dst.dtype.np_dtype)
    pred = _mask_expr(inst)
    mask = _and(pred, cfm)
    fetched = [_src_expr(env, pb, s, n) for s in inst.srcs]

    if op is Opcode.MOV:
        expr, sdt, sidx = fetched[0]
        stays_view = sidx is not None and sdt == npd and not inst.sat
        if stays_view and mask is None and _is_packed(sidx) \
                and _is_packed(didx):
            # whole-region move: one byte-range copy, no views at all
            so, do = int(sidx[0, 0]), int(didx[0, 0])
            nb = didx.size
            if so != do:
                out.append(f"g[:, {do}:{do + nb}] = g[:, {so}:{so + nb}]")
            return
        if stays_view and np.intersect1d(sidx.reshape(-1),
                                         didx.reshape(-1)).size:
            # the result would be a live view of bytes the write below
            # overwrites; materialize it first (the sequential
            # interpreter fetches copies, so this is what keeps overlap
            # semantics identical)
            expr = f"({expr}).copy()"
        out.append(f"r{i} = {expr}")
    elif op is Opcode.SEL:
        if pred is None:
            raise JitError("sel requires a predicate")
        out.append(f"r{i} = np.where({pred}, {fetched[0][0]}, "
                   f"{fetched[1][0]})")
        mask = cfm  # sel writes all lanes; the predicate picked the source
    else:
        exec_dt = inst.srcs[0].dtype
        for s in inst.srcs[1:]:
            exec_dt = promote(exec_dt, s.dtype)
        if not dst.dtype.is_float and exec_dt.is_float and \
                op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            raise JitError("bitwise ops on float operands")
        ops = []
        for (expr, sdt, _sidx), s in zip(fetched, inst.srcs):
            if sdt != np.dtype(exec_dt.np_dtype):
                expr = f"_cv({expr}, {_bind(env, '_ET', exec_dt)})"
            ops.append(expr)
        out.append(f"r{i} = {_alu_expr(env, inst, exec_dt, ops)}")

    dtc = _bind(env, "_ET", dst.dtype)
    if inst.sat:
        out.append(f"r{i} = _cv(r{i}, {dtc}, True)")
    else:
        dtn = _bind(env, "_dt", npd)
        out.append(f"if r{i}.dtype != {dtn}:")
        out.append(f"    r{i} = _cv(r{i}, {dtc})")
    _emit_write(out, env, inst, i, mask, didx)


_CMP_FNS = {
    CondMod.EQ: "np.equal", CondMod.NE: "np.not_equal",
    CondMod.LT: "np.less", CondMod.LE: "np.less_equal",
    CondMod.GT: "np.greater", CondMod.GE: "np.greater_equal",
}


def _emit_cmp(out: list, env: dict, pb: FunctionalExecutor,
              inst: Instruction, i: int, cfm: Optional[str]) -> None:
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
    out.append(f"r{i} = np.broadcast_to({fn}({ops[0]}, {ops[1]}), "
               f"(_T, {n}))")
    if cfm is None:
        out.append(f"f{fi}[:, :{n}] = r{i}")
    else:
        out.append(f"np.copyto(f{fi}[:, :{n}], r{i}, where={cfm})")
    if inst.dst is not None:
        didx = pb._dst_plan(inst.dst, n)
        dtn = _bind(env, "_dt", np.dtype(inst.dst.dtype.np_dtype))
        out.append(f"r{i} = r{i}.astype({dtn})")
        _emit_write(out, env, inst, i, cfm, didx)


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
    # per-row timing only with loops (see _codegen)
    acct = [f"acf(_I{i}, {rows})"] if cf.body_of else []
    if op is Opcode.SIMD_IF:
        out += [f"_c = {_cf_cond(env, inst, sel)}",
                f"rs[{sel}, {d}] = a[{sel}]",
                f"pd[{sel}, {d}] = a[{sel}] & ~_c",
                f"a[{sel}] = _c", *acct]
    elif op is Opcode.SIMD_ELSE:
        out += [f"a[{sel}] = pd[{sel}, {d - 1}]", *acct]
    elif op is Opcode.SIMD_ENDIF:
        out += [f"a[{sel}] = rs[{sel}, {d - 1}]", *acct]
    elif op is Opcode.SIMD_BREAK:
        # Broken lanes leave every IF frame up to the innermost loop
        # too, so they cannot resurrect at an ELSE/ENDIF.
        out += [f"_c = {_cf_cond(env, inst, sel)}",
                f"a[{sel}] = a[{sel}] & ~_c"]
        for lvl in cf.break_clear[i]:
            out += [f"rs[{sel}, {lvl}] = rs[{sel}, {lvl}] & ~_c",
                    f"pd[{sel}, {lvl}] = pd[{sel}, {lvl}] & ~_c"]
        out += acct
    elif op is Opcode.SIMD_DO:
        inner = level + 1
        out += [f"rs[{sel}, {d}] = a[{sel}]", *acct,
                f"rw{inner} = {rows}",
                "while True:",
                f"    rm{inner} = np.zeros((_T, 1), dtype=bool)",
                f"    rm{inner}[rw{inner}] = True",
                "    " + _sync_rows(inner)]
        return inner
    else:  # SIMD_WHILE: threads with no live lane leave the loop
        out += [f"_c = {_cf_cond(env, inst, sel)}", *acct,
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


def _codegen(program, pb: FunctionalExecutor, env: dict, cf):
    """Generate megakernel source; returns (source, send count).

    The generated ``_mega(ex)`` returns the number of instructions it
    issued (re-executed loop bodies included).  Only loops make issue
    timelines per-thread (IF/ELSE/ENDIF skip nothing), so only a program
    with loops calls the per-row accounting helpers; every other one is
    timed by its static template.
    """
    per_row = bool(cf.body_of)
    lines = ["def _mega(ex):",
             "    g = ex.grf2d",
             "    _T = g.shape[0]"]
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
                  "    rw0 = np.arange(_T)",
                  "    " + _sync_rows(0)]
    if per_row:
        lines += ["    aa, acf = ex._account_alu_cf, ex._account_cf",
                  "    bv = ex._barrier_vec",
                  "    st = 0"]
    n_sends = 0
    level = 0
    for i, inst in enumerate(program):
        op = inst.opcode
        out = [f"# [{i:>3}] {inst.asm()}"]
        indent = "    " * (level + 1)
        rows = f"rw{level}"
        if per_row:
            env[f"_I{i}"] = inst
        if op in CF_OPCODES:
            level = _emit_cf(out, env, inst, i, cf, level)
        elif op is Opcode.SEND:
            msg = inst.msg
            if msg is None or msg.kind not in _WIDE_MSG_KINDS:
                raise JitError(f"send not vectorizable: {inst.asm()}")
            out.append(f"_send{n_sends}(ex)")
            n_sends += 1
        elif op is Opcode.BARRIER:
            if per_row:
                out.append(f"bv[{rows}] += 1")
        elif op is not Opcode.NOP:
            cfm = _cf_write_mask(inst, level, cf.depth_at[i]) \
                if cf.has_cf else None
            if op is Opcode.CMP:
                _emit_cmp(out, env, pb, inst, i, cfm)
            else:
                _emit_alu(out, env, pb, inst, i, cfm)
            if per_row:
                out.append(f"aa(_I{i}, {rows})")
        lines.extend(indent + ln for ln in out)
        if op is Opcode.SIMD_WHILE:  # after the loop: the outer rows
            lines.append("    " * (level + 1) + _sync_rows(level))
    issued = f"{len(program)} + st" if per_row else f"{len(program)}"
    lines.append(f"    return {issued}")
    return "\n".join(lines) + "\n", n_sends


# ---------------------------------------------------------------------------
# SEND closures
# ---------------------------------------------------------------------------


def _traced_send(inst: Instruction, k: int):
    def _send(ex, _inst=inst, _k=k):
        ex._execute_send(_inst)
        _account_send_jit(ex, _inst, _k)
    return _send


def _cf_send(inst: Instruction, k: int):
    def _send(ex, _inst=inst):
        ex._execute_send(_inst)
        ex._account_send_cf(_inst, ex._rows)
    return _send


def _account_send_jit(ex, inst: Instruction, k: int) -> None:
    """Runtime half of template-timed SEND accounting (no loops).

    The issue-timeline half (instruction counts, issue positions,
    consumption distances) is precomputed in the template trace; only
    the data-dependent half runs here: cache-line marking and the
    per-thread :class:`_WideEvent` record that
    :meth:`~repro.isa.wide.WideExecutor.drain_traces` fans out.
    """
    msg = inst.msg
    surf = ex._surface(msg.surface)
    kind = msg.kind
    ev = ex._launch_events[k]
    if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
        x = ex._scalar_vec(msg.addr0)
        y = ex._scalar_vec(msg.addr1)
        lines, new = surf.mark_lines_block2d_many(
            x, y, msg.block_width, msg.block_height, surf.pitch)
        ex._wide_events.append(_WideEvent(ev, lines, new, False))
    elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
        offset = ex._scalar_vec(msg.addr0)
        lines, new = surf.mark_lines_range_many(offset, msg.payload_bytes)
        ex._wide_events.append(_WideEvent(ev, lines, new, False))
    else:  # GATHER / SCATTER / ATOMIC
        byte_offs = ex._scattered_offsets(inst)
        mask = ex._exec_mask(inst)
        lines, new = surf.mark_lines_offsets_many(
            byte_offs, msg.elem_dtype.size, mask=mask)
        if kind is MsgKind.ATOMIC:
            ex._wide_events.append(_WideEvent(
                ev, lines, new, True, words=byte_offs // 4, wmask=mask,
                surface_id=id(surf)))
        else:
            ex._wide_events.append(_WideEvent(ev, lines, new, True))


# ---------------------------------------------------------------------------
# static template trace
# ---------------------------------------------------------------------------


class JitTemplate:
    """Thread-invariant timing for one (program, machine) pair."""

    __slots__ = ("inst_count", "issue_cycles", "barriers", "events", "btis")

    def __init__(self, inst_count, issue_cycles, barriers, events, btis):
        self.inst_count = inst_count
        self.issue_cycles = issue_cycles
        self.barriers = barriers
        #: MemEvent prototypes (surface=None) in send order, with final
        #: issue_at/consumed_at; never mutated — launches stamp surface
        #: labels onto ``dataclasses.replace`` copies.
        self.events = events
        #: binding-table index per event, for the per-launch label.
        self.btis = btis


def _register_load(pending: dict, first_reg: int, nbytes: int, ev) -> None:
    for reg in range(first_reg, first_reg + -(-nbytes // GRF_SIZE_BYTES)):
        pending[reg] = ev


def _merged_regs(pb: FunctionalExecutor, inst: Instruction) -> tuple:
    merged: list = []
    for s in inst.srcs:
        if isinstance(s, RegOperand):
            idx = pb._src_plan(s, inst.exec_size)
            merged.extend(np.unique(idx // GRF_SIZE_BYTES).tolist())
    return tuple(dict.fromkeys(merged))


def _build_template(program, machine, pb: FunctionalExecutor,
                    table: PlanTable) -> JitTemplate:
    """Statically replay :class:`~repro.sim.batch.TracingExecutor`'s
    accounting for one thread (which is every thread: programs without
    loops skip no instruction, so their issue timelines are
    thread-invariant)."""
    trace = ThreadTrace(machine)
    pending: dict = {}
    btis: list = []

    def extra(count: int) -> None:
        if count > 1:
            trace.scalar_op(2 * (count - 1))

    for i, inst in enumerate(program):
        op = inst.opcode
        if op is Opcode.BARRIER:
            trace.barrier()
            continue
        if op is Opcode.NOP:
            continue
        if op in CF_OPCODES:  # IF/ELSE/ENDIF: loop-free programs only
            trace.scalar_op(CF_COSTS[op])
            continue
        if op is Opcode.SEND:
            msg = inst.msg
            kind = msg.kind
            btis.append(msg.surface)
            if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
                w, h = msg.block_width, msg.block_height
                nbytes = w * h
                messages = media_block_messages(w, h)
                extra(messages)
                is_read = kind is MsgKind.MEDIA_BLOCK_READ
                ev = trace.memory(
                    MemKind.BLOCK2D_READ if is_read else MemKind.BLOCK2D_WRITE,
                    nbytes=nbytes, lines=0, dram_lines=0, l3_bytes=nbytes,
                    msgs=messages, is_read=is_read)
                if is_read:
                    _register_load(pending, msg.payload_reg, nbytes, ev)
            elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
                nbytes = msg.payload_bytes
                messages = oword_block_messages(nbytes)
                extra(messages)
                is_read = kind is MsgKind.OWORD_BLOCK_READ
                ev = trace.memory(
                    MemKind.OWORD_READ if is_read else MemKind.OWORD_WRITE,
                    nbytes=nbytes, lines=0, dram_lines=0, l3_bytes=nbytes,
                    msgs=messages, is_read=is_read)
                if is_read:
                    _register_load(pending, msg.payload_reg, nbytes, ev)
            else:  # GATHER / SCATTER / ATOMIC
                n = inst.exec_size
                messages = scatter_messages(n)
                nbytes = n * msg.elem_dtype.size
                if kind is MsgKind.GATHER:
                    extra(messages)
                    ev = trace.memory(MemKind.GATHER, nbytes=nbytes, lines=0,
                                      dram_lines=0, l3_bytes=0, msgs=messages)
                    _register_load(pending, msg.payload_reg, nbytes, ev)
                elif kind is MsgKind.SCATTER:
                    extra(messages)
                    trace.memory(MemKind.SCATTER, nbytes=nbytes, lines=0,
                                 dram_lines=0, l3_bytes=0, msgs=messages,
                                 is_read=False)
                else:  # ATOMIC
                    ev = trace.memory(MemKind.ATOMIC, nbytes=nbytes, lines=0,
                                      dram_lines=0, l3_bytes=0, msgs=messages)
                    if inst.dst is not None:
                        _register_load(
                            pending, inst.dst.byte_offset // GRF_SIZE_BYTES,
                            nbytes, ev)
            continue
        # ALU / CMP: consume pending loads, then charge issue cost.
        if pending:
            regs = table.src_regs[i]
            if regs is None:
                regs = table.src_regs[i] = _merged_regs(pb, inst)
            for reg in regs:
                ev = pending.get(reg)
                if ev is not None:
                    trace.consume(ev)
                    for r in [r for r, e in pending.items() if e is ev]:
                        del pending[r]
        cost = _alu_cost(inst, machine)
        slots = table.cost_slots(machine)
        if slots[i] is None:
            slots[i] = cost
        trace.inst_count += cost[0]
        trace.issue_cycles += cost[1]
    return JitTemplate(trace.inst_count, trace.issue_cycles, trace.barriers,
                       tuple(trace.events), tuple(btis))


# ---------------------------------------------------------------------------
# compiled kernel object + executor
# ---------------------------------------------------------------------------


class JitKernel:
    """A compiled megakernel for one program binding.

    Holds the generated source (``.source``, for inspection/tests), the
    compiled function ``fn``, the shared :class:`PlanTable`, and a
    per-machine cache of template traces (straight-line programs only).
    Like a plan table, a :class:`JitKernel` is valid for exactly the
    program *object* it was compiled from.
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
        #: per-row timing: the program has loops (see :func:`_codegen`)
        self.per_row = bool(cf.body_of)
        # Plan-building executor: bounds checks and region resolution
        # only; kept for template building (shares its region plans).
        self._pb = FunctionalExecutor()
        env = {"np": np, "_cv": convert, "_XE": ExecutionError,
               "_LIM": CF_STEP_LIMIT - len(program)}
        self.source, self.n_sends = _codegen(program, self._pb, env, cf)
        make_send = _cf_send if self.per_row else _traced_send
        k = 0
        for inst in program:
            if inst.opcode is Opcode.SEND:
                env[f"_send{k}"] = make_send(inst, k)
                k += 1
        exec(compile(self.source, "<jit-megakernel>", "exec"), env)
        self.fn = env["_mega"]
        self._templates: dict = {}

    def matches(self, program) -> bool:
        return program is self.program

    def template(self, machine) -> JitTemplate:
        tmpl = self._templates.get(machine)
        if tmpl is None:
            tmpl = self._templates[machine] = _build_template(
                self.program, machine, self._pb, self.plans)
        return tmpl


class JitTracingExecutor(WideExecutor):
    """Runs a program's megakernel on the stacked state of a chunk.

    ``run()`` compiles the program when the bound :class:`JitKernel`
    was built from a different one (binding changes speed, never
    results).  For a program without loops it first installs the
    (program, machine) template: the launch trace's issue totals and the
    per-launch event prototypes (template events stamped with this
    launch's surface labels); the megakernel's ``_send{k}`` closures
    append the per-thread line counts.  A program with loops switches
    the chunk to per-row accounting
    (:meth:`~repro.isa.wide.WideExecutor.begin_cf_trace`) instead.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128, num_threads: int = 0) -> None:
        super().__init__(surfaces, num_regs, num_threads)
        self._jit: Optional[JitKernel] = None
        self._launch_events: list = []

    def bind_jit(self, jitk: Optional[JitKernel]) -> None:
        self._jit = jitk

    def run(self, program) -> None:
        # Sanitizer hooks assume one thread's register file and lane
        # masks; sanitized launches run sequentially (the JIT tier's
        # race check records its SENDs through ``self.race`` instead).
        if self.san is not None:
            raise ExecutionError(
                "sanitizer hooks cannot run on the JIT executor; "
                "use sequential dispatch for sanitized launches")
        trace = self.trace
        if trace is None:
            raise ExecutionError(
                "begin_launch must be called before a JIT run")
        jitk = self._jit
        if jitk is None or not jitk.matches(program):
            jitk = self._jit = JitKernel(program, self.plans)
        self.plans = jitk.plans
        if jitk.per_row:
            self.begin_cf_trace()
        else:
            tmpl = jitk.template(trace.machine)
            trace.inst_count = tmpl.inst_count
            trace.issue_cycles = tmpl.issue_cycles
            trace.barriers = tmpl.barriers
            surfs = self.surfaces
            self._launch_events = [
                dataclasses.replace(
                    ev, surface=(getattr(surfs.get(bti), "obs_label", None)
                                 or f"bti{bti}"))
                for ev, bti in zip(tmpl.events, tmpl.btis)]
        try:
            self.instructions_executed += jitk.fn(self)
        finally:
            self._end_cf()


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
