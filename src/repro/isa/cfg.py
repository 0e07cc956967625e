"""Control-flow graph + reconvergence analysis for SIMD-CF programs.

The structured CF opcodes (:data:`~repro.isa.instructions.CF_OPCODES`)
carry no label operands: IF/ELSE/ENDIF/BREAK only manipulate the
execution-mask stack and every thread steps through every instruction,
while WHILE is the single back-edge (to the instruction after its
matching DO).  That makes the *thread* PC almost straight-line — but
*lanes* still diverge and reconverge, and the JIT's control-flow
lowering needs to know, once per program, where each divergent
construct rejoins.

This module computes that schedule:

- a structural scan validates nesting (ELSE/ENDIF close an IF, WHILE
  closes a DO, BREAK sits inside a loop) and resolves the WHILE
  back-edge targets and the IF-frames a BREAK must peel;
- a lane-flow CFG is built (IF/ELSE/BREAK/WHILE are the branch points,
  their mask-level jump targets the extra edges) and **immediate
  post-dominators** are computed on it with the Cooper-Harvey-Kennedy
  algorithm run on the reverse graph — the classic reconvergence-point
  construction surveyed in *Control Flow Management in Modern GPUs*;
- the two agree by construction for well-formed structured programs
  (ENDIF for an IF, loop exit for WHILE/BREAK); a mismatch or a
  malformed structure raises :class:`CFError`, which the JIT
  eligibility check reports as ``malformed-control-flow``.

The resulting :class:`CFPlan` is cached per program on its
:class:`~repro.isa.plans.PlanTable` (see :meth:`PlanTable.cf_plan`) so
the sequential interpreter, the JIT code generator and the device
gate share one analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import CF_OPCODES, Instruction, Opcode

__all__ = ["CFError", "CFPlan", "analyze_cf"]


class CFError(ValueError):
    """A program's SIMD control flow is structurally malformed."""


@dataclass
class CFPlan:
    """Per-program control-flow schedule (see module docstring).

    ``depth_at[pc]`` is the static mask-stack depth *before* executing
    ``pc`` — static because execution is structural (no instruction is
    ever skipped, and the only back-edge re-enters the loop *after* its
    DO), so every thread reaching ``pc`` has performed the same
    pushes/pops.  The JIT leans on this: its generated code indexes
    the ``(T, depth, 32)`` frame stacks at these static depths, so all
    threads share frame structure and only their masks differ.
    """

    has_cf: bool
    #: WHILE pc -> first body pc (its DO + 1): the back-edge target.
    body_of: Dict[int, int] = field(default_factory=dict)
    #: BREAK pc -> frame levels of enclosing IFs inside the innermost
    #: loop; a taken break clears its lanes from these frames too, so
    #: they cannot resurrect at the IFs' ELSE/ENDIF.
    break_clear: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: BREAK pc -> frame level of the innermost enclosing DO.
    break_do_level: Dict[int, int] = field(default_factory=dict)
    #: static mask-stack depth before each pc (len == len(program)).
    depth_at: Tuple[int, ...] = ()
    #: divergent-branch pc (IF/WHILE/BREAK) -> reconvergence pc, i.e.
    #: the instruction's immediate post-dominator in the lane-flow CFG.
    reconverge_at: Dict[int, int] = field(default_factory=dict)
    max_depth: int = 0


def _structure(program: Sequence[Instruction]) -> tuple:
    """Scan + validate nesting; return structural maps.

    Returns ``(if_else, if_endif, do_while, break_do, depth_at)`` where
    the first four map construct pcs to their partners.
    """
    if_else: Dict[int, Optional[int]] = {}
    if_endif: Dict[int, int] = {}
    do_while: Dict[int, int] = {}
    break_do: Dict[int, int] = {}
    break_clear: Dict[int, Tuple[int, ...]] = {}
    break_do_level: Dict[int, int] = {}
    depth_at: List[int] = []
    stack: List[Tuple[str, int]] = []   # ("if"|"do", open pc)
    for pc, inst in enumerate(program):
        depth_at.append(len(stack))
        op = inst.opcode
        if op is Opcode.SIMD_IF:
            if_else[pc] = None
            stack.append(("if", pc))
        elif op is Opcode.SIMD_ELSE:
            if not stack or stack[-1][0] != "if":
                raise CFError(f"simd_else at {pc} without an open simd_if")
            open_pc = stack[-1][1]
            if if_else[open_pc] is not None:
                raise CFError(f"second simd_else at {pc} for if at {open_pc}")
            if_else[open_pc] = pc
        elif op is Opcode.SIMD_ENDIF:
            if not stack or stack[-1][0] != "if":
                raise CFError(f"simd_endif at {pc} without an open simd_if")
            if_endif[stack.pop()[1]] = pc
        elif op is Opcode.SIMD_DO:
            stack.append(("do", pc))
        elif op is Opcode.SIMD_WHILE:
            if not stack or stack[-1][0] != "do":
                raise CFError(f"simd_while at {pc} without an open simd_do")
            do_while[stack.pop()[1]] = pc
        elif op is Opcode.SIMD_BREAK:
            level = None
            for lvl in range(len(stack) - 1, -1, -1):
                if stack[lvl][0] == "do":
                    level = lvl
                    break
            if level is None:
                raise CFError(f"simd_break at {pc} outside any simd_do loop")
            break_do[pc] = stack[level][1]
            break_do_level[pc] = level
            break_clear[pc] = tuple(range(level + 1, len(stack)))
    if stack:
        kind, pc = stack[-1]
        raise CFError(f"unterminated simd_{kind} opened at {pc}")
    return (if_else, if_endif, do_while, break_do,
            break_clear, break_do_level, tuple(depth_at))


def _lane_flow_succ(program, if_else, if_endif, do_while, break_do) -> list:
    """Successor lists of the lane-flow CFG (exit node == len(program))."""
    n = len(program)
    else_of = {e: i for i, e in if_else.items() if e is not None}
    while_of = {w: d for d, w in do_while.items()}
    succ: List[List[int]] = []
    for pc, inst in enumerate(program):
        op = inst.opcode
        nxt = pc + 1
        if op is Opcode.SIMD_IF:
            els = if_else[pc]
            target = (els + 1) if els is not None else if_endif[pc]
            succ.append([nxt, target] if target != nxt else [nxt])
        elif op is Opcode.SIMD_ELSE:
            # then-lanes arriving here jump to the ENDIF.
            owner = else_of[pc]
            target = if_endif[owner]
            succ.append([nxt, target] if target != nxt else [nxt])
        elif op is Opcode.SIMD_WHILE:
            succ.append([while_of[pc] + 1, nxt])
        elif op is Opcode.SIMD_BREAK:
            target = do_while[break_do[pc]] + 1
            succ.append([nxt, target] if target != nxt else [nxt])
        else:
            succ.append([nxt])
    return succ


def _ipdoms(succ: List[List[int]], n: int) -> List[Optional[int]]:
    """Immediate post-dominators via Cooper-Harvey-Kennedy on the
    reverse CFG (rooted at the virtual exit node ``n``)."""
    # Reverse graph: rev_succ(v) = predecessors of v in it = succ(v).
    rev_preds: List[List[int]] = [[] for _ in range(n + 1)]
    for u, outs in enumerate(succ):
        for v in outs:
            rev_preds[v].append(u)   # reverse edge v -> u
    # Reverse-postorder of the reverse graph from the exit node.
    order: List[int] = []
    seen = [False] * (n + 1)
    stack: List[Tuple[int, int]] = [(n, 0)]
    seen[n] = True
    while stack:
        node, i = stack[-1]
        # children in the reverse graph are the original predecessors
        kids = rev_preds[node]
        if i < len(kids):
            stack[-1] = (node, i + 1)
            k = kids[i]
            if not seen[k]:
                seen[k] = True
                stack.append((k, 0))
        else:
            order.append(node)
            stack.pop()
    rpo = list(reversed(order))
    index = {v: i for i, v in enumerate(rpo)}
    idom: List[Optional[int]] = [None] * (n + 1)
    idom[n] = n

    def intersect(a: int, b: int) -> int:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for v in rpo:
            if v == n:
                continue
            new = None
            for p in succ[v] if v < n else []:   # preds in reverse graph
                if idom[p] is not None:
                    new = p if new is None else intersect(new, p)
            if new is not None and idom[v] != new:
                idom[v] = new
                changed = True
    return idom


def analyze_cf(program: Sequence[Instruction]) -> CFPlan:
    """Validate structure and compute the reconvergence schedule.

    Raises :class:`CFError` for malformed control flow.
    """
    has_cf = any(inst.opcode in CF_OPCODES for inst in program)
    if not has_cf:
        return CFPlan(has_cf=False, depth_at=(0,) * len(program))
    (if_else, if_endif, do_while, break_do,
     break_clear, break_do_level, depth_at) = _structure(program)
    succ = _lane_flow_succ(program, if_else, if_endif, do_while, break_do)
    n = len(program)
    idom = _ipdoms(succ, n)
    reconverge: Dict[int, int] = {}
    for pc, inst in enumerate(program):
        op = inst.opcode
        if op not in (Opcode.SIMD_IF, Opcode.SIMD_WHILE, Opcode.SIMD_BREAK):
            continue
        rp = idom[pc]
        if rp is None:
            raise CFError(f"no reconvergence point for {op.value} at {pc}")
        # Cross-check the post-dominator answer against the structural
        # expectation — they must agree for well-formed programs.
        if op is Opcode.SIMD_IF:
            expect = if_endif[pc]
        elif op is Opcode.SIMD_WHILE:
            expect = pc + 1
        else:
            expect = do_while[break_do[pc]] + 1
        if rp != expect:
            raise CFError(
                f"reconvergence mismatch at {pc} ({op.value}): "
                f"post-dominator says {rp}, structure says {expect}")
        reconverge[pc] = rp
    body_of = {w: d + 1 for d, w in do_while.items()}
    return CFPlan(
        has_cf=True, body_of=body_of, break_clear=break_clear,
        break_do_level=break_do_level, depth_at=depth_at,
        reconverge_at=reconverge,
        max_depth=(max(depth_at) + 1) if depth_at else 0)
