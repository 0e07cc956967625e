"""Compiler driver: front end -> passes -> vISA -> finalizer -> run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.compiler.finalizer import (
    SCRATCH_BTI, Allocation, finalize,
)
from repro.compiler.frontend import trace_kernel
from repro.compiler.ir import Function
from repro.compiler.passes import analyze_bales, run_default_pipeline
from repro.compiler.scheduler import schedule_sends
from repro.compiler.visa import VProgram, emit_visa
from repro.isa.executor import FunctionalExecutor
from repro.isa.instructions import Instruction, format_program
from repro.memory.surfaces import BufferSurface, Surface
from repro.obs.tracing import trace_span


@dataclass
class CompiledKernel:
    """The output of the full pipeline, ready to execute per thread."""

    name: str
    ir: Function
    visa: VProgram
    program: List[Instruction]
    allocation: Allocation
    surfaces: List[str] = field(default_factory=list)
    #: lazily-built derived execution state whose lifetime must match
    #: the kernel's (program-scoped instruction plans, JIT megakernel,
    #: launch-gate facts).  ``KernelCache`` calls :meth:`release_derived`
    #: on eviction.
    _plan_table: object = field(default=None, repr=False, compare=False)
    _jit: object = field(default=None, repr=False, compare=False)
    _gate: object = field(default=None, repr=False, compare=False)

    @property
    def num_instructions(self) -> int:
        return len(self.program)

    def plan_table(self):
        """The program-scoped :class:`~repro.isa.plans.PlanTable`.

        Built on first use and shared by every executor that runs this
        kernel (sequential and JIT dispatch), so plan
        construction happens once per cached program — and dies with it.
        """
        table = self._plan_table
        if table is None:
            from repro.isa.plans import PlanTable
            table = PlanTable(self.program)
            self._plan_table = table
        return table

    def gate_facts(self) -> Tuple[object, bool]:
        """``(ineligible_reason, has_barrier)`` for the launch gate.

        Why the JIT tier declines the program (``None`` if it does not;
        see :func:`repro.isa.jit.ineligible_reason`) and whether it
        contains a ``BARRIER``; computed once, from the plan table's
        cached control-flow analysis.
        """
        facts = self._gate
        if facts is None:
            from repro.isa.instructions import Opcode
            from repro.isa.jit import ineligible_reason
            facts = self._gate = (
                ineligible_reason(self.program, self.plan_table()),
                any(i.opcode is Opcode.BARRIER for i in self.program))
        return facts

    def release_derived(self) -> None:
        """Drop derived state (plans, JIT, gate facts) when the kernel
        is evicted."""
        self._plan_table = None
        self._jit = None
        self._gate = None

    def asm(self) -> str:
        """Gen-assembly listing of the compiled kernel."""
        return format_program(self.program)

    def run(self, surfaces: Sequence[Surface],
            scalars: Dict[str, int] | None = None) -> FunctionalExecutor:
        """Execute one hardware thread of the compiled kernel.

        ``surfaces`` bind positionally to the kernel's surface params;
        ``scalars`` supplies the symbolic integer parameters (thread
        coordinates etc.).
        """
        table = {i: s for i, s in enumerate(surfaces)}
        if self.allocation.scratch_bytes:
            table[SCRATCH_BTI] = BufferSurface.allocate(
                self.allocation.scratch_bytes)
        ex = FunctionalExecutor(table)
        ex.bind_plans(self.plan_table())
        for name, value in (scalars or {}).items():
            vreg = self.visa.params.get(name)
            if vreg is None:
                continue  # optimized away
            base = self.allocation.grf_offset[vreg.id]
            ex.grf.write_bytes(base, np.asarray([value], dtype=np.int32))
        ex.run(self.program)
        return ex


def compile_kernel(body: Callable, name: str,
                   surfaces: Sequence[Tuple[str, bool]],
                   scalar_params: Sequence[str] = (),
                   optimize: bool = True) -> CompiledKernel:
    """Run the full CMC pipeline on a traceable kernel body.

    ``body(cmx, *surface_params, *scalars)`` is traced with the
    trace-mode CM API (see :mod:`repro.compiler.frontend`).

    When tracing is enabled (:mod:`repro.obs`), the whole compile runs
    under a ``compile`` span with one ``pass:*`` child per stage, so a
    Chrome-trace export shows the per-pass time breakdown.
    """
    with trace_span("compile", kernel=name) as span:
        with trace_span("pass:frontend", kernel=name):
            fn = trace_kernel(body, name, surfaces, scalar_params)
        # The linear-program passes assume straight-line code: constant
        # folding and dead-code elimination are unsound across a loop's
        # back edge, and the send scheduler must not hoist memory ops
        # over a divergent-region boundary.  Divergent kernels keep the
        # unoptimized (but legalized) pipeline; baling stays on (it is
        # restricted to within-region folds for CF functions).
        has_cf = any(i.op.startswith("simd.") for i in fn.instrs)
        if optimize and not has_cf:
            run_default_pipeline(fn, kernel=name)
        with trace_span("pass:baling", kernel=name):
            bales = analyze_bales(fn)
        with trace_span("pass:emit_visa", kernel=name):
            visa = emit_visa(fn, bales)
        if optimize and not has_cf:
            with trace_span("pass:schedule_sends", kernel=name):
                schedule_sends(visa)
        with trace_span("pass:finalize", kernel=name):
            program, alloc = finalize(visa)
        span.set(instructions=len(program))
    return CompiledKernel(
        name=name, ir=fn, visa=visa, program=program, allocation=alloc,
        surfaces=[nm for nm, _img in surfaces])
