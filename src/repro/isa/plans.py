"""Program-scoped instruction plan tables.

The executors memoize everything about an instruction that does not
depend on thread state: resolved region byte-index arrays, broadcast
immediate payloads, the promoted execution dtype, source-register
footprints for load-use tracking, and per-machine ALU issue costs.

Historically those memos lived in per-executor dicts keyed by
``id(inst)``.  That keying has two failure modes in pooled executors
(serve workers, the batch ``TracingExecutor``):

- **staleness** — if a program is dropped (KernelCache eviction,
  ``Device.reset``) and an ``Instruction`` object is reused for a new
  program (same object, new meaning — the id is equal *by
  construction*), the executor silently returns the old program's plan:
  wrong region indices, wrong dtype, wrong cost;
- **unbounded growth** — the dicts survive ``reset()`` by design and
  grow by one entry per instruction per program for the life of the
  executor.

:class:`PlanTable` replaces them with a table scoped to one *program
binding* — the program list object itself.  Plan slots are keyed by
``(program, instruction index)``: executors bind exactly one table at a
time and rebuild (or rebind) whenever they are handed a different
program object, so a recycled ``Instruction`` in a new program can
never alias a stale plan, and an executor's plan footprint is bounded
by the length of the one program it is currently running.

Tables attach lazily to :class:`~repro.compiler.driver.CompiledKernel`
(see :meth:`CompiledKernel.plan_table`), so a plan table's lifetime is
exactly its kernel's — when the :class:`~repro.compiler.cache.
KernelCache` evicts a program, the plans (and any JIT megakernel, see
:mod:`repro.isa.jit`) go with it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.isa.grf import RegOperand

__all__ = ["PlanTable", "source_regs"]


def source_regs(inst) -> tuple:
    """The GRF registers an instruction's register sources read.

    Operand by operand, each operand's registers ascending, a register
    kept at its first occurrence: the order the sequential tracer
    consumes pending loads in.  Derived from the region parameters
    (:meth:`~repro.isa.grf.RegOperand.regs_read`).
    """
    regs: dict = {}
    for s in inst.srcs:
        if isinstance(s, RegOperand):
            regs.update(dict.fromkeys(s.regs_read(inst.exec_size)))
    return tuple(regs)


class PlanTable:
    """Resolved per-instruction plans for one program binding.

    The table is *lazy*: slots fill in as the executor first touches
    each instruction, and one table can be shared by any number of
    executors running the same program (sequential and JIT dispatch
    build identical plans; slot assignment is idempotent and
    atomic under the GIL).

    Identity contract: a table is valid for exactly the program list
    object it was built from.  Executors must call :meth:`matches`
    before reusing a bound table and rebuild on mismatch — that rebuild
    is what makes recycled ``Instruction`` objects safe.
    """

    __slots__ = ("program", "insts", "_index", "plans", "src_regs",
                 "_cost_tables", "_cf")

    def __init__(self, program: Sequence) -> None:
        #: the exact program object this table is bound to (strong ref,
        #: so instruction ids stay stable for the table's lifetime).
        self.program = program
        self.insts = tuple(program)
        self._index = {id(inst): i for i, inst in enumerate(self.insts)}
        n = len(self.insts)
        #: index -> ALU/CMP plan tuple (an instruction is one or the
        #: other, so the slots can share a list).
        self.plans: list = [None] * n
        #: index -> :func:`source_regs` tuple (load-use tracking; filled
        #: by :meth:`source_regs`, read by both dispatch tiers).
        self.src_regs: list = [None] * n
        #: machine -> per-index (n_inst, cycles) ALU cost slots.  Keyed
        #: by the (frozen, hashable) MachineConfig value so one kernel's
        #: table serves devices with different machine models.
        self._cost_tables: dict = {}
        #: lazily-computed control-flow plan (see :mod:`repro.isa.cfg`).
        self._cf = None

    def __len__(self) -> int:
        return len(self.insts)

    def matches(self, program: Sequence) -> bool:
        """Whether this table may serve ``program``.

        Binding is by program-object identity: a new list — even one
        holding recycled ``Instruction`` objects with familiar ids —
        gets a fresh table.
        """
        return program is self.program

    def slot(self, inst) -> Optional[int]:
        """The instruction's index in the bound program, or ``None``.

        ``None`` means the instruction is not part of the bound program
        (ad-hoc ``execute()`` calls); callers fall back to building an
        unmemoized plan.
        """
        return self._index.get(id(inst))

    def source_regs(self, index: int) -> tuple:
        """:func:`source_regs` of instruction ``index`` (memoized)."""
        regs = self.src_regs[index]
        if regs is None:
            regs = self.src_regs[index] = source_regs(self.insts[index])
        return regs

    def cost_slots(self, machine) -> list:
        """Per-index ALU cost slots for ``machine`` (created on demand)."""
        slots = self._cost_tables.get(machine)
        if slots is None:
            slots = self._cost_tables[machine] = [None] * len(self.insts)
        return slots

    def cf_plan(self):
        """The program's control-flow/reconvergence plan (cached).

        Computed once per program by :func:`repro.isa.cfg.analyze_cf`;
        raises :class:`~repro.isa.cfg.CFError` on malformed structure.
        """
        plan = self._cf
        if plan is None:
            from repro.isa.cfg import analyze_cf
            plan = self._cf = analyze_cf(self.insts)
        return plan
