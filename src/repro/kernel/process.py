"""Per-process machine state, swapped by object reference.

A :class:`ProcessContext` owns everything about a :class:`Machine` that
is *per address space*: memory, page table, registers, program text and
its decode/compile caches, the DISE expansion pipeline state, and the
debug substrate (watch ranges, breakpoint registers, statement PCs).
Machine-wide state — statistics, the timing model's caches and
predictor, the DISE engine/controller/registers — stays on the machine;
the timing model charges a flush + TLB shootdown at each switch and the
DISE controller re-gates productions by target process.

Switching is two reference swaps (:meth:`save_from` then
:meth:`load_into` of the next context): no copying, so a context switch
costs the simulator O(number of fields), not O(footprint).  The
machine's handlers read ``self.memory``/``self.regs``/... afresh on
each run slice, so swapping between slices is invisible to them.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Optional

from repro.isa.program import (INSTRUCTION_BYTES, Program, STACK_TOP,
                               TEXT_BASE)
from repro.isa.registers import SP
from repro.memory.main_memory import MainMemory
from repro.memory.pagetable import PageTable

if TYPE_CHECKING:
    from repro.cpu.machine import Machine

# Machine attribute -> ProcessContext attribute, for the scalar (or
# reference-swapped) fields that move wholesale on a context switch.
# Component objects with in-place restore (memory, pagetable) and the
# compiled tier are handled explicitly.
_SWAPPED = (
    ("program", "program"),
    ("regs", "regs"),
    ("pc", "pc"),
    ("halted", "halted"),
    ("_text", "text"),
    ("_text_base", "text_base"),
    ("_text_end", "text_end"),
    ("text_version", "text_version"),
    ("statement_pcs", "statement_pcs"),
    ("instrumentation_pcs", "instrumentation_pcs"),
    ("hw_watch_ranges", "hw_watch_ranges"),
    ("breakpoint_registers", "breakpoint_registers"),
    ("single_step", "single_step"),
    ("_expansion", "expansion"),
    ("_exp_index", "exp_index"),
    ("_trigger_pc", "trigger_pc"),
    ("_in_dise_function", "in_dise_function"),
    ("_dise_return", "dise_return"),
    ("_expansion_did_store", "expansion_did_store"),
    ("_fetch_trap_resume_pc", "fetch_trap_resume_pc"),
    ("last_store_addr", "last_store_addr"),
    ("last_store_size", "last_store_size"),
    ("last_store_value", "last_store_value"),
)


class ProcessContext:
    """One process's share of the machine state."""

    def __init__(self, pid: int, name: str, program: Program,
                 page_bytes: int):
        self.pid = pid
        self.name = name
        self.program = program

        # Address space.
        self.memory = MainMemory()
        self.pagetable = PageTable(page_bytes)

        # Architectural state.
        self.regs: list[int] = [0] * 32
        self.pc = 0
        self.halted = False

        # Text and its caches.
        self.text = program.instructions
        self.text_base = TEXT_BASE
        self.text_end = TEXT_BASE + INSTRUCTION_BYTES * len(self.text)
        self.text_version = 0
        self.compiled = None  # this process's CompiledTier (lazy)

        # Debug substrate: empty for a spawned process — the debugger
        # installs its watchpoints/breakpoints against the target
        # process's context only, so a co-resident process never even
        # holds them.
        self.statement_pcs: frozenset[int] = frozenset()
        self.instrumentation_pcs: frozenset[int] = frozenset()
        self.hw_watch_ranges: list[tuple[int, int]] = []
        self.breakpoint_registers: set[int] = set()
        self.single_step = False

        # DISE expansion pipeline state (a quantum may not end inside an
        # expansion — the machine slips the deadline — but a *syscall*
        # trap or debugger stop can, so it context-switches too).
        self.expansion = None
        self.exp_index = 0
        self.trigger_pc = 0
        self.in_dise_function = False
        self.dise_return = None
        self.expansion_did_store = False

        self.fetch_trap_resume_pc: Optional[int] = None
        self.last_store_addr = 0
        self.last_store_size = 0
        self.last_store_value = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def fresh(cls, pid: int, name: str, program: Program,
              page_bytes: int) -> "ProcessContext":
        """Build a runnable context for ``program`` in a new, private
        address space (mirrors ``Machine._load_program``)."""
        ctx = cls(pid, name, program, page_bytes)
        for item in program.data_items:
            symbol = program.symbols[item.name]
            if item.init:
                ctx.memory.write_bytes(symbol.address, item.init)
        ctx.regs[SP] = STACK_TOP
        ctx.pc = program.entry_pc
        ctx.statement_pcs = frozenset(
            program.pc_of_index(i) for i in program.statement_starts)
        return ctx

    @classmethod
    def adopt(cls, machine: "Machine", pid: int,
              name: str) -> "ProcessContext":
        """Wrap the machine's already-loaded program as a context.

        Used for pid 1: the machine (and the debugger backend above it)
        already built this process's state — including installed
        watchpoints and statement tables — so the context takes the
        live objects by reference rather than reloading.
        """
        ctx = cls(pid, name, machine.program, machine.config.page_bytes)
        ctx.save_from(machine)
        return ctx

    # -- the switch --------------------------------------------------------

    def save_from(self, machine: "Machine") -> None:
        """Capture the machine's per-process state (by reference)."""
        self.memory = machine.memory
        self.pagetable = machine.pagetable
        self.compiled = machine._compiled
        for machine_attr, ctx_attr in _SWAPPED:
            setattr(self, ctx_attr, getattr(machine, machine_attr))

    def load_into(self, machine: "Machine") -> None:
        """Make this context the machine's live state (by reference)."""
        machine.memory = self.memory
        machine.pagetable = self.pagetable
        machine._compiled = self.compiled
        for machine_attr, ctx_attr in _SWAPPED:
            setattr(machine, machine_attr, getattr(self, ctx_attr))
        machine.current_process = self.name

    # -- snapshots ---------------------------------------------------------
    #
    # Only *inactive* contexts snapshot/restore through these: the
    # current process's state lives on the machine and rides in the
    # machine-level snapshot (Kernel.pre_restore realigns first).

    def snapshot(self) -> dict:
        """Capture this (inactive) process's state as an opaque blob."""
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "halted": self.halted,
            "memory": self.memory.snapshot(),
            "pagetable": self.pagetable.snapshot(),
            "text_version": self.text_version,
            "statement_pcs": self.statement_pcs,
            "instrumentation_pcs": self.instrumentation_pcs,
            "hw_watch_ranges": list(self.hw_watch_ranges),
            "breakpoint_registers": set(self.breakpoint_registers),
            "single_step": self.single_step,
            # Immutable expansion tuples: kept by reference.
            "expansion": (
                self.expansion, self.exp_index, self.trigger_pc,
                self.in_dise_function, self.dise_return,
                self.expansion_did_store),
            "fetch_trap_resume_pc": self.fetch_trap_resume_pc,
            "last_store": (self.last_store_addr, self.last_store_size,
                           self.last_store_value),
        }

    def restore(self, blob: dict) -> None:
        """Rewind this process to a previous :meth:`snapshot` (memory
        and page table are mutated in place; the machine may hold
        references to them)."""
        self.regs = list(blob["regs"])
        self.pc = blob["pc"]
        self.halted = blob["halted"]
        self.memory.restore(blob["memory"])
        self.pagetable.restore(blob["pagetable"])
        self.text_version = blob["text_version"]
        self.statement_pcs = blob["statement_pcs"]
        self.instrumentation_pcs = blob["instrumentation_pcs"]
        self.hw_watch_ranges = list(blob["hw_watch_ranges"])
        self.breakpoint_registers = set(blob["breakpoint_registers"])
        self.single_step = blob["single_step"]
        (self.expansion, self.exp_index, self.trigger_pc,
         self.in_dise_function, self.dise_return,
         self.expansion_did_store) = blob["expansion"]
        self.fetch_trap_resume_pc = blob["fetch_trap_resume_pc"]
        (self.last_store_addr, self.last_store_size,
         self.last_store_value) = blob["last_store"]
        # The snapshot may carry different code/production visibility;
        # never let compiled blocks survive a restore (mirrors
        # Machine.restore).
        if self.compiled is not None:
            self.compiled.flush()

    def state_fingerprint(self) -> str:
        """Digest of this process's architectural state.

        The same quantities :meth:`Machine.state_fingerprint` hashes for
        a single-process machine — registers, PC, halt flag, page
        protections, memory — so a process's final state under the
        scheduler can be compared against a solo run of the same
        program.
        """
        digest = hashlib.sha256()
        digest.update(repr((
            tuple(self.regs), self.pc, self.halted,
            tuple(sorted(self.pagetable.snapshot().items())),
        )).encode())
        digest.update(self.memory.state_fingerprint().encode())
        return digest.hexdigest()
