"""The DISE expansion engine.

The engine sits between fetch and execute: "the DISE engine takes an
unmodified application instruction stream produced by the fetch unit,
inspects and potentially rewrites each instruction, and feeds the
execution engine a new instruction stream enhanced with ACF
functionality" (paper Section 3).

:meth:`DiseEngine.expand` is called by the machine for every fetched
instruction; it returns the instantiated replacement sequence of the
most specific matching production, or ``None`` when no pattern matches
(the instruction passes through unexpanded).  Matching is accelerated by
bucketing patterns by PC, codeword, and opclass so the common case (an
instruction that cannot match anything) is a couple of dict probes.

Like the hardware replacement table, which holds pre-decoded
instructions, the engine expands each trigger PC once: the result (an
immutable tuple, or ``None`` for no match) is memoized per PC together
with the trigger instruction it was built from, and every later fetch
of that same instruction replays the cached tuple — no matching, no
template instantiation, and (because the machine caches each slot's
decode on the instruction object) no re-decode.  The memo is dropped
whenever the production set changes (:meth:`add`, :meth:`remove`,
:meth:`clear`, hence :meth:`restore`) and whenever the machine bumps
its code version (:meth:`invalidate_expansions`, called from
``reload_text``, ``patch_text`` and stores into text), so it is exactly
as coherent as the instructions' own ``decoded`` caches.  A hit also
requires the fetched instruction to *be* the memoized trigger, so on a
multi-process machine another process's instruction at the same PC is
a miss, never a wrong hit.

The engine itself knows nothing about DISEPC control flow — branch,
call, and return semantics of replacement sequences are interpreted by
the machine (:mod:`repro.cpu.machine`), just as the hardware engine only
emits instructions while the pipeline executes them.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, OpClass
from repro.dise.production import Production


class DiseEngine:
    """Pattern matching + parameterized replacement."""

    def __init__(self):
        self._productions: list[Production] = []
        self._by_pc: dict[int, list[Production]] = {}
        self._by_codeword: dict[int, list[Production]] = {}
        self._by_opclass: dict[OpClass, list[Production]] = {}
        self._generic: list[Production] = []
        # Install order per production (id -> sequence number): the
        # documented tie-break.  Preserved across deactivate/activate
        # round-trips by passing the removed production's order back to
        # :meth:`add`.
        self._order: dict[int, int] = {}
        self._next_order = 0
        self.enabled = True
        # Expansion memo: trigger pc -> (trigger Instruction, expansion
        # tuple or None).  See the module docstring for its coherence
        # rules; the tuples are shared by every dynamic instance, so
        # nothing may mutate them.
        self._memo: dict[int, tuple[Instruction,
                                    Optional[tuple[Instruction, ...]]]] = {}
        self.expansions = 0
        self.instructions_inserted = 0

    # -- production management (driven by the controller) -------------------

    @property
    def productions(self) -> tuple[Production, ...]:
        return tuple(self._productions)

    def add(self, production: Production, order: int | None = None) -> int:
        """Install a production into the matching buckets.

        ``order`` re-installs at a previously assigned priority (as
        returned by :meth:`remove`); by default the production gets the
        next (lowest) priority.  Returns the order assigned.
        """
        self._memo.clear()
        if order is None:
            order = self._next_order
            self._next_order += 1
        else:
            self._next_order = max(self._next_order, order + 1)
        self._order[id(production)] = order
        self._insert_ordered(self._productions, production, order)
        pattern = production.pattern
        if pattern.pc is not None:
            plist = self._by_pc.setdefault(pattern.pc, [])
        elif pattern.codeword is not None:
            plist = self._by_codeword.setdefault(pattern.codeword, [])
        elif pattern.opclass is not None:
            plist = self._by_opclass.setdefault(pattern.opclass, [])
        else:
            plist = self._generic
        self._insert_ordered(plist, production, order)
        return order

    def _insert_ordered(self, plist: list[Production], production: Production,
                        order: int) -> None:
        orders = self._order
        i = len(plist)
        while i > 0 and orders[id(plist[i - 1])] > order:
            i -= 1
        plist.insert(i, production)

    def remove(self, production: Production) -> int:
        """Withdraw a production from all buckets; returns its install
        order so a later :meth:`add` can restore its match priority."""
        self._memo.clear()
        self._productions.remove(production)
        for bucket in (self._by_pc, self._by_codeword):
            for plist in bucket.values():
                if production in plist:
                    plist.remove(production)
        for plist in self._by_opclass.values():
            if production in plist:
                plist.remove(production)
        if production in self._generic:
            self._generic.remove(production)
        return self._order.pop(id(production))

    def clear(self) -> None:
        """Remove every production."""
        self._memo.clear()
        self._productions.clear()
        self._by_pc.clear()
        self._by_codeword.clear()
        self._by_opclass.clear()
        self._generic.clear()
        self._order.clear()

    @property
    def has_productions(self) -> bool:
        return bool(self._productions)

    # -- expansion -------------------------------------------------------------

    def invalidate_expansions(self) -> None:
        """Drop every memoized expansion (the machine's code changed)."""
        self._memo.clear()

    def expand(self, inst: Instruction,
               pc: int) -> Optional[tuple[Instruction, ...]]:
        """Return the replacement sequence for ``inst``, or None.

        Chooses the most specific matching pattern; ties break toward the
        earliest-installed production (deterministic, like table order in
        the hardware).  The result is memoized per trigger PC; a hit
        returns the same tuple and still counts as an expansion.
        """
        if not self.enabled or not self._productions:
            return None
        entry = self._memo.get(pc)
        if entry is not None and entry[0] is inst:
            expansion = entry[1]
        else:
            expansion = self._instantiate(inst, pc)
            self._memo[pc] = (inst, expansion)
        if expansion is None:
            return None
        self.expansions += 1
        self.instructions_inserted += len(expansion) - 1
        return expansion

    def _instantiate(self, inst: Instruction,
                     pc: int) -> Optional[tuple[Instruction, ...]]:
        """Match ``inst`` and build its expansion, bypassing the memo."""
        state = (None, -1, 0)  # (best, best_score, best_order)
        candidates = self._by_pc.get(pc)
        if candidates:
            state = self._best_match(candidates, inst, pc, state)
        if inst.opcode is Opcode.CODEWORD:
            candidates = self._by_codeword.get(inst.imm)
            if candidates:
                state = self._best_match(candidates, inst, pc, state)
        candidates = self._by_opclass.get(inst.info.opclass)
        if candidates:
            state = self._best_match(candidates, inst, pc, state)
        if self._generic:
            state = self._best_match(self._generic, inst, pc, state)
        best = state[0]
        if best is None:
            return None
        return tuple(best.expand(inst, pc))

    def _best_match(self, candidates, inst, pc, state):
        best, best_score, best_order = state
        orders = self._order
        for production in candidates:
            score = production.pattern.specificity
            if score < best_score:
                continue
            order = orders[id(production)]
            if score == best_score and order >= best_order:
                continue
            if production.pattern.matches(inst, pc):
                best = production
                best_score = score
                best_order = order
        return best, best_score, best_order

    def reset_stats(self) -> None:
        """Zero the expansion counters."""
        self.expansions = 0
        self.instructions_inserted = 0

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> tuple:
        """Capture installed productions (with priorities) and counters.

        Productions are immutable pattern/template pairs, so the blob
        references them directly; only the installed set and match
        priorities are reconstructed on :meth:`restore`.
        """
        installed = tuple((production, self._order[id(production)])
                          for production in self._productions)
        return (installed, self._next_order, self.enabled,
                self.expansions, self.instructions_inserted)

    def restore(self, blob: tuple) -> None:
        """Reset the engine to a previous :meth:`snapshot`."""
        (installed, next_order, self.enabled,
         self.expansions, self.instructions_inserted) = blob
        self.clear()
        for production, order in installed:
            self.add(production, order)
        self._next_order = next_order
