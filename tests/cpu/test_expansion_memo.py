"""The DISE engine's per-trigger-PC expansion memo, seen from the machine.

Every expansion a machine asks for is checked against a new engine with
the same productions (so an empty memo), and every run is compared with
a twin whose engine never remembers an expansion: the memo may change
how fast a trigger expands, never what it expands to, what the run
computes, or what it counts.
"""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.cpu.machine import Machine
from repro.dise.engine import DiseEngine
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import T, original, template
from repro.isa import assemble
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import dise_reg
from repro.kernel import Kernel, ProcessContext

DR0, DR1, DR2 = dise_reg(0), dise_reg(1), dise_reg(2)

TIERS = {
    "table": DEFAULT_CONFIG.with_(interpreter="table"),
    "legacy": DEFAULT_CONFIG.with_(interpreter="legacy"),
    "compiled": DEFAULT_CONFIG.with_(interpreter="compiled",
                                     compiled_hot_threshold=1),
}

# Two stores per iteration.  When r5 is non-zero the loop also stores
# to the text address in r4 (self-modifying code) before the trigger.
SOURCE = """
main:
    lda r1, 5
    lda r2, 0
loop:
    stq r1, 8(sp)
    beq r5, trigger
    stq r1, 0(r4)
trigger:
    stq r2, 16(sp)
    addq r2, 1, r2
    cmplt r2, 12, r3
    bne r3, loop
    halt
"""

# After 3 app instructions the first store's slot 0 has executed, so a
# slice ends mid-expansion; 14 ends the second iteration.
MID_EXPANSION = 3
PAUSE = 14


def _production():
    """Address check, PC log and a conditional trap: every directive
    kind plus a literal slot, so stale instantiations show up in the
    DISE registers (part of ``state_fingerprint``)."""
    return Production(
        Pattern.stores(),
        [original(),
         template(Opcode.LDA, rd=DR0, rs1=T.RS1, imm=T.IMM),
         template(Opcode.ADDQ, rd=DR1, rs1=DR1, rs2=DR0),
         template(Opcode.ADDQ, rd=DR2, rs1=DR2, imm=T.PC),
         template(Opcode.CTRAP, rs1=dise_reg(3))],
        name="templated")


class _NoMemo(dict):
    """An expansion memo that never remembers anything."""

    def __setitem__(self, key, value):
        pass


def _keys(expansion):
    return None if expansion is None else [i._key() for i in expansion]


def _check_every_expansion(machine):
    """Wrap ``machine.dise_engine.expand`` so each result must equal a
    new engine's expansion of the same trigger."""
    engine = machine.dise_engine
    memoized = engine.expand

    def expand(inst, pc):
        fresh = DiseEngine()
        for production in engine.productions:
            fresh.add(production, engine._order[id(production)])
        fresh.enabled = engine.enabled
        expansion = memoized(inst, pc)
        assert _keys(expansion) == _keys(fresh.expand(inst, pc)), hex(pc)
        return expansion

    engine.expand = expand


def _build(config, memo, source=SOURCE):
    program = assemble(source)
    machine = Machine(program, config)
    production = machine.dise_controller.install(_production())
    if not memo:
        machine.dise_engine._memo = _NoMemo()
    _check_every_expansion(machine)
    return program, machine, production


def _assert_same_run(memoized, reference):
    assert memoized.state_fingerprint() == reference.state_fingerprint()
    assert memoized.regs == reference.regs
    assert memoized.stats == reference.stats
    assert memoized.stats.dise_expansions == \
        memoized.dise_engine.expansions
    for counter in ("expansions", "instructions_inserted"):
        assert getattr(memoized.dise_engine, counter) == \
            getattr(reference.dise_engine, counter), counter


def _trigger(program):
    return program.instructions[
        program.index_of_pc(program.pc_of_label("trigger"))]


def _patch(program, machine, production):
    pc = program.pc_of_label("trigger")
    machine.patch_text(pc, Instruction(Opcode.STQ, rd=2, rs1=30, imm=40))


def _reload_after_rewrite(program, machine, production):
    _trigger(program).imm = 48
    machine.reload_text()


def _store_into_text(program, machine, production):
    # The host rewrites the trigger in place, then the guest's store
    # into that text slot must drop every cached expansion of it.
    _trigger(program).imm = 56
    machine.regs[4] = program.pc_of_label("trigger")
    machine.regs[5] = 1


def _toggle_production(program, machine, production):
    machine.dise_controller.deactivate(production)
    machine.run(max_app_instructions=PAUSE + 5)
    machine.dise_controller.activate(production)


def _reinstall(program, machine, production):
    machine.dise_controller.uninstall(production)
    machine.run(max_app_instructions=PAUSE + 5)
    machine.dise_controller.install(production)


def _toggle_enabled(program, machine, production):
    machine.dise_engine.enabled = False
    machine.run(max_app_instructions=PAUSE + 5)
    machine.dise_engine.enabled = True


def _restore_engine(program, machine, production):
    blob = machine.dise_engine.snapshot()
    machine.dise_controller.uninstall(production)
    machine.dise_engine.restore(blob)


MUTATIONS = {
    "patch_text": _patch,
    "reload_text": _reload_after_rewrite,
    "text_store": _store_into_text,
    "deactivate_activate": _toggle_production,
    "uninstall_install": _reinstall,
    "enabled_toggle": _toggle_enabled,
    "engine_restore": _restore_engine,
}


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_memo_is_invisible_across_mutations(mutation, tier):
    machines = []
    for memo in (True, False):
        program, machine, production = _build(TIERS[tier], memo)
        machine.run(max_app_instructions=PAUSE)
        MUTATIONS[mutation](program, machine, production)
        machine.run()
        assert machine.halted
        machines.append(machine)
    _assert_same_run(*machines)
    assert machines[0].stats.dise_expansions > 12


PROCESS = """
main:
    lda r1, {value}
    lda r2, 0
loop:
    stq r1, {offset}(sp)
    addq r2, 1, r2
    cmplt r2, 40, r3
    bne r3, loop
    halt
"""


@pytest.mark.parametrize("tier", ["table", "legacy"])
def test_processes_with_different_triggers_at_one_pc(tier):
    """The production sits in the engine for both processes, so only the
    trigger identity check keeps one process from replaying the other's
    expansion of the store both have at the same PC."""
    outcomes = []
    for memo in (True, False):
        first = assemble(PROCESS.format(value=3, offset=8))
        second = assemble(PROCESS.format(value=7, offset=24))
        assert first.pc_of_label("loop") == second.pc_of_label("loop")
        machine = Machine(first, TIERS[tier])
        machine.dise_engine.add(_production())
        if not memo:
            machine.dise_engine._memo = _NoMemo()
        _check_every_expansion(machine)
        kernel = Kernel(machine, quantum=7)
        kernel.spawn(second)
        assert machine.run().halted
        assert kernel.preemptions > 3
        outcomes.append((
            machine.dise_regs.snapshot(), machine.stats,
            machine.dise_engine.expansions,
            machine.dise_engine.instructions_inserted,
            [kernel.process_state(pid).state_fingerprint()
             for pid in (1, 2)]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1].dise_expansions == 80


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_restore_mid_expansion_after_deleting_the_watchpoint(tier):
    """Snapshot inside an expansion, delete the production, restore,
    continue: the run ends exactly as an uninterrupted one.  The blob
    keeps the in-flight expansion tuple by reference."""
    _, reference, _ = _build(TIERS[tier], memo=True)
    reference.run()
    _, machine, production = _build(TIERS[tier], memo=True)
    machine.run(max_app_instructions=MID_EXPANSION)
    assert machine._expansion is not None and machine._exp_index == 1
    blob = machine.snapshot()
    assert blob["expansion"][0] is machine._expansion
    machine.dise_controller.uninstall(production)
    machine.run(max_app_instructions=PAUSE)
    machine.restore(blob)
    assert machine._expansion is blob["expansion"][0]
    machine.run()
    assert machine.state_fingerprint() == reference.state_fingerprint()
    assert machine.stats == reference.stats


def test_process_snapshot_keeps_expansion_by_reference():
    program = assemble(PROCESS.format(value=3, offset=8))
    machine = Machine(program)
    machine.dise_controller.install(_production())
    machine.run(max_app_instructions=MID_EXPANSION)
    context = ProcessContext.adopt(machine, 1, "app")
    blob = context.snapshot()
    assert blob["expansion"][0] is machine._expansion
    context.restore(blob)
    assert context.expansion is blob["expansion"][0]
