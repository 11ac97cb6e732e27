"""Expansion engine: bucketing, most-specific-wins, stats, memo."""

from repro.dise.controller import DiseController
from repro.dise.engine import DiseEngine
from repro.dise.pattern import Pattern
from repro.dise.production import Production, identity_production
from repro.dise.template import T, original, template
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import SP, dise_reg


def _store(base=5):
    return Instruction(Opcode.STQ, rd=1, rs1=base, imm=0)


def _generic_store_production():
    return Production(Pattern.stores(),
                      [original(), template(Opcode.TRAP)],
                      name="generic")


def test_no_productions_returns_none():
    engine = DiseEngine()
    assert engine.expand(_store(), 0x1000) is None
    assert not engine.has_productions


def test_non_matching_returns_none():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    assert engine.expand(Instruction(Opcode.NOP), 0x1000) is None


def test_basic_expansion_and_stats():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    expansion = engine.expand(_store(), 0x1000)
    assert [i.opcode for i in expansion] == [Opcode.STQ, Opcode.TRAP]
    assert engine.expansions == 1
    assert engine.instructions_inserted == 1


def test_most_specific_wins():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.add(identity_production(Pattern.stores(base_register=SP),
                                   name="stack-identity"))
    # Stack store: the more specific identity production applies.
    assert engine.expand(_store(base=SP), 0x1000) == (_store(base=SP),)
    # Other stores: the generic watchpoint expansion.
    assert len(engine.expand(_store(base=5), 0x1000)) == 2


def test_pc_pattern_overrides_class_pattern():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.add(Production(Pattern.at_pc(0x2000),
                          [template(Opcode.NOP)], name="by-pc"))
    assert engine.expand(_store(), 0x2000)[0].opcode is Opcode.NOP
    assert engine.expand(_store(), 0x2004)[0].opcode is Opcode.STQ


def test_codeword_bucket():
    engine = DiseEngine()
    engine.add(Production(Pattern.for_codeword(7),
                          [template(Opcode.TRAP)], name="bp"))
    codeword = Instruction(Opcode.CODEWORD, imm=7)
    assert engine.expand(codeword, 0)[0].opcode is Opcode.TRAP
    assert engine.expand(Instruction(Opcode.CODEWORD, imm=8), 0) is None


def test_generic_bucket():
    engine = DiseEngine()
    engine.add(Production(Pattern(rd=3), [template(Opcode.NOP)],
                          name="rd3"))
    assert engine.expand(Instruction(Opcode.ADDQ, rd=3, rs1=1, rs2=2),
                         0) is not None
    assert engine.expand(Instruction(Opcode.ADDQ, rd=4, rs1=1, rs2=2),
                         0) is None


def test_remove_production():
    engine = DiseEngine()
    production = _generic_store_production()
    engine.add(production)
    engine.remove(production)
    assert engine.expand(_store(), 0) is None
    assert not engine.has_productions


def test_disable_engine():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.enabled = False
    assert engine.expand(_store(), 0) is None


def test_tie_breaks_toward_earliest_installed():
    """Equal specificity: the earliest-installed production wins, and
    re-adding at a preserved order restores the original priority."""
    engine = DiseEngine()
    first = Production(Pattern.stores(), [original(), template(Opcode.TRAP)],
                       name="first")
    second = Production(Pattern.stores(), [original(), template(Opcode.NOP)],
                        name="second")
    engine.add(first)
    engine.add(second)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.TRAP
    order = engine.remove(first)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.NOP
    engine.add(first, order=order)
    assert engine.expand(_store(), 0x1000)[1].opcode is Opcode.TRAP


def test_clear_and_reset_stats():
    engine = DiseEngine()
    engine.add(_generic_store_production())
    engine.expand(_store(), 0)
    engine.clear()
    engine.reset_stats()
    assert engine.expansions == 0
    assert not engine.has_productions


# -- the per-trigger-PC expansion memo ---------------------------------------

DR0, DR1 = dise_reg(0), dise_reg(1)


def _templated_production(name="templated"):
    """Every slot kind: the trigger itself, register/immediate/PC
    directives, and a literal slot."""
    return Production(Pattern.stores(),
                      [original(),
                       template(Opcode.LDA, rd=DR0, rs1=T.RS1, imm=T.IMM),
                       template(Opcode.ADDQ, rd=DR1, rs1=DR1, imm=T.PC),
                       template(Opcode.CTRAP, rs1=DR0)],
                      name=name)


def _keys(expansion):
    return None if expansion is None else [i._key() for i in expansion]


def _fresh_expansion(engine, inst, pc):
    """What a new engine with the same productions (so an empty memo)
    builds for ``inst`` at ``pc``."""
    fresh = DiseEngine()
    for production in engine.productions:
        fresh.add(production, engine._order[id(production)])
    fresh.enabled = engine.enabled
    return fresh.expand(inst, pc)


def _checked_expand(engine, inst, pc):
    """``engine.expand`` must equal a fresh engine's expansion and move
    the counters exactly as a fresh instantiation would."""
    expansions, inserted = engine.expansions, engine.instructions_inserted
    expected = _fresh_expansion(engine, inst, pc)
    expansion = engine.expand(inst, pc)
    assert _keys(expansion) == _keys(expected)
    if expected is not None:
        expansions += 1
        inserted += len(expected) - 1
    assert (engine.expansions, engine.instructions_inserted) == \
        (expansions, inserted)
    return expansion


def test_memo_replays_one_tuple_per_trigger():
    engine = DiseEngine()
    engine.add(_templated_production())
    store = _store()
    first = _checked_expand(engine, store, 0x1000)
    assert isinstance(first, tuple)
    assert first[0] is store
    assert _checked_expand(engine, store, 0x1000) is first
    # Another PC instantiates T.PC afresh; a literal slot stays shared.
    other = _checked_expand(engine, store, 0x1004)
    assert other is not first and other[2].imm == 0x1004
    assert other[3] is first[3]
    assert engine.expansions == 3


def test_memo_hit_requires_the_same_trigger_instance():
    """Another instruction at a memoized PC (another process's text, a
    patched slot) is a miss, never a wrong hit."""
    engine = DiseEngine()
    engine.add(_templated_production())
    near, far = _store(), Instruction(Opcode.STQ, rd=2, rs1=6, imm=16)
    for _ in range(2):
        assert _checked_expand(engine, near, 0x1000)[1].imm == 0
        assert _checked_expand(engine, far, 0x1000)[1].imm == 16


def test_memo_follows_production_set_changes():
    engine = DiseEngine()
    controller = DiseController(engine)
    store, stack_store = _store(), _store(base=SP)
    production = controller.install(_templated_production())

    def check():
        _checked_expand(engine, store, 0x1000)
        _checked_expand(engine, stack_store, 0x1004)

    check()
    stack = controller.install(identity_production(
        Pattern.stores(base_register=SP), name="stack"))
    check()
    controller.deactivate(production)
    check()
    controller.activate(production)
    check()
    blob = engine.snapshot()
    controller.uninstall(stack)
    check()
    engine.restore(blob)
    assert engine.productions == (production, stack)
    check()
    engine.clear()
    check()


def test_memo_survives_enabled_toggle():
    engine = DiseEngine()
    engine.add(_templated_production())
    store = _store()
    first = _checked_expand(engine, store, 0x1000)
    engine.enabled = False
    assert _checked_expand(engine, store, 0x1000) is None
    engine.enabled = True
    assert _checked_expand(engine, store, 0x1000) is first


def test_negative_memo_entry_becomes_match_after_add():
    engine = DiseEngine()
    engine.add(_templated_production())
    add = Instruction(Opcode.ADDQ, rd=3, rs1=1, rs2=2)
    assert _checked_expand(engine, add, 0x1000) is None
    assert _checked_expand(engine, add, 0x1000) is None
    engine.add(Production(Pattern(rd=3), [original(), template(Opcode.NOP)],
                          name="rd3"))
    assert len(_checked_expand(engine, add, 0x1000)) == 2


def test_invalidate_expansions_sees_in_place_rewrite():
    engine = DiseEngine()
    engine.add(_templated_production())
    store = _store()
    _checked_expand(engine, store, 0x1000)
    store.imm = 40
    engine.invalidate_expansions()
    assert _checked_expand(engine, store, 0x1000)[1].imm == 40
