"""Differential testing: random programs under every backend.

A miniature fuzzer: generate seeded random programs (ALU soup, loads,
stores to a small data region, short loops), run them undebugged, then
run them with a watchpoint under each backend.  Debugging must never
change the program's architectural results — the paper's entire premise
is *transparent* observation.

Failures here have historically caught template instantiation bugs,
branch-retargeting mistakes in the rewriter, and register-routing
errors, which is exactly what a differential suite is for.
"""

import random

import pytest

from repro.config import MachineConfig
from repro.cpu.machine import Machine
from repro.cpu.stats import TransitionKind
from repro.debugger import Session
from repro.dise.pattern import Pattern
from repro.dise.production import Production
from repro.dise.template import T, original, template
from repro.errors import UnsupportedWatchpointError
from repro.isa.builder import CodeBuilder
from repro.isa.opcodes import Opcode
from repro.isa.registers import dise_reg

SEEDS = list(range(10))
BACKENDS = ("single_step", "virtual_memory", "hardware", "binary_rewrite",
            "dise")
# Registers the generator may use (avoids sp/ra/zero and the rewriter's
# scavenged pair).
REGS = [f"r{i}" for i in range(1, 13)]
VARS = ["v0", "v1", "v2", "v3"]


def generate_program(seed: int) -> CodeBuilder:
    """A random but always-terminating program."""
    rng = random.Random(seed)
    b = CodeBuilder(f"fuzz-{seed}")
    for name in VARS:
        b.data_quad(name, rng.randrange(1, 100))
    b.data_space("pad", 64)
    b.label("main")
    b.stmt()
    # A bounded outer loop.
    iterations = rng.randrange(3, 9)
    b.lda("r20", 0, "zero")
    b.label("loop")
    for _ in range(rng.randrange(8, 20)):
        choice = rng.random()
        rd, rs = rng.choice(REGS), rng.choice(REGS)
        if choice < 0.35:
            op = rng.choice(["addq", "subq", "xor", "and_", "bis"])
            if rng.random() < 0.5:
                b.op(op.rstrip("_"), rs, rng.randrange(0, 64), rd)
            else:
                b.op(op.rstrip("_"), rs, rng.choice(REGS), rd)
        elif choice < 0.55:
            b.ldq(rd, rng.choice(VARS))
        elif choice < 0.8:
            b.stq(rs, rng.choice(VARS))
        elif choice < 0.9:
            b.stq(rs, rng.randrange(0, 8) * 8, "sp")
        else:
            b.stmt()
            b.op(rng.choice(["sll", "srl"]), rs, rng.randrange(0, 8), rd)
    b.stmt()
    b.addq("r20", 1, "r20")
    b.cmpult("r20", iterations, "r21")
    b.bne("r21", "loop")
    b.halt()
    return b


def _final_state(program):
    """Run undebugged; return (registers, watched-var values)."""
    machine = Machine(program, detailed_timing=False)
    machine.run(max_app_instructions=50_000)
    values = {name: machine.memory.read_int(program.address_of(name), 8)
              for name in VARS}
    return list(machine.regs), values


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_preserve_random_program_semantics(seed):
    reference_regs, reference_vars = _final_state(
        generate_program(seed).build())
    for backend in BACKENDS:
        program = generate_program(seed).build()
        session = Session(program, backend=backend)
        session.watch("v0")
        try:
            debugged = session.build_backend()
        except UnsupportedWatchpointError:
            continue
        debugged.machine.run(max_app_instructions=50_000)
        machine = debugged.machine
        resolved = debugged.program
        values = {name: machine.memory.read_int(
            resolved.address_of(name), 8) for name in VARS}
        assert values == reference_vars, (seed, backend)
        # Scavenged/instrumentation registers excluded: the application
        # registers must match exactly.
        for index in list(range(1, 26)) + [30]:
            assert machine.regs[index] == reference_regs[index], \
                (seed, backend, index)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_dise_variants_agree(seed):
    """All DISE sequence organizations compute the same results."""
    reference_regs, reference_vars = _final_state(
        generate_program(seed).build())
    for options in ({"check": "match-address"},
                    {"check": "evaluate-expression"},
                    {"check": "match-address-value"},
                    {"check": "match-address", "conditional_isa": False},
                    {"multi_strategy": "bloom-byte"},
                    {"multi_strategy": "bloom-bit"},
                    {"protect": True}):
        program = generate_program(seed).build()
        session = Session(program, backend="dise", **options)
        session.watch("v0")
        backend = session.build_backend()
        backend.machine.run(max_app_instructions=50_000)
        values = {name: backend.machine.memory.read_int(
            program.address_of(name), 8) for name in VARS}
        assert values == reference_vars, (seed, options)


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_transition_invariants_hold_on_random_programs(seed):
    """DISE never produces spurious transitions, on any program."""
    program = generate_program(seed).build()
    session = Session(program, backend="dise")
    session.watch("v0")
    backend = session.build_backend()
    result = backend.machine.run(max_app_instructions=50_000)
    assert result.stats.spurious_transitions == 0


# -- dispatch-table vs legacy interpreter ---------------------------------
#
# The interpreter rewrite (decode cache + handler table) must be
# bit-identical to the retained legacy path: full SimStats equality —
# instruction counts by origin, memory/control events, transitions, and
# cycles — across every backend, plus recorded absolute expectations so
# a simultaneous drift of both interpreters cannot slip through.

LEGACY_CONFIG = MachineConfig(interpreter="legacy")
TABLE_CONFIG = MachineConfig()


def _backend_stats(seed, backend, config):
    program = generate_program(seed).build()
    session = Session(program, backend=backend, config=config)
    session.watch("v0")
    debugged = session.build_backend()
    debugged.machine.run(max_app_instructions=50_000)
    return debugged.machine.stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_dispatch_table_matches_legacy_interpreter(seed, backend):
    """Full-SimStats equivalence of the two interpreter paths, with the
    detailed timing model attached (cycles included)."""
    legacy = _backend_stats(seed, backend, LEGACY_CONFIG)
    table = _backend_stats(seed, backend, TABLE_CONFIG)
    assert legacy == table, (seed, backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS[:5])
def test_timing_model_is_invisible_to_semantics(seed, backend):
    """The timing model only charges costs: a debugged table-tier run
    with it attached ends in the same architectural state, with the same
    counts, as one without.  Only the costs it adds (cycles and the
    pipeline flushes of DISE calls) may differ."""
    machines = []
    for detailed_timing in (True, False):
        session = Session(generate_program(seed).build(), backend=backend,
                          config=TABLE_CONFIG,
                          detailed_timing=detailed_timing)
        session.watch("v0")
        machine = session.build_backend().machine
        machine.run(max_app_instructions=50_000)
        machines.append(machine)
    timed, functional = machines
    assert timed.regs == functional.regs
    assert timed.halted == functional.halted
    assert timed.state_fingerprint() == functional.state_fingerprint()
    costs = {"cycles", "dise_call_flushes"}
    timed_stats = timed.stats.to_dict()
    functional_stats = functional.stats.to_dict()
    assert timed_stats.keys() == functional_stats.keys()
    for name in timed_stats.keys() - costs:
        assert timed_stats[name] == functional_stats[name], name


@pytest.mark.parametrize("seed", SEEDS[:5])
def test_functional_fast_path_matches_legacy(seed):
    """The no-timing fast path computes identical stats and registers."""
    outcomes = []
    for config in (LEGACY_CONFIG, TABLE_CONFIG):
        program = generate_program(seed).build()
        machine = Machine(program, config, detailed_timing=False)
        machine.run(max_app_instructions=50_000)
        outcomes.append((machine.stats, list(machine.regs)))
    assert outcomes[0] == outcomes[1]


# Recorded expectations for seed 0, captured from the seed interpreter:
# (app_instructions, dise_instructions, function_instructions,
#  user_transitions, spurious_transitions, cycles).
SEED0_EXPECTATIONS = {
    "single_step": (97, 0, 0, 1, 15, 1_500_547),
    "virtual_memory": (97, 0, 0, 1, 39, 3_900_806),
    "hardware": (97, 0, 0, 1, 4, 400_419),
    "binary_rewrite": (97, 292, 0, 1, 0, 782),
    "dise": (97, 220, 67, 1, 0, 647),
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_recorded_seed_expectations(backend):
    """Pin seed-0 behaviour to absolute numbers recorded from the seed
    interpreter, so both paths cannot drift together unnoticed."""
    stats = _backend_stats(0, backend, TABLE_CONFIG)
    expected = SEED0_EXPECTATIONS[backend]
    actual = (stats.app_instructions, stats.dise_instructions,
              stats.function_instructions,
              stats.transitions[TransitionKind.USER],
              stats.spurious_transitions, stats.cycles)
    assert actual == expected, backend


# -- templated replacement slots: legacy vs table -------------------------
#
# A codegen-style watch production (trigger; ``lda dr, T.IMM(T.RS1)``
# address computation; quad-align; compare; ``d_ccall`` the handler) plus
# a ``T.PC`` log.  Every static store instantiates its own sequence, so
# this is the leg that polices per-trigger instantiation and the
# engine's per-PC expansion memo on both interpreter paths.

def _templated_watch_machine(seed, config):
    builder = generate_program(seed)
    builder.data_quad("hits", 0)
    builder.label("on_hit")
    builder.ldq("r13", "hits")
    builder.addq("r13", 1, "r13")
    builder.stq("r13", "hits")
    builder.d_ret()
    program = builder.build()
    addr, flag, pcs = dise_reg(0), dise_reg(1), dise_reg(2)
    production = Production(Pattern.stores(), [
        original(),
        template(Opcode.LDA, rd=addr, rs1=T.RS1, imm=T.IMM),
        template(Opcode.BIC, rd=addr, rs1=addr, imm=7),
        template(Opcode.CMPEQ, rd=flag, rs1=addr,
                 imm=program.address_of("v0")),
        template(Opcode.ADDQ, rd=pcs, rs1=pcs, imm=T.PC),
        template(Opcode.D_CCALL, rs1=flag,
                 target=program.pc_of_label("on_hit")),
    ], name="templated-watch")
    machine = Machine(program, config)
    machine.dise_controller.install(production)
    machine.run(max_app_instructions=50_000)
    return program, machine


@pytest.mark.parametrize("seed", SEEDS)
def test_templated_production_legacy_matches_table(seed):
    (program, legacy), (_, table) = (
        _templated_watch_machine(seed, config)
        for config in (LEGACY_CONFIG, TABLE_CONFIG))
    assert legacy.state_fingerprint() == table.state_fingerprint()
    assert legacy.regs == table.regs
    assert legacy.stats == table.stats
    assert table.halted
    hits = table.memory.read_int(program.address_of("hits"), 8)
    # Each handler call stores once, and its stores are not expanded.
    assert table.stats.dise_expansions == table.stats.stores - hits > 0
