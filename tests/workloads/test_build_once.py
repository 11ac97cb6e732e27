"""Build-once workloads: one kept program, private copies per caller.

:func:`~repro.workloads.corpus.build_workload` keeps the most recently
built program and hands out :meth:`~repro.isa.program.Program.copy`
instances that share its finalized instruction records.  These tests
pin the contract that makes the sharing safe: nothing a session or a
machine does to one copy shows through to another copy, to the kept
program, or to a later build.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest

import repro.workloads.benchmarks as benchmarks
import repro.workloads.corpus as corpus
from repro.cpu.machine import Machine
from repro.debugger.session import Session
from repro.errors import WorkloadError
from repro.fuzz.generator import build_program, generate_spec
from repro.harness.cache import ResultCache
from repro.harness.experiment import (CellSpec, ExperimentSettings,
                                      clear_baseline_cache, execute_spec)
from repro.harness.figures import COMPARED_BACKENDS
from repro.harness.runner import Runner
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.workloads.benchmarks import build_benchmark
from repro.workloads.corpus import (build_workload, generated_entry,
                                    load_program_file, programs_dir,
                                    promote_spec)

#: Stores into its own text (the ``lda`` slot), then runs that slot.
SELF_STORE_ASM = """
.data
hot: .quad 0
.text
main:
    lda r1, patched
    stq r2, 0(r1)
patched:
    lda r4, 7
    lda r5, hot
    stq r4, 0(r5)
    halt
"""


@pytest.fixture(autouse=True)
def _empty_slot(monkeypatch):
    """Start every test with no kept program (and leave none behind)."""
    monkeypatch.setattr(corpus, "_last_build", None)


def _count_builds(monkeypatch) -> Counter:
    """Count calls of the underlying benchmark builder, by name."""
    calls: Counter = Counter()
    real = benchmarks.build_benchmark

    def counting(name):
        calls[name] += 1
        return real(name)

    monkeypatch.setattr(benchmarks, "build_benchmark", counting)
    return calls


def test_copies_share_no_containers_and_appends_stay_private():
    fresh = build_benchmark("gcc").content_digest()
    first, second = build_workload("gcc"), build_workload("gcc")
    assert first is not second
    for field in ("instructions", "labels", "symbols", "data_items",
                  "statement_starts"):
        assert getattr(first, field) is not getattr(second, field), field

    # A DISE session appends its debugger function and data region...
    session = Session(first, backend="dise")
    session.watch("hot", condition="hot == 12345")
    backend = session.build_backend()
    assert len(backend.program) > len(first)
    assert len(backend.program.data_items) > len(first.data_items)
    # ...and so may a caller holding the copy itself.
    first.append_data("__extra", 8)
    first.append_function("__extra_fn", [Instruction(Opcode.HALT)])

    assert second.content_digest() == fresh
    assert build_workload("gcc").content_digest() == fresh


def test_patch_and_text_store_leave_other_copies_unchanged(tmp_path):
    path = tmp_path / "selfstore.s"
    path.write_text(SELF_STORE_ASM)
    first, second = build_workload(str(path)), build_workload(str(path))
    records = list(second.instructions)
    listing = second.disassemble()

    machine = Machine(first)
    machine.run()  # the guest store into text drops shared decode caches
    assert machine.text_version > 0
    assert machine.memory.read_int(first.address_of("hot"), 8) == 7
    machine.patch_text(first.pc_of_label("patched"),
                       Instruction(Opcode.LDA, rd=4, rs1=31, imm=9))

    assert second.instructions == records  # same records, same slots
    assert second.disassemble() == listing
    assert build_workload(str(path)).disassemble() == listing
    other = Machine(second)
    other.run()
    assert other.memory.read_int(second.address_of("hot"), 8) == 7


def test_binary_rewrite_leaves_other_copy_targets_unchanged():
    first, second = build_workload("gcc"), build_workload("gcc")
    targets = [inst.target for inst in second.instructions]

    session = Session(first, backend="binary_rewrite")
    session.watch("hot")
    backend = session.build_backend()
    rewritten = backend.program
    assert backend.inserted_instructions > 0
    moved = [inst for inst in rewritten.instructions
             if isinstance(inst.target, int)
             and inst.target not in targets]
    assert moved, "the rewrite retargeted no branch"

    assert [inst.target for inst in second.instructions] == targets
    assert [inst.target for inst in first.instructions] == targets
    assert ([inst.target for inst in build_workload("gcc").instructions]
            == targets)


def test_rewritten_source_file_rebuilds(tmp_path, monkeypatch):
    path = tmp_path / "edit.s"
    path.write_text(SELF_STORE_ASM)
    assembled = Counter()
    real = corpus.assemble

    def counting(source, **kwargs):
        assembled[kwargs.get("name")] += 1
        return real(source, **kwargs)

    monkeypatch.setattr(corpus, "assemble", counting)
    before = build_workload(str(path)).content_digest()
    assert build_workload(str(path)).content_digest() == before
    assert assembled["edit"] == 1  # unchanged source: the kept program

    path.write_text(SELF_STORE_ASM.replace("lda r4, 7", "lda r4, 8"))
    after = build_workload(str(path))
    assert assembled["edit"] == 2
    assert after.content_digest() != before
    assert after.content_digest() == load_program_file(path).content_digest()


@pytest.mark.parametrize("name", ["gen:3", "gen:41", "mcf", "gcc", "fib"])
def test_copies_match_unmemoized_builds(name):
    if name.startswith("gen:"):
        fresh = build_program(generate_spec(int(name[4:])))
    elif name in benchmarks.BENCHMARK_NAMES:
        fresh = build_benchmark(name)
    else:
        fresh = load_program_file(programs_dir() / f"{name}.s")
    built = build_workload(name)  # builds into the slot
    copied = build_workload(name)  # a copy of the kept program
    assert built.content_digest() == fresh.content_digest()
    assert copied.content_digest() == fresh.content_digest()
    assert copied.statement_starts == fresh.statement_starts


def test_runner_builds_each_workload_once(tmp_path, monkeypatch):
    settings = ExperimentSettings(measure_instructions=3_000,
                                  warmup_instructions=2_000)
    specs = [CellSpec.make(bench, "HOT", backend)
             for bench in ("mcf", "bzip2") for backend in COMPARED_BACKENDS]
    random.Random(7).shuffle(specs)
    assert [s.benchmark for s in specs] != sorted(s.benchmark for s in specs)

    builds = _count_builds(monkeypatch)
    runner = Runner(workers=0, cache=ResultCache(tmp_path / "cache"))
    results = runner.run(specs, settings=settings)
    assert builds == {"mcf": 1, "bzip2": 1}

    # Per-cell fresh builds: the historical path, nothing kept.
    monkeypatch.setattr(corpus, "build_workload", build_benchmark)
    for spec, result in zip(specs, results):
        clear_baseline_cache()
        fresh = execute_spec(spec, settings)
        assert (result.benchmark, result.backend) == (spec.benchmark,
                                                     spec.backend)
        assert result.stats == fresh.stats
        assert result.baseline_stats == fresh.baseline_stats
        assert result.overhead == fresh.overhead


def test_promoting_the_canonical_spec_builds_once(monkeypatch):
    rendered = Counter()
    real = corpus.build_program

    def counting(spec):
        rendered[spec.seed] += 1
        return real(spec)

    monkeypatch.setattr(corpus, "build_program", counting)
    entry = generated_entry(29)
    assert rendered[29] == 1
    assert entry.digest == real(generate_spec(29)).content_digest()

    # A shrunk spec renders differently from its seed's: still refused.
    spec = generate_spec(29)
    shrunk = dataclasses.replace(spec, blocks=spec.blocks[:-1])
    with pytest.raises(WorkloadError, match="not seed-reproducible"):
        promote_spec(shrunk)


def test_concurrent_builds_never_return_another_workload():
    """Threads share the one slot (thread-sharded servers run
    experiments concurrently): a race may rebuild, never mismatch."""
    import sys
    import threading

    names = [f"gen:{seed}" for seed in range(4)]
    expected = {name: build_program(generate_spec(int(name[4:])))
                .content_digest() for name in names}
    mismatches = []

    def worker(offset):
        for step in range(24):
            name = names[(offset + step) % len(names)]
            if build_workload(name).content_digest() != expected[name]:
                mismatches.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


@pytest.mark.parametrize("backend", COMPARED_BACKENDS + ("binary_rewrite",))
def test_finished_cell_leaves_no_cyclic_garbage(backend):
    """A finished cell is freed by reference counting: no machine,
    timing model or backend waits for the cyclic garbage collector."""
    import gc

    settings = ExperimentSettings(measure_instructions=2_000,
                                  warmup_instructions=1_000)
    spec = CellSpec.make("mcf", "HOT", backend)
    execute_spec(spec, settings)  # the baseline and the slot, once
    gc.collect()
    gc.disable()
    try:
        execute_spec(spec, settings)
        assert gc.collect() == 0
    finally:
        gc.enable()
