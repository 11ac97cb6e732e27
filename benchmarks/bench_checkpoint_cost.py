"""Checkpoint cost: copy-on-write snapshots vs full deep copies.

The replay subsystem takes periodic checkpoints during ``Machine.run``;
for that to be affordable the snapshot must be O(dirty pages), not
O(memory).  This benchmark times ``Machine.snapshot()`` against a full
``copy.deepcopy`` of the same machine's mutable state on a footprint of
a couple thousand resident pages, and asserts the CoW snapshot is at
least 10x cheaper.  It also measures the warm-start path end to end: a
warm-started experiment cell must recompute *zero* prefix instructions
(its measured run covers exactly the measure budget).

The timed-machine exhibit snapshots and restores a default
(``detailed_timing=True``) machine after a short warm run, so the timing
model's caches, TLBs and predictor are part of the blob.  Its gate is a
count, not a time: the timing model's blob holds the same number of
containers (tuples, lists, dicts) whatever the L2 size, because every
cache level and TLB is one flat tag array.

Run directly with::

    PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint_cost.py -q
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace

import pytest

from benchmarks.conftest import record
from repro.config import CacheConfig, MachineConfig
from repro.cpu.machine import Machine
from repro.harness.experiment import (CellSpec, ExperimentSettings,
                                      execute_spec)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.memory.main_memory import PAGE_BYTES
from repro.workloads.benchmarks import build_benchmark

TARGET_PAGES = 2_000
SPEEDUP_FLOOR = 10.0
SNAPSHOT_ROUNDS = 20
TIMED_WARM_INSTRUCTIONS = 20_000


def _wide_footprint_machine() -> Machine:
    """A machine with ~TARGET_PAGES resident data pages."""
    program = Program([Instruction(Opcode.HALT)], {"main": 0},
                      name="footprint")
    machine = Machine(program, detailed_timing=False)
    base = 0x0010_0000
    for page in range(TARGET_PAGES):
        machine.memory.write_int(base + page * PAGE_BYTES, 8, page + 1)
    return machine


def _deepcopy_blob(machine: Machine) -> dict:
    """The non-CoW alternative: deep-copy every mutable component."""
    return {
        "regs": copy.deepcopy(machine.regs),
        "memory": copy.deepcopy(machine.memory._pages),
        "pagetable": copy.deepcopy(machine.pagetable.snapshot()),
        "dise_regs": copy.deepcopy(machine.dise_regs.snapshot()),
        "stats": copy.deepcopy(machine.stats),
    }


def _containers(blob) -> int:
    """Tuples, lists and dicts reachable from ``blob``, itself included."""
    if isinstance(blob, (tuple, list)):
        return 1 + sum(_containers(item) for item in blob)
    if isinstance(blob, dict):
        return 1 + sum(_containers(key) + _containers(value)
                       for key, value in blob.items())
    return 0


def _warm_timed_machine(config: MachineConfig) -> Machine:
    """A detailed-timing machine whose caches and TLBs hold a warm run."""
    machine = Machine(build_benchmark("bzip2"), config=config)
    machine.run(max_app_instructions=TIMED_WARM_INSTRUCTIONS)
    return machine


@pytest.fixture(scope="module")
def timed_exhibit() -> dict:
    """Snapshot+restore cost and blob shape of warm timed machines."""
    default = MachineConfig()
    large_l2 = replace(default, l2=CacheConfig(
        size_bytes=4 * default.l2.size_bytes,
        associativity=default.l2.associativity))
    machine = _warm_timed_machine(default)

    def round_trip(component):
        component.restore(component.snapshot())

    return {
        "machine_us": _time(lambda: round_trip(machine),
                            SNAPSHOT_ROUNDS) * 1e6,
        "timing_us": _time(lambda: round_trip(machine.timing),
                           SNAPSHOT_ROUNDS) * 1e6,
        "containers": _containers(machine.timing.snapshot()),
        "containers_large_l2": _containers(
            _warm_timed_machine(large_l2).timing.snapshot()),
    }


def _time(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_cow_snapshot_beats_deep_copy(benchmark, results_dir,
                                      timed_exhibit):
    machine = _wide_footprint_machine()
    assert machine.memory.resident_pages >= TARGET_PAGES

    def measure():
        snap = _time(machine.snapshot, SNAPSHOT_ROUNDS)
        deep = _time(lambda: _deepcopy_blob(machine), 3)
        return snap, deep

    snap, deep = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = deep / snap

    text = "\n".join([
        "checkpoint cost: CoW snapshot vs deep copy "
        f"({machine.memory.resident_pages} resident pages)",
        f"  snapshot:  {snap * 1e6:10.1f} us",
        f"  deepcopy:  {deep * 1e6:10.1f} us",
        f"  speedup:   {speedup:10.1f}x (floor {SPEEDUP_FLOOR:.0f}x)",
        "timed machine (detailed_timing=True, default config, "
        f"{TIMED_WARM_INSTRUCTIONS:,}-instruction warm run on bzip2)",
        f"  snapshot+restore:        {timed_exhibit['machine_us']:10.1f} us",
        f"  of which timing model:   {timed_exhibit['timing_us']:10.1f} us",
        f"  timing blob containers:  {timed_exhibit['containers']:10d}"
        f" ({timed_exhibit['containers_large_l2']} with a 4x larger L2)",
    ])
    record(results_dir, "checkpoint_cost", text)
    assert speedup >= SPEEDUP_FLOOR, text


def test_timed_snapshot_size_does_not_grow_with_the_caches(timed_exhibit):
    # One flat tag array per cache level and TLB: the blob's shape is
    # fixed by the component count, not by the number of sets.
    assert timed_exhibit["containers_large_l2"] \
        == timed_exhibit["containers"], timed_exhibit


def test_warm_start_skips_the_entire_prefix(benchmark, results_dir):
    settings = ExperimentSettings(measure_instructions=20_000,
                                  warmup_instructions=20_000,
                                  warm_start=True)
    spec = CellSpec.make("bzip2", "hot", "dise")

    def run():
        return execute_spec(spec, settings)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.warm_started
    # Zero prefix instructions recomputed: the measured run is exactly
    # the measure budget, nothing more.
    assert result.stats.app_instructions == settings.measure_instructions
    record(results_dir, "warm_start",
           f"warm-start: measured {result.stats.app_instructions:,} "
           f"app instructions (prefix of "
           f"{settings.warmup_instructions:,} resumed from checkpoint)")
