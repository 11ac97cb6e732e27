"""Allocation regression: a Machine's caches and TLBs are flat arrays.

Constructing a machine must not allocate Python objects per cache set:
those objects make construction, snapshots and garbage collection cost
grow with the modelled cache size.  The test counts GC-tracked objects
(with collection disabled so the count is exact), not time.
"""

import gc
from dataclasses import replace

from repro.config import CacheConfig, MachineConfig
from repro.cpu.machine import Machine
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.program import Program

MAX_TRACKED_OBJECTS = 500


def _objects_added_by_construction(config: MachineConfig) -> int:
    program = Program([Instruction(Opcode.HALT)], {"main": 0}, name="alloc")
    Machine(program, config=config)  # first use fills lazy caches
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        machine = Machine(program, config=config)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert machine.timing is not None  # the detailed timing model is built
    return added


def test_machine_construction_allocates_few_objects():
    assert _objects_added_by_construction(MachineConfig()) \
        < MAX_TRACKED_OBJECTS


def test_allocation_does_not_grow_with_the_l2():
    default = MachineConfig()
    large_l2 = replace(default, l2=CacheConfig(
        size_bytes=4 * default.l2.size_bytes,
        associativity=default.l2.associativity))
    assert (_objects_added_by_construction(large_l2)
            <= _objects_added_by_construction(default))
