"""Set-associative caches and the two-level hierarchy.

The timing model charges memory-access latency according to where an
access hits: L1 (I$ or D$), the shared L2, or main memory.  Caches use
true LRU within a set.

Only tags are modeled — the simulator's functional state lives in
:class:`repro.memory.main_memory.MainMemory`; caches exist purely to
classify accesses for the timing model.  This is sufficient because the
paper's cache-related effects (binary rewriting's instruction-cache
bloat, load-port/D$ contention of expression-evaluating replacement
sequences) are hit/miss phenomena, not coherence phenomena.

**Tag-array layout.**  A cache's whole state is one flat list of
``num_sets * associativity`` tags (line numbers) plus one trailing pad
entry.  Set ``s`` owns the fixed slice ``[s * ways, (s + 1) * ways)``,
kept in LRU order:

* the most recently used tag comes first;
* ``-1`` marks an empty way and appears only at a set's tail (every
  fill enters at the front and shifts the set right by one, dropping
  the last way), so line numbers — addresses are non-negative — never
  collide with it.  The pad is always ``-1``.

A hit on the MRU way touches nothing, a hit on the second way swaps
the two, and any other access shifts the ways in front of the hit (or
the whole set, on a miss) by one slice assignment.  ``snapshot``,
``restore`` and ``reset`` each copy or rebuild that one list, so their
cost and the number of Python objects a cache holds do not depend on
the number of sets.
"""

from __future__ import annotations

from enum import IntEnum

from repro.config import CacheConfig, MachineConfig, TlbConfig


class AccessLevel(IntEnum):
    """Where a memory access was satisfied."""

    L1 = 0
    L2 = 1
    MEMORY = 2


class SetAssociativeCache:
    """A tag-only set-associative cache with LRU replacement."""

    __slots__ = ("name", "config", "_tags", "_ways", "_set_mask",
                 "_line_shift", "hits", "misses")

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self._allocate(config, name, config.line_bytes)

    def _allocate(self, config: CacheConfig | TlbConfig, name: str,
                  block_bytes: int) -> None:
        """Set up an empty tag array of ``block_bytes``-sized blocks."""
        self.name = name
        self.config = config
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ValueError(
                f"{name}: number of sets {num_sets} is not a power of two")
        self._ways = config.associativity
        # One trailing pad way keeps the second-way check of the last
        # set in range when the cache is direct-mapped (it then reads
        # the next set's first tag or the pad, neither of which can
        # equal the line).
        self._tags = [-1] * (num_sets * self._ways + 1)
        self._set_mask = num_sets - 1
        self._line_shift = block_bytes.bit_length() - 1
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Probe the cache; fill on miss.  Returns True on hit."""
        line = address >> self._line_shift
        tags = self._tags
        ways = self._ways
        base = (line & self._set_mask) * ways
        if tags[base] == line:  # MRU fast path
            self.hits += 1
            return True
        if tags[base + 1] == line:  # second way: swap the two
            tags[base + 1] = tags[base]
            tags[base] = line
            self.hits += 1
            return True
        end = base + ways
        older = tags[base:end]
        hit = line in older
        if hit:
            older.remove(line)
            self.hits += 1
        else:
            del older[-1]  # evict the LRU way (or an empty one)
            self.misses += 1
        tags[base] = line
        tags[base + 1:end] = older
        return hit

    def probe(self, address: int) -> bool:
        """Check residency without updating state (for tests/tools)."""
        line = address >> self._line_shift
        base = (line & self._set_mask) * self._ways
        return line in self._tags[base:base + self._ways]

    def reset(self) -> None:
        """Empty the cache and zero the counters."""
        self._tags = [-1] * len(self._tags)
        self.hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        """Zero hit/miss counters without disturbing cache contents."""
        self.hits = 0
        self.misses = 0

    def snapshot(self) -> tuple:
        """Capture the tag array (one copy) and the counters."""
        return (tuple(self._tags), self.hits, self.misses)

    def restore(self, blob: tuple) -> None:
        """Reset the cache to a previous :meth:`snapshot`."""
        tags, self.hits, self.misses = blob
        self._tags = list(tags)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """Split L1 I$/D$ over a shared L2.

    ``access_inst`` / ``access_data`` return the :class:`AccessLevel`
    where the access hit, which the timing model converts to latency.
    """

    __slots__ = ("l1i", "l1d", "l2")

    def __init__(self, config: MachineConfig):
        self.l1i = SetAssociativeCache(config.icache, "l1i")
        self.l1d = SetAssociativeCache(config.dcache, "l1d")
        self.l2 = SetAssociativeCache(config.l2, "l2")

    def access_inst(self, address: int) -> AccessLevel:
        """Instruction fetch: probe I$ then L2; returns the hit level."""
        if self.l1i.access(address):
            return AccessLevel.L1
        if self.l2.access(address):
            return AccessLevel.L2
        return AccessLevel.MEMORY

    def access_data(self, address: int) -> AccessLevel:
        """Data access: probe D$ then L2; returns the hit level."""
        if self.l1d.access(address):
            return AccessLevel.L1
        if self.l2.access(address):
            return AccessLevel.L2
        return AccessLevel.MEMORY

    def reset(self) -> None:
        """Empty all levels and zero all counters."""
        self.l1i.reset()
        self.l1d.reset()
        self.l2.reset()

    def reset_counters(self) -> None:
        """Zero all counters, keeping contents (post-warm-up)."""
        self.l1i.reset_counters()
        self.l1d.reset_counters()
        self.l2.reset_counters()

    def snapshot(self) -> tuple:
        """Capture all three levels."""
        return (self.l1i.snapshot(), self.l1d.snapshot(), self.l2.snapshot())

    def restore(self, blob: tuple) -> None:
        """Reset all three levels to a previous :meth:`snapshot`."""
        self.l1i.restore(blob[0])
        self.l1d.restore(blob[1])
        self.l2.restore(blob[2])
