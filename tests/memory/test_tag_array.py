"""Differential property tests: flat LRU tag arrays vs per-set lists.

``SetAssociativeCache`` and ``Tlb`` keep every set in one flat tag
array.  The reference below is the straightforward model they replace —
one Python list per set, most recently used first — and every property
drives both with the same address stream over many geometries.
"""

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, TlbConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.tlb import Tlb


class ReferenceLru:
    """One list per set, MRU first; a miss fills the front and drops
    the tail once the set holds ``ways`` blocks."""

    def __init__(self, num_sets: int, ways: int, block_bytes: int):
        self.sets = [[] for _ in range(num_sets)]
        self.ways = ways
        self.shift = block_bytes.bit_length() - 1
        self.hits = 0
        self.misses = 0

    def _set(self, address: int) -> tuple[int, list[int]]:
        block = address >> self.shift
        return block, self.sets[block % len(self.sets)]

    def access(self, address: int) -> bool:
        block, ways = self._set(address)
        if block in ways:
            ways.remove(block)
            ways.insert(0, block)
            self.hits += 1
            return True
        ways.insert(0, block)
        if len(ways) > self.ways:
            ways.pop()
        self.misses += 1
        return False

    def probe(self, address: int) -> bool:
        block, ways = self._set(address)
        return block in ways

    def flush(self) -> None:
        for ways in self.sets:
            ways.clear()


ASSOCIATIVITIES = (1, 2, 4, 8)
SET_COUNTS = (1, 2, 4, 16, 64)


@st.composite
def cache_geometries(draw):
    ways = draw(st.sampled_from(ASSOCIATIVITIES))
    sets = draw(st.sampled_from(SET_COUNTS))
    line = draw(st.sampled_from((16, 64, 128)))
    return sets, ways, line


@st.composite
def tlb_geometries(draw):
    ways = draw(st.sampled_from(ASSOCIATIVITIES))
    sets = draw(st.sampled_from(SET_COUNTS))
    page = draw(st.sampled_from((4096, 8192)))
    return sets, ways, page


def _cache(sets: int, ways: int, line: int) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheConfig(size_bytes=sets * ways * line, associativity=ways,
                    line_bytes=line), "diff")


def _tlb(sets: int, ways: int, page: int) -> Tlb:
    return Tlb(TlbConfig(entries=sets * ways, associativity=ways,
                         page_bytes=page), "diff")


def addresses(block_bytes: int, sets: int, ways: int, min_size: int = 0):
    """Address streams that revisit a working set about three times the
    capacity (hits, conflict misses and evictions all occur), plus a few
    far addresses."""
    blocks = st.integers(0, 3 * sets * ways)
    near = st.tuples(blocks, st.integers(0, block_bytes - 1)).map(
        lambda pair: pair[0] * block_bytes + pair[1])
    far = st.integers(0, 2**40)
    return st.lists(st.one_of(near, near, near, far), min_size=min_size,
                    max_size=300)


def _assert_same_contents(model, reference, touched) -> None:
    assert (model.hits, model.misses) == (reference.hits, reference.misses)
    for address in touched:
        assert model.probe(address) == reference.probe(address), hex(address)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), geometry=cache_geometries())
def test_cache_matches_per_set_lru_lists(data, geometry):
    sets, ways, line = geometry
    cache, reference = _cache(sets, ways, line), ReferenceLru(sets, ways, line)
    stream = data.draw(addresses(line, sets, ways))
    for address in stream:
        assert cache.access(address) == reference.access(address)
    _assert_same_contents(cache, reference, stream)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), geometry=tlb_geometries())
def test_tlb_matches_per_set_lru_lists_across_flushes(data, geometry):
    sets, ways, page = geometry
    tlb, reference = _tlb(sets, ways, page), ReferenceLru(sets, ways, page)
    flush = st.just(None)
    ops = data.draw(st.lists(
        st.one_of(flush, addresses(page, sets, ways, min_size=1)),
        max_size=6))
    touched = []
    for op in ops:
        if op is None:
            tlb.flush()
            reference.flush()
            _assert_same_contents(tlb, reference, touched)
            continue
        for address in op:
            assert tlb.access(address) == reference.access(address)
        touched.extend(op)
        _assert_same_contents(tlb, reference, touched)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), geometry=cache_geometries(), is_tlb=st.booleans())
def test_snapshot_restore_matches_an_uninterrupted_twin(data, geometry,
                                                        is_tlb):
    sets, ways, block = geometry
    if is_tlb:
        block *= 64  # 1 KB .. 8 KB pages
        make = _tlb
    else:
        make = _cache
    stream = addresses(block, sets, ways)
    prefix, detour, suffix = (data.draw(stream) for _ in range(3))
    subject, twin = make(sets, ways, block), make(sets, ways, block)
    for address in prefix:
        assert subject.access(address) == twin.access(address)
    blob = subject.snapshot()
    for _ in range(2):  # a blob stays valid for repeated restores
        for address in detour:
            subject.access(address)
        subject.restore(blob)
    assert ([subject.access(a) for a in suffix]
            == [twin.access(a) for a in suffix])
    _assert_same_contents(subject, twin, prefix + detour + suffix)
