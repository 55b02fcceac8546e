"""Unit and property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import Cache


def small_cache(**kw) -> Cache:
    kw.setdefault("size_bytes", 1024)
    kw.setdefault("assoc", 2)
    kw.setdefault("line_bytes", 32)
    return Cache(**kw)


class TestGeometry:
    def test_paper_l1d(self):
        c = Cache(8 * 1024, 4, 32)
        assert c.num_sets == 64
        assert c.set_bits == 6

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            Cache(1000, 2, 32)

    def test_address_decomposition(self):
        c = small_cache()  # 16 sets
        line = 0b1010101_0011
        assert c.set_of(line) == 0b0011
        assert c.tag_of(line) == 0b1010101


class TestAccess:
    def test_miss_then_hit(self):
        c = small_cache()
        r1 = c.access(0x100)
        assert not r1.hit
        r2 = c.access(0x100)
        assert r2.hit
        assert (r2.set_index, r2.way) == (r1.set_index, r1.way)

    def test_lru_within_set(self):
        c = small_cache()  # 2-way
        s = c.num_sets
        lines = [i * s for i in range(3)]  # same set
        c.access(lines[0])
        c.access(lines[1])
        c.access(lines[0])  # refresh
        r = c.access(lines[2])  # evicts lines[1]
        assert r.evicted_line == lines[1]
        assert c.probe(lines[0]) is not None
        assert c.probe(lines[1]) is None

    def test_eviction_callback(self):
        events = []
        c = small_cache(on_evict=lambda set_idx, line: events.append((set_idx, line)))
        s = c.num_sets
        for i in range(3):
            c.access(i * s)
        assert events == [(0, 0)]

    def test_dirty_writeback(self):
        c = small_cache()
        s = c.num_sets
        c.access(0, write=True)
        c.access(s)
        r = c.access(2 * s)
        assert r.evicted_line == 0
        assert r.evicted_dirty
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache()
        s = c.num_sets
        for i in range(3):
            c.access(i * s)
        assert c.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = small_cache()
        c.access(0x7)
        c.access(0x7, write=True)
        s = c.num_sets
        c.access(0x7 + s)
        r = c.access(0x7 + 2 * s)
        assert r.evicted_dirty

    def test_stats(self):
        c = small_cache()
        c.access(1)
        c.access(1)
        c.access(2)
        assert c.stats.accesses == 3
        assert c.stats.hits == 1
        assert c.stats.misses == 2
        assert c.stats.miss_rate == pytest.approx(2 / 3)


class TestPresentBit:
    def test_set_and_read(self):
        c = small_cache()
        r = c.access(0x42)
        assert not c.present_bit(r.set_index, r.way)
        c.set_present_bit(r.set_index, r.way)
        assert c.present_bit(r.set_index, r.way)

    def test_cleared_on_replacement(self):
        c = small_cache()
        s = c.num_sets
        r = c.access(0)
        c.set_present_bit(r.set_index, r.way)
        c.access(s)
        c.access(2 * s)  # replaces line 0
        way = c.probe(2 * s)
        assert not c.present_bit(0, way)

    def test_line_at(self):
        c = small_cache()
        r = c.access(0x55)
        assert c.line_at(r.set_index, r.way) == 0x55

    def test_flush(self):
        c = small_cache()
        c.access(1)
        c.flush()
        assert c.probe(1) is None
        assert c.contents() == set()


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=4 * 64 - 1), min_size=100, max_size=400))
def test_cache_matches_lru_reference(ops):
    """The cache must agree way for way with a straightforward per-set
    true-LRU model: SAMIE entries record the returned way, so placement
    (first invalid way, else the least recently used) is part of the
    contract, as are evictions, dirty write-backs and callback order.
    ``warm_access`` ops place lines exactly as ``access`` does but leave
    the statistics alone.  Each op packs ``line << 2 | write << 1 |
    warm`` over 64 lines (8 per set, so sets overflow), and sequences
    are long enough for a warm write hit to be evicted later."""
    events = []
    c = Cache(1024, 4, 32, on_evict=lambda s, line: events.append((s, line)))  # 8 sets
    assoc = 4
    ways = {s: [None] * assoc for s in range(c.num_sets)}  # line per way
    last = {s: [0] * assoc for s in range(c.num_sets)}  # last-use tick per way
    dirty = {s: [False] * assoc for s in range(c.num_sets)}
    expected_events = []
    hits = misses = writebacks = 0
    for tick, op in enumerate(ops, 1):
        line, write, warm = op >> 2, bool(op & 2), bool(op & 1)
        s = c.set_of(line)
        before = (c.stats.accesses, c.stats.hits, c.stats.misses,
                  c.stats.evictions, c.stats.writebacks)
        res = c.warm_access(line, write) if warm else c.access(line, write)
        hit_ref = line in ways[s]
        ev_line, ev_dirty = None, False
        if hit_ref:
            w_ref = ways[s].index(line)
            dirty[s][w_ref] |= write
        else:
            if None in ways[s]:
                w_ref = ways[s].index(None)
            else:
                w_ref = last[s].index(min(last[s]))
                ev_line, ev_dirty = ways[s][w_ref], dirty[s][w_ref]
                expected_events.append((s, ev_line))
            ways[s][w_ref] = line
            dirty[s][w_ref] = write
        last[s][w_ref] = tick
        if warm:
            assert res is hit_ref
            after = (c.stats.accesses, c.stats.hits, c.stats.misses,
                     c.stats.evictions, c.stats.writebacks)
            assert after == before
        else:
            hits += hit_ref
            misses += not hit_ref
            writebacks += ev_dirty
            assert res.hit is hit_ref
            assert (res.set_index, res.way) == (s, w_ref)
            assert res.evicted_line == ev_line
            assert res.evicted_dirty is ev_dirty
        assert c.probe(line) == w_ref
        assert c.line_at(s, w_ref) == line
        assert events == expected_events
    assert (c.stats.hits, c.stats.misses, c.stats.writebacks) == (hits, misses, writebacks)
    assert c.contents() == {ln for s in ways.values() for ln in s if ln is not None}
