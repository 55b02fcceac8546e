"""Set-associative cache model with LRU replacement and presentBit support.

The cache is a *timing/placement* model: it tracks which line lives in
which (set, way) and produces hit/miss outcomes plus evictions.  Data
values are carried by the pipeline's value oracle, not by the cache.

The ``presentBit`` per line supports the SAMIE-LSQ extension (paper §3.4):
when an LSQ entry caches the physical location of a line, the line's
presentBit is set; the eviction callback lets the LSQ clear stale cached
locations when the line is replaced.

State lives in flat per-slot lists, ``slot = set * assoc + way``
(resident line address or None, LRU clock, dirty, presentBit), plus one
dict from resident line address to slot.  Building a cache is a few list
multiplications; a probe or hit is one dict lookup.  A miss takes its
victim from the set's slice: the first invalid way, else the first way
with the minimum LRU clock.  The returned ``way`` is architectural --
SAMIE entries record and compare it -- so that rule is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.bitutils import ilog2, is_pow2


@dataclass
class CacheStats:
    """Aggregate cache event counts."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0.0 when idle)."""
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    set_index: int
    way: int
    #: line address evicted by this access (None if no eviction)
    evicted_line: int | None = None
    #: whether the evicted line was dirty (needs writeback)
    evicted_dirty: bool = False


class Cache:
    """Set-associative, write-back, write-allocate cache with true LRU.

    Addresses given to ``access``/``probe`` are *line addresses* (byte
    address >> line_shift); the caller owns the shift so that L1 (32 B
    lines) and L2 (64 B lines) can share one implementation.
    """

    def __init__(
        self,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        name: str = "cache",
        on_evict: Callable[[int, int], None] | None = None,
    ):
        if size_bytes % (assoc * line_bytes):
            raise ValueError("size must be a multiple of assoc*line_bytes")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.line_shift = ilog2(line_bytes)
        self.num_sets = size_bytes // (assoc * line_bytes)
        if not is_pow2(self.num_sets):
            raise ValueError("number of sets must be a power of two")
        self.set_mask = self.num_sets - 1
        self.set_bits = ilog2(self.num_sets)
        slots = self.num_sets * assoc
        #: per-slot state, ``slot = set * assoc + way``; ``_line`` holds
        #: the resident line address (None = invalid way)
        self._line: list[int | None] = [None] * slots
        self._lru = [0] * slots
        self._dirty = [False] * slots
        self._present = [False] * slots
        #: resident line address -> slot
        self._where: dict[int, int] = {}
        self._clock = 0
        self.stats = CacheStats()
        #: callback(set_index, evicted_line_addr) fired on every replacement
        self.on_evict = on_evict

    # -- address decomposition -------------------------------------------
    def set_of(self, line_addr: int) -> int:
        """Set index of a line address."""
        return line_addr & self.set_mask

    def tag_of(self, line_addr: int) -> int:
        """Tag of a line address."""
        return line_addr >> self.set_bits

    # -- lookup ------------------------------------------------------------
    def probe(self, line_addr: int) -> int | None:
        """Return the way holding ``line_addr`` (no state change), or None."""
        slot = self._where.get(line_addr)
        return None if slot is None else slot % self.assoc

    def access(self, line_addr: int, write: bool = False) -> AccessResult:
        """Perform an access: update LRU, allocate on miss, return outcome."""
        self._clock += 1
        stats = self.stats
        stats.accesses += 1
        set_idx = line_addr & self.set_mask
        slot = self._where.get(line_addr)
        if slot is not None:
            stats.hits += 1
            self._lru[slot] = self._clock
            if write:
                self._dirty[slot] = True
            return AccessResult(True, set_idx, slot % self.assoc)
        stats.misses += 1
        way, evicted_line, evicted_dirty = self._fill(line_addr, set_idx, write)
        if evicted_line is not None:
            stats.evictions += 1
            if evicted_dirty:
                stats.writebacks += 1
        return AccessResult(False, set_idx, way, evicted_line, evicted_dirty)

    def warm_access(self, line_addr: int, write: bool = False) -> bool:
        """Functional-warming access: placement/LRU/eviction side effects
        with **no statistics** -- sampling's skip gaps must not contaminate
        the measured hit/miss rates (they are separate traffic, accounted
        by the warm engine under ``extra["sampling"]["warm"]``).  The
        eviction callback still fires: presentBit invalidation is
        architectural state, not a statistic.  Returns the hit outcome.
        """
        self._clock += 1
        slot = self._where.get(line_addr)
        if slot is not None:
            self._lru[slot] = self._clock
            if write:
                self._dirty[slot] = True
            return True
        self._fill(line_addr, line_addr & self.set_mask, write)
        return False

    def _fill(self, line_addr: int, set_idx: int, write: bool):
        """Allocate ``line_addr`` into its set's victim way (the first
        invalid way, else the first least-recently-used one) and fire the
        eviction callback; returns ``(way, evicted line, evicted dirty)``."""
        base = set_idx * self.assoc
        end = base + self.assoc
        resident = self._line[base:end]
        victim = None
        dirty = False
        if None in resident:
            way = resident.index(None)
        else:
            lru = self._lru[base:end]
            way = lru.index(min(lru))
            victim = resident[way]
            dirty = self._dirty[base + way]
            if self.on_evict is not None:
                self.on_evict(set_idx, victim)
            del self._where[victim]
        slot = base + way
        self._line[slot] = line_addr
        self._where[line_addr] = slot
        self._lru[slot] = self._clock
        self._dirty[slot] = write
        self._present[slot] = False
        return way, victim, dirty

    def state_dump(self) -> dict:
        """Canonical snapshot of all placement state (lines, flags, LRU
        clocks) for the warm-engine equivalence tier: two caches behaved
        bit-identically iff their dumps are equal."""
        return {
            "clock": self._clock,
            "line": list(self._line),
            "lru": list(self._lru),
            "dirty": list(self._dirty),
            "present": list(self._present),
        }

    # -- presentBit support (SAMIE extension) ------------------------------
    def set_present_bit(self, set_idx: int, way: int, value: bool = True) -> None:
        """Set/clear the presentBit of a resident line."""
        self._present[set_idx * self.assoc + way] = value

    def present_bit(self, set_idx: int, way: int) -> bool:
        """Read the presentBit of a line."""
        return self._present[set_idx * self.assoc + way]

    def line_at(self, set_idx: int, way: int) -> int | None:
        """Line address resident at (set, way), or None if invalid."""
        return self._line[set_idx * self.assoc + way]

    def contents(self) -> set[int]:
        """All resident line addresses (testing aid)."""
        return set(self._where)

    def flush(self) -> None:
        """Invalidate every line (does not fire eviction callbacks)."""
        slots = len(self._line)
        self._line[:] = [None] * slots
        self._dirty[:] = [False] * slots
        self._present[:] = [False] * slots
        self._where.clear()
