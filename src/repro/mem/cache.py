"""Set-associative write-back, write-allocate cache timing model.

The cache tracks tags, LRU order, dirty bits, and per-line fill-ready cycles
(so prefetched lines that are still in flight can be charged a partial miss).
It stores no data: the interpreter's functional state lives in
:class:`~repro.mem.memory.FlatMemory`.

Each set is one dict from tag to line whose insertion order is the LRU
order: a hit moves its line to the end, and a fill into a full set evicts
the first line. The list-based LRU it replaced is the oracle of a
differential test (``tests/core_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple

from repro.config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss and traffic counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    prefetch_hits: int = 0
    late_prefetch_hits: int = 0
    writebacks: int = 0
    prefetches_issued: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return 1.0 - self.hit_rate if self.accesses else 0.0


class _Line:
    __slots__ = ("dirty", "prefetched", "ready_cycle")

    def __init__(self, dirty: bool, prefetched: bool, ready_cycle: float) -> None:
        self.dirty = dirty
        self.prefetched = prefetched
        self.ready_cycle = ready_cycle


class LookupResult(NamedTuple):
    """Outcome of a cache lookup.

    ``extra_wait`` is the number of cycles a hit must still wait for an
    in-flight (prefetched) fill: 0 for a plain hit and for a miss.
    """

    hit: bool
    extra_wait: float = 0.0
    writeback: bool = False


# The outcomes that carry no wait, shared: a NamedTuple is immutable.
_HIT = LookupResult(True)
_MISS = LookupResult(False)
_MISS_WRITEBACK = LookupResult(False, 0.0, True)


class Cache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        self.ways = config.ways
        # Per set: tag -> line, least recently used first.
        self._sets: List[Dict[int, _Line]] = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- operations ---------------------------------------------------------

    def lookup(self, addr: int, is_write: bool, cycle: float) -> LookupResult:
        """Probe (and on miss, fill) the line containing ``addr``.

        Returns a :class:`LookupResult`; on a miss the line is installed with
        ``ready_cycle`` left at ``cycle`` (the caller adds the fill latency
        via :meth:`set_fill_time` if it wants in-flight modelling).
        """
        tag, index = divmod(addr // self.line_bytes, self.num_sets)
        cache_set = self._sets[index]
        stats = self.stats
        stats.accesses += 1
        entry = cache_set.pop(tag, None)
        if entry is None:
            stats.misses += 1
            if self._install(cache_set, tag, is_write, False, cycle):
                return _MISS_WRITEBACK
            return _MISS
        cache_set[tag] = entry  # now the most recently used
        stats.hits += 1
        if is_write:
            entry.dirty = True
        extra = entry.ready_cycle - cycle
        if entry.prefetched:
            entry.prefetched = False
            stats.prefetch_hits += 1
            if extra > 0:
                stats.late_prefetch_hits += 1
        return LookupResult(True, extra) if extra > 0 else _HIT

    def prefetch(self, addr: int, ready_cycle: float) -> bool:
        """Install a prefetched line that becomes usable at ``ready_cycle``.

        Returns True if a line was actually installed (False if already
        present). Prefetches never dirty lines.
        """
        tag, index = divmod(addr // self.line_bytes, self.num_sets)
        cache_set = self._sets[index]
        if tag in cache_set:
            return False
        self.stats.prefetches_issued += 1
        self._install(cache_set, tag, False, True, ready_cycle)
        return True

    def contains(self, addr: int) -> bool:
        tag, index = divmod(addr // self.line_bytes, self.num_sets)
        return tag in self._sets[index]

    def flush(self) -> int:
        """Drop all lines; returns the number of dirty lines written back."""
        dirty = sum(1 for s in self._sets for line in s.values() if line.dirty)
        self.stats.writebacks += dirty
        self._sets = [{} for _ in range(self.num_sets)]
        return dirty

    def set_fill_time(self, addr: int, ready_cycle: float) -> None:
        """Record when the (just-missed) line's fill completes."""
        tag, index = divmod(addr // self.line_bytes, self.num_sets)
        entry = self._sets[index].get(tag)
        if entry is not None:
            entry.ready_cycle = ready_cycle

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- internals -----------------------------------------------------------

    def _install(
        self, cache_set: Dict[int, _Line], tag: int, dirty: bool, prefetched: bool,
        ready_cycle: float,
    ) -> bool:
        """Fill ``tag`` as the most recent line; True if a dirty victim left."""
        writeback = False
        if len(cache_set) >= self.ways:
            if cache_set.pop(next(iter(cache_set))).dirty:
                writeback = True
                self.stats.writebacks += 1
        cache_set[tag] = _Line(dirty, prefetched, ready_cycle)
        return writeback
