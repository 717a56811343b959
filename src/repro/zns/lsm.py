"""A small LSM-tree model over zoned storage (``repro.zns``).

The tree is bookkeeping only — record *contents* never materialise; what
matters for the simulation is which pages live in which zones and how much
data each flush/compaction moves. A memtable flush becomes a sorted run
written at zone write pointers; leveled compaction merges the oldest runs
of an overfull level into the next one (k <= 4 victims, matching the
``merge`` kernel's fan-in).

Runs own their zones exclusively: a run is a list of *segments*
``(zone_id, first_lba, pages)``, one zone per segment, so retiring a run
retires whole zones — zone reset replaces page-level GC.

No record list is copied on the way down. A full memtable is handed over
as it is: the tree keeps it among its *flushing* memtables, still
readable as a memtable (as RocksDB keeps its immutable memtables), and
the flushed run takes the same dict as its key -> seq map. A compaction's
merged dict becomes the new run's map the same way. A run's ``keys`` are
``sorted()`` over the dict's int keys.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ZnsError
from repro.kernels.tuples import TUPLE_BYTES

#: On-flash record size: the :mod:`repro.kernels.tuples` layout.
RECORD_BYTES = TUPLE_BYTES


@dataclass
class Segment:
    """A contiguous zone-resident piece of a run."""

    zone_id: int
    first_lba: int
    pages: int


@dataclass
class SortedRun:
    """One immutable sorted run: unique keys, newest ``seq`` per key."""

    run_id: int
    level: int
    keys: List[int]  # sorted, unique
    seqs: Dict[int, int]
    segments: List[Segment] = field(default_factory=list)
    records_per_page: int = 128
    compacting: bool = False

    @property
    def pages(self) -> int:
        return sum(segment.pages for segment in self.segments)

    @property
    def records(self) -> int:
        return len(self.keys)

    def lba_for_key(self, key: int) -> int:
        """The LBA of the page holding ``key`` (key must be present)."""
        index = bisect.bisect_left(self.keys, key)
        if index >= len(self.keys) or self.keys[index] != key:
            raise ZnsError(f"key {key} not in run {self.run_id}")
        page = index // self.records_per_page
        for segment in self.segments:
            if page < segment.pages:
                return segment.first_lba + page
            page -= segment.pages
        raise ZnsError(f"run {self.run_id} pages do not cover key {key}")

    def all_lbas(self) -> List[int]:
        return [
            segment.first_lba + i
            for segment in self.segments
            for i in range(segment.pages)
        ]


@dataclass(frozen=True)
class CompactionPick:
    """A planned compaction: victims (oldest first) and the target level."""

    level: int
    victims: Tuple[SortedRun, ...]
    target: int


class LsmTree:
    """Memtable + leveled runs; placement-agnostic bookkeeping."""

    def __init__(
        self,
        memtable_records: int,
        l0_runs_trigger: int,
        fanout: int,
        max_levels: int,
        compaction_runs: int = 4,
        records_per_page: int = 128,
    ) -> None:
        self.memtable_records = memtable_records
        self.l0_runs_trigger = l0_runs_trigger
        self.fanout = fanout
        self.max_levels = max_levels
        self.compaction_runs = compaction_runs
        self.records_per_page = records_per_page
        self.memtable: Dict[int, int] = {}
        #: Full memtables whose flush has not yet added their run to L0.
        self.flushing: List[Dict[int, int]] = []
        #: levels[i] ordered oldest-first; lookups scan newest-first.
        self.levels: List[List[SortedRun]] = [[] for _ in range(max_levels)]
        self._next_run_id = 0
        self.flushes = 0
        self.compactions = 0

    # -- write path --------------------------------------------------------------

    def put(self, key: int, seq: int) -> bool:
        """Insert; returns True when the memtable is ripe for flushing."""
        self.memtable[key] = seq
        return len(self.memtable) >= self.memtable_records

    def take_memtable(self) -> Dict[int, int]:
        """Swap in a fresh memtable; the full one is returned and stays
        readable among the flushing memtables until its run is added."""
        memtable = self.memtable
        self.flushing.append(memtable)
        self.memtable = {}
        return memtable

    def new_run(self, level: int, seqs: Dict[int, int]) -> SortedRun:
        """Build a run over a key -> seq map, which it takes over (segments
        added later)."""
        run = SortedRun(
            run_id=self._next_run_id,
            level=level,
            keys=sorted(seqs),
            seqs=seqs,
            records_per_page=self.records_per_page,
        )
        self._next_run_id += 1
        return run

    def add_run(self, run: SortedRun, level: int = 0) -> None:
        """Place a run at ``level``; at L0 it is a flush, and the memtable it
        was built from (if any) stops being a flushing memtable."""
        run.level = level
        self.levels[level].append(run)
        if level == 0:
            self.flushes += 1
            flushing = self.flushing
            for index, seqs in enumerate(flushing):
                if seqs is run.seqs:
                    del flushing[index]
                    break

    # -- read path ---------------------------------------------------------------

    def locate(self, key: int) -> Tuple[str, Optional[SortedRun]]:
        """('memtable'|'run'|'miss', run) — newest version wins.

        The memtable and the flushing memtables answer first; then the
        newest run holding the key, L0 first.
        """
        if key in self.memtable:
            return "memtable", None
        for seqs in self.flushing:
            if key in seqs:
                return "memtable", None
        for level in self.levels:
            for run in reversed(level):  # newest runs searched first
                if key in run.seqs:
                    return "run", run
        return "miss", None

    # -- compaction planning ------------------------------------------------------

    def pick_compaction(self) -> Optional[CompactionPick]:
        """The next leveled compaction, or None when the tree is in shape."""
        ready0 = [run for run in self.levels[0] if not run.compacting]
        if len(ready0) >= self.l0_runs_trigger:
            victims = tuple(ready0[: min(self.compaction_runs, len(ready0))])
            return CompactionPick(level=0, victims=victims, target=1)
        for level in range(1, self.max_levels):
            ready = [run for run in self.levels[level] if not run.compacting]
            if len(ready) > self.fanout:
                victims = tuple(ready[: min(self.compaction_runs, len(ready))])
                target = min(level + 1, self.max_levels - 1)
                return CompactionPick(level=level, victims=victims, target=target)
        return None

    @staticmethod
    def merge_entries(victims: Iterable[SortedRun]) -> Dict[int, int]:
        """Merge victim runs newest-wins into one key -> seq map; victims
        must be oldest-first."""
        merged: Dict[int, int] = {}
        for run in victims:  # later (newer) runs overwrite earlier ones
            merged.update(run.seqs)
        return merged

    def apply_compaction(self, pick: CompactionPick, new_run: SortedRun) -> None:
        """Swap victims for the merged run (which is newest at its level)."""
        for victim in pick.victims:
            self.levels[victim.level].remove(victim)
        self.add_run(new_run, pick.target)
        self.compactions += 1
