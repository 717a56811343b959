"""Greedy garbage collection over the page-mapped FTL.

Victim selection is greedy-by-invalid-count (the standard MQSim policy):
the block with the most invalid pages is reclaimed first, still-valid pages
are relocated through the allocator, and the erase is timed against the
flash array so GC pressure shows up as channel/die occupancy. Every step
reads the FTL's per-block state (invalid pages per block, the P2L map, the
open-block set); none rescans the invalid set or the write points.

Two driving styles share the same relocation mechanics:

* :meth:`GarbageCollector.collect` runs a whole pass synchronously at a
  given instant (maintenance windows, tests).
* :meth:`GarbageCollector.collect_process` is a generator process for the
  unified :class:`repro.sim.Simulator` kernel — it yields between page
  relocations, so foreground offload/serve processes scheduled on the same
  kernel contend with GC on the plane and bus timelines instead of seeing
  one atomic burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import FTLError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.ftl.mapping import PageMapFTL

BlockId = Tuple[int, int, int, int, int]  # channel, chip, die, plane, block


@dataclass
class GCResult:
    """Outcome of one collection pass."""

    victim: BlockId
    relocated: int
    reclaimed: int
    done_ns: float


class GarbageCollector:
    """Greedy victim selection + valid-page relocation + timed erase."""

    def __init__(self, ftl: PageMapFTL, array: FlashArray) -> None:
        self.ftl = ftl
        self.array = array
        self.collections = 0
        self.pages_relocated = 0
        #: Outcome of the most recent pass (set by both driving styles;
        #: the process form has no direct way to return it).
        self.last_result: Optional[GCResult] = None

    def pick_victim(self) -> Optional[BlockId]:
        """The closed block with the most invalid pages, least worn among
        equals; then the block whose page comes first in ``invalid_pages``."""
        # Never reclaim an open write point: its remaining pages are about
        # to be programmed.
        open_blocks = self.ftl.allocator.open_blocks()
        most, tied = 0, []
        for block, pages in self.ftl.invalid_by_block.items():
            if block in open_blocks:
                continue
            count = len(pages)
            if count > most:
                most, tied = count, [block]
            elif count == most:
                tied.append(block)
        if len(tied) > 1:
            erases = [self.ftl.wear.erase_count(block) for block in tied]
            least = min(erases)
            tied = [block for block, count in zip(tied, erases) if count == least]
        if len(tied) < 2:
            return tied[0] if tied else None
        tied = set(tied)
        return next(ppa[:5] for ppa in self.ftl.invalid_pages if ppa[:5] in tied)

    def collect(self, at_ns: float = 0.0) -> GCResult:
        """Run one GC pass; raises if there is nothing to collect."""
        victim = self.pick_victim()
        if victim is None:
            raise FTLError("no invalid pages: nothing to collect")
        invalid_here = set(self.ftl.invalid_by_block[victim])
        # Relocate valid pages (mapped pages living in this block).
        relocated = 0
        now = at_ns
        for ppa, lpa in self._valid_pages_in(victim, invalid_here):
            now = self._relocate(ppa, lpa, now)
            relocated += 1
        return self._finish(victim, invalid_here, relocated, now)

    def collect_process(self, sim, at_ns: float = 0.0):
        """One GC pass as a process on the simulation kernel.

        Control returns to the simulator after every page relocation, so
        other processes on the same kernel (offload engines, background
        host reads) issue their reservations in global time order and GC
        pressure shows up as genuine contention. The finished
        :class:`GCResult` lands in :attr:`last_result`.
        """
        victim = self.pick_victim()
        if victim is None:
            raise FTLError("no invalid pages: nothing to collect")
        yield sim.wait_until(at_ns)
        invalid_here = set(self.ftl.invalid_by_block.get(victim, ()))
        relocated = 0
        now = sim.now
        for ppa, lpa in self._valid_pages_in(victim, invalid_here):
            now = self._relocate(ppa, lpa, now)
            relocated += 1
            yield sim.wait_until(now)
        self._finish(victim, invalid_here, relocated, now)

    # -- shared relocation mechanics ------------------------------------------

    def _valid_pages_in(self, victim: BlockId, invalid_here):
        channel, chip, die, plane, block = victim
        for page in range(self.ftl.config.pages_per_block):
            if page in invalid_here:
                continue
            ppa = PhysicalPageAddress(channel, chip, die, plane, block, page)
            lpa = self.ftl.reverse_lookup(ppa)
            if lpa is None:
                continue  # never-written page
            yield ppa, lpa

    def _relocate(self, ppa: PhysicalPageAddress, lpa: int, now: float) -> float:
        read = self.array.service_read(ppa, now)
        _, new_ppa = self.ftl.remap_for_gc(lpa)
        write = self.array.service_write(new_ppa, read.done_ns)
        return write.array_done_ns

    def _finish(self, victim: BlockId, invalid_here, relocated: int, now: float) -> GCResult:
        erase_ppa = PhysicalPageAddress(*victim, 0)
        done = self.array.erase(erase_ppa, now)
        self.ftl.wear.record_erase(victim)
        # Drop this block's pages from the invalid set and free it.
        self.ftl.forget_erased(victim)
        self.ftl.allocator.free_block(erase_ppa)
        self.collections += 1
        self.pages_relocated += relocated
        result = GCResult(
            victim=victim,
            relocated=relocated,
            reclaimed=len(invalid_here),
            done_ns=done,
        )
        self.last_result = result
        return result
