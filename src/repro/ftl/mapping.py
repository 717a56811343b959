"""Page-level FTL: logical-to-physical mapping over the allocator.

Implements the mapping responsibilities of Section II-A: page-granular
LPA -> PPA translation, out-of-place updates (old pages invalidated for the
garbage collector), and ``populate`` used to mount datasets before an
offload run: one allocation per page through the same allocator as
``write``, then the maps updated in bulk.

Beside the L2P map the FTL keeps the per-block state a greedy collector
reads, as MQSim does: a P2L map, the invalid page numbers grouped per
block, and (in the allocator) the set of open write blocks. Every update
keeps them in step, so no GC pass rebuilds them by scanning.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.config import FlashConfig
from repro.errors import FTLError
from repro.flash.array import PhysicalPageAddress
from repro.ftl.allocator import PageAllocator
from repro.ftl.wear import BlockKey, WearTracker


class PageMapFTL:
    """LPA -> PPA map with out-of-place updates and invalidation tracking."""

    def __init__(self, config: FlashConfig, skew: float = 0.0) -> None:
        self.config = config
        self.wear = WearTracker()
        self.allocator = PageAllocator(config, skew=skew, wear=self.wear)
        self._map: Dict[int, PhysicalPageAddress] = {}
        self._p2l: Dict[PhysicalPageAddress, int] = {}
        self._invalid: Set[PhysicalPageAddress] = set()
        self._invalid_by_block: Dict[BlockKey, Set[int]] = {}
        self.updates = 0

    # -- translation -------------------------------------------------------------

    def lookup(self, lpa: int) -> PhysicalPageAddress:
        try:
            return self._map[lpa]
        except KeyError:
            raise FTLError(f"LPA {lpa} is unmapped") from None

    def is_mapped(self, lpa: int) -> bool:
        return lpa in self._map

    def __len__(self) -> int:
        return len(self._map)

    # -- writes --------------------------------------------------------------------

    def write(self, lpa: int) -> PhysicalPageAddress:
        """Map ``lpa`` to a fresh physical page (out-of-place update).

        The page is allocated before anything else changes, so a write the
        array has no room for leaves the map as it was.
        """
        if lpa < 0:
            raise FTLError("LPA must be non-negative")
        ppa = self.allocator.allocate()
        old = self._map.get(lpa)
        if old is not None:
            self._invalidate(old)
            self.updates += 1
        self._map[lpa] = ppa
        self._p2l[ppa] = lpa
        return ppa

    def populate(self, lpas: Iterable[int]) -> List[PhysicalPageAddress]:
        """Mount a dataset: map each LPA to a page per the placement policy.

        The same pages and map as one :meth:`write` per LPA, in order. A
        mount that does not fit raises :class:`FTLError` and changes
        nothing: the pages are allocated before the maps are touched, and
        :meth:`PageAllocator.allocate_many` hands out all of them or none.
        """
        lpas = list(lpas)
        if lpas and min(lpas) < 0:
            raise FTLError("LPA must be non-negative")
        ppas = self.allocator.allocate_many(len(lpas))
        mapping = self._map
        before = len(mapping)
        if not before or mapping.keys().isdisjoint(lpas):
            # Fresh LPAs: no page to invalidate, unless one repeats.
            mapping.update(zip(lpas, ppas))
            if len(mapping) == before + len(lpas):
                self._p2l.update(zip(ppas, lpas))
                return ppas
            for lpa in lpas:
                mapping.pop(lpa, None)
        p2l = self._p2l
        for lpa, ppa in zip(lpas, ppas):
            old = mapping.get(lpa)
            if old is not None:
                self._invalidate(old)
                self.updates += 1
            mapping[lpa] = ppa
            p2l[ppa] = lpa
        return ppas

    def trim(self, lpa: int) -> None:
        """Host discard: unmap and invalidate."""
        ppa = self._map.pop(lpa, None)
        if ppa is None:
            raise FTLError(f"trim of unmapped LPA {lpa}")
        self._invalidate(ppa)

    def _invalidate(self, ppa: PhysicalPageAddress) -> None:
        del self._p2l[ppa]
        self._invalid.add(ppa)
        pages = self._invalid_by_block.get(ppa[:5])
        if pages is None:
            self._invalid_by_block[ppa[:5]] = {ppa.page}
        else:
            pages.add(ppa.page)

    # -- GC interface -----------------------------------------------------------------

    @property
    def invalid_pages(self) -> Set[PhysicalPageAddress]:
        return self._invalid

    @property
    def invalid_by_block(self) -> Dict[BlockKey, Set[int]]:
        """Invalid page numbers of every block that has any (read-only)."""
        return self._invalid_by_block

    def collectible_invalid_pages(self) -> int:
        """Invalid pages in closed blocks: what the collector can reclaim."""
        open_blocks = self.allocator.open_blocks()
        return sum(
            len(pages)
            for block, pages in self._invalid_by_block.items()
            if block not in open_blocks
        )

    def remap_for_gc(self, lpa: int):
        """Used by the GC when relocating a still-valid page."""
        old = self.lookup(lpa)
        new = self.allocator.allocate()
        self._map[lpa] = new
        self._p2l[new] = lpa
        self._invalidate(old)
        return old, new

    def reverse_lookup(self, ppa: PhysicalPageAddress) -> Optional[int]:
        """The LPA mapped to ``ppa``, or None for a free or invalid page."""
        return self._p2l.get(ppa)

    def forget_erased(self, block: BlockKey) -> None:
        """Drop an erased block's pages from the invalid set."""
        pages = self._invalid_by_block.pop(block, ())
        self._invalid.difference_update(
            {PhysicalPageAddress(*block, page) for page in pages}
        )

    # -- distribution stats -------------------------------------------------------------

    def channel_page_counts(self, lpas: Optional[Iterable[int]] = None) -> List[int]:
        """How many (of the given) mapped pages sit on each channel."""
        counts = [0] * self.config.channels
        source = (self._map[l] for l in lpas) if lpas is not None else self._map.values()
        for ppa in source:
            counts[ppa.channel] += 1
        return counts
