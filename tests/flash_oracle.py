"""Per-word and per-block oracles for the flash write path.

:func:`encode_page` / :func:`decode_page` run the SECDED page codec one
64-bit word at a time through the spec functions
:func:`repro.flash.ecc.encode_word` / :func:`repro.flash.ecc.decode_word`,
the loops every spare area was computed with before the byte-lane codec.
:func:`scan_pick_block` is the wear-levelling block pick as a full scan
(one ``erase_count`` lookup per free block), and :class:`FlatWearTracker`
keeps erase counts in one flat ``{(channel, chip, die, plane, block):
erases}`` map. :func:`scan_pick_channel` is the weighted channel pick as
a ``max`` over channels with a key function. :class:`ScanFTL` is the
page-mapped FTL on all three, with no per-block state: an L2P map and an
invalid set, so reverse lookups scan the map. :class:`ScanGarbageCollector` answers every GC question by a
scan: it regroups the invalid set per block (:func:`regroup`), walks every
write point for the open blocks (:func:`walk_open_blocks`) and scans the
invalid set again for the victim's pages; :func:`scan_collectible` is the
collectible count by the same scans. The differential suite and the flash
speed benchmark run the same pages and write sequences through these and
through :mod:`repro.flash.ecc` and :mod:`repro.ftl`, and demand identical
spare bytes, decoded pages, PPA streams, GC victims and results, and wear
counts. Only tests and benchmarks use it.
"""

import types
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import FlashError, FTLError
from repro.flash.array import PhysicalPageAddress
from repro.flash.ecc import ECCStatus, decode_word, encode_word
from repro.ftl.allocator import PageAllocator
from repro.ftl.gc import GCResult
from repro.ftl.wear import BlockKey


def encode_page(data: bytes) -> bytes:
    """Spare-area parity bytes for a page, one ``encode_word`` per word."""
    if len(data) % 8:
        raise FlashError("page length must be a multiple of 8 for ECC")
    return bytes(
        encode_word(int.from_bytes(data[i : i + 8], "little"))
        for i in range(0, len(data), 8)
    )


def decode_page(data: bytes, spare: bytes) -> Tuple[bytes, ECCStatus, int]:
    """Verify/correct a page, one ``decode_word`` per word."""
    if len(data) % 8:
        raise FlashError("page length must be a multiple of 8 for ECC")
    if len(spare) != len(data) // 8:
        raise FlashError("spare area size mismatch")
    out = bytearray(data)
    worst = ECCStatus.CLEAN
    corrections = 0
    for i in range(0, len(data), 8):
        word = int.from_bytes(data[i : i + 8], "little")
        result = decode_word(word, spare[i // 8])
        if result.status is ECCStatus.CORRECTED:
            corrections += 1
            out[i : i + 8] = result.word.to_bytes(8, "little")
            if worst is ECCStatus.CLEAN:
                worst = ECCStatus.CORRECTED
        elif result.status is ECCStatus.UNCORRECTABLE:
            worst = ECCStatus.UNCORRECTABLE
    return bytes(out), worst, corrections


class FlatWearTracker:
    """Erase counts in one flat map keyed by the block's 5-tuple."""

    def __init__(self) -> None:
        self.erases: Dict[Tuple[int, int, int, int, int], int] = {}

    def record_erase(self, key) -> None:
        self.erases[key] = self.erases.get(key, 0) + 1

    def erase_count(self, key) -> int:
        return self.erases.get(key, 0)

    @property
    def total_erases(self) -> int:
        return sum(self.erases.values())

    @property
    def max_erases(self) -> int:
        return max(self.erases.values(), default=0)

    def imbalance(self) -> float:
        if not self.erases:
            return 0.0
        mean = self.total_erases / len(self.erases)
        return self.max_erases / mean if mean else 0.0


def scan_pick_block(unit) -> int:
    """Least-worn free block of a write unit, by scanning every free block."""
    if unit.wear is None:
        return unit._free_blocks.pop()
    best_index = min(
        range(len(unit._free_blocks)),
        key=lambda i: (
            unit.wear.erase_count(
                (unit.channel, unit.chip, unit.die, unit.plane, unit._free_blocks[i])
            ),
            -i,  # prefer the natural pop order among equals
        ),
    )
    return unit._free_blocks.pop(best_index)


def scan_pick_channel(allocator) -> int:
    """Largest accumulated deficit wins, lowest channel among equals."""
    for ch in range(allocator.config.channels):
        allocator._deficit[ch] += allocator.shares[ch]
    best = max(
        range(allocator.config.channels), key=lambda ch: (allocator._deficit[ch], -ch)
    )
    allocator._deficit[best] -= 1.0
    return best


class ScanFTL:
    """L2P map and invalid set, on the flat wear map and the scanning picks."""

    def __init__(self, config, skew: float = 0.0) -> None:
        self.config = config
        self.wear = FlatWearTracker()
        self.allocator = PageAllocator(config, skew=skew, wear=self.wear)
        self.allocator._pick_channel = types.MethodType(scan_pick_channel, self.allocator)
        for cursor in self.allocator._cursors:
            for unit in cursor._units:
                unit._pick_block = types.MethodType(scan_pick_block, unit)
        self.map: Dict[int, PhysicalPageAddress] = {}
        self.invalid_pages: Set[PhysicalPageAddress] = set()

    def write(self, lpa: int) -> PhysicalPageAddress:
        if lpa < 0:
            raise FTLError("LPA must be non-negative")
        ppa = self.allocator.allocate()
        old = self.map.get(lpa)
        if old is not None:
            self.invalid_pages.add(old)
        self.map[lpa] = ppa
        return ppa

    def trim(self, lpa: int) -> None:
        ppa = self.map.pop(lpa, None)
        if ppa is None:
            raise FTLError(f"trim of unmapped LPA {lpa}")
        self.invalid_pages.add(ppa)

    def remap_for_gc(self, lpa: int):
        old = self.map[lpa]
        new = self.allocator.allocate()
        self.map[lpa] = new
        self.invalid_pages.add(old)
        return old, new

    def reverse_lookup(self, ppa: PhysicalPageAddress) -> Optional[int]:
        for lpa, mapped in self.map.items():
            if mapped == ppa:
                return lpa
        return None


def regroup(invalid_pages) -> Dict[BlockKey, List[PhysicalPageAddress]]:
    """The invalid set grouped per block, in first-appearance order."""
    groups: Dict[BlockKey, List[PhysicalPageAddress]] = defaultdict(list)
    for ppa in invalid_pages:
        groups[(ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block)].append(ppa)
    return groups


def walk_open_blocks(allocator) -> Set[BlockKey]:
    """Every write point whose current block still has pages to hand out."""
    blocks = set()
    for channel, cursor in enumerate(allocator._cursors):
        for unit in cursor._units:
            if unit._current_block >= 0 and unit._next_page < allocator.config.pages_per_block:
                blocks.add((channel, unit.chip, unit.die, unit.plane, unit._current_block))
    return blocks


def scan_collectible(ftl) -> int:
    """Invalid pages outside the open blocks, by a scan of the invalid set."""
    open_blocks = walk_open_blocks(ftl.allocator)
    return sum(
        1
        for ppa in ftl.invalid_pages
        if (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block) not in open_blocks
    )


class ScanGarbageCollector:
    """Greedy GC over a :class:`ScanFTL`: regroup, walk, scan, every pass."""

    def __init__(self, ftl: ScanFTL, array) -> None:
        self.ftl = ftl
        self.array = array
        self.collections = 0
        self.pages_relocated = 0
        self.last_result: Optional[GCResult] = None

    def pick_victim(self) -> Optional[BlockKey]:
        open_blocks = walk_open_blocks(self.ftl.allocator)
        candidates = {
            key: pages
            for key, pages in regroup(self.ftl.invalid_pages).items()
            if key not in open_blocks
        }
        if not candidates:
            return None

        def score(item):
            key, pages = item
            return (len(pages), -self.ftl.wear.erase_count(key))

        return max(candidates.items(), key=score)[0]

    def collect(self, at_ns: float = 0.0) -> GCResult:
        victim = self.pick_victim()
        if victim is None:
            raise FTLError("no invalid pages: nothing to collect")
        invalid_here = self._invalid_pages_in(victim)
        relocated = 0
        now = at_ns
        for ppa, lpa in self._valid_pages_in(victim, invalid_here):
            now = self._relocate(ppa, lpa, now)
            relocated += 1
        return self._finish(victim, invalid_here, relocated, now)

    def collect_process(self, sim, at_ns: float = 0.0):
        victim = self.pick_victim()
        if victim is None:
            raise FTLError("no invalid pages: nothing to collect")
        yield sim.wait_until(at_ns)
        invalid_here = self._invalid_pages_in(victim)
        relocated = 0
        now = sim.now
        for ppa, lpa in self._valid_pages_in(victim, invalid_here):
            now = self._relocate(ppa, lpa, now)
            relocated += 1
            yield sim.wait_until(now)
        self._finish(victim, invalid_here, relocated, now)

    def _invalid_pages_in(self, victim: BlockKey) -> Set[int]:
        return {
            ppa.page
            for ppa in self.ftl.invalid_pages
            if (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block) == victim
        }

    def _valid_pages_in(self, victim: BlockKey, invalid_here):
        for page in range(self.ftl.config.pages_per_block):
            if page in invalid_here:
                continue
            ppa = PhysicalPageAddress(*victim, page)
            lpa = self.ftl.reverse_lookup(ppa)
            if lpa is not None:
                yield ppa, lpa

    def _relocate(self, ppa, lpa: int, now: float) -> float:
        read = self.array.service_read(ppa, now)
        _, new_ppa = self.ftl.remap_for_gc(lpa)
        return self.array.service_write(new_ppa, read.done_ns).array_done_ns

    def _finish(self, victim: BlockKey, invalid_here, relocated: int, now: float) -> GCResult:
        erase_ppa = PhysicalPageAddress(*victim, 0)
        done = self.array.erase(erase_ppa, now)
        self.ftl.wear.record_erase(victim)
        self.ftl.invalid_pages.difference_update(
            {
                ppa
                for ppa in set(self.ftl.invalid_pages)
                if (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block) == victim
            }
        )
        self.ftl.allocator.free_block(erase_ppa)
        self.collections += 1
        self.pages_relocated += relocated
        self.last_result = GCResult(victim, relocated, len(invalid_here), done)
        return self.last_result
