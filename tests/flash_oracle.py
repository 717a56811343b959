"""Per-word, per-block and per-lane oracles for the flash page path.

:func:`encode_page` / :func:`decode_page` run the SECDED page codec one
64-bit word at a time through the spec functions
:func:`repro.flash.ecc.encode_word` / :func:`repro.flash.ecc.decode_word`,
the loops every spare area was computed with before the byte-lane codec.
:func:`scan_pick_block` is the wear-levelling block pick as a full scan
(one ``erase_count`` lookup per free block), and :class:`FlatWearTracker`
keeps erase counts in one flat ``{(channel, chip, die, plane, block):
erases}`` map. :func:`scan_pick_channel` is the weighted channel pick as
a ``max`` over channels with a key function. :class:`ChainAllocator` is
the allocator as a chain of objects, a cursor per channel over a write
point object per unit, on those two picks or on the production ones
(:func:`deficit_pick_channel`, :func:`unit_pick_block`). :class:`ScanFTL`
is the page-mapped FTL on all three, with no per-block state: an L2P map
and an invalid set, so reverse lookups scan the map.
:class:`ScanGarbageCollector` answers every GC question by a scan: it
regroups the invalid set per block (:func:`regroup`), walks every write
point for the open blocks (:func:`walk_open_blocks`) and scans the
invalid set again for the victim's pages; :func:`scan_collectible` is the
collectible count by the same scans.

:class:`LaneFlashArray` is the timed page path and the page rules as
objects: a :class:`LaneChip` per chip keeps its pages' state, bytes and
spare-area ECC in its own dicts and its plane lanes as two
:class:`repro.sim.PooledResource` pools, each channel is a
:class:`ChannelBus` on a backfilling :class:`repro.sim.FifoResource` that
increments registry counters per transfer, and a page read or program is
a chain of calls through them.

The differential suite and the flash speed benchmark run the same pages,
write sequences and page operations through these and through
:mod:`repro.flash` and :mod:`repro.ftl`, and demand identical spare bytes,
decoded pages, PPA streams, GC victims and results, wear counts, service
records, stored pages, lane and bus state and counters. Only tests and
benchmarks use it.
"""

import enum
from collections import defaultdict
from operator import add
from typing import Dict, List, Optional, Set, Tuple

from repro.config import FlashConfig
from repro.errors import FlashError, FTLError
from repro.flash import ecc
from repro.flash.array import PhysicalPageAddress, PlaneLanes, ServiceRecord, plane_latencies
from repro.flash.ecc import ECCStatus, decode_word, encode_word
from repro.ftl.allocator import PageAllocator, skew_shares
from repro.ftl.gc import GCResult
from repro.ftl.wear import BlockKey
from repro.sim import FifoResource, PooledResource, as_ns


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


def deficit_pick_channel(allocator) -> int:
    """The weighted channel pick as the production allocator makes it:
    the deficits advanced in one ``map``, the first maximum wins."""
    deficit = allocator._deficit
    deficit[:] = map(add, deficit, allocator.shares)
    best = deficit.index(max(deficit))
    deficit[best] -= 1.0
    return best


def unit_pick_block(unit) -> int:
    """The block pick as the production allocator makes it, from the
    unit's erase counts in a :class:`~repro.ftl.WearTracker`."""
    free = unit._free_blocks
    counts = None
    if unit.wear is not None:
        counts = unit.wear.units.get((unit.channel, unit.chip, unit.die, unit.plane))
    if not counts:
        return free.pop()
    erases = [counts.get(block, 0) for block in reversed(free)]
    return free.pop(len(free) - 1 - erases.index(min(erases)))


def scan_pick_channel(allocator) -> int:
    """Largest accumulated deficit wins, lowest channel among equals."""
    for ch in range(allocator.config.channels):
        allocator._deficit[ch] += allocator.shares[ch]
    best = max(
        range(allocator.config.channels), key=lambda ch: (allocator._deficit[ch], -ch)
    )
    allocator._deficit[best] -= 1.0
    return best


class ChainAllocator:
    """The page allocator as objects: a cursor per channel over a write
    point per unit. The channel and block picks are the scanning ones
    unless others are given."""

    def __init__(
        self,
        config: FlashConfig,
        skew: float = 0.0,
        wear=None,
        pick_channel=scan_pick_channel,
        pick_block=scan_pick_block,
    ) -> None:
        self.config = config
        self.shares = skew_shares(config.channels, skew)
        self.wear = wear
        self._deficit: List[float] = [0.0] * config.channels
        self._open: Set[BlockKey] = set()
        self._pick_channel = pick_channel
        self._cursors = [
            ChannelCursor(config, ch, wear, self._open, pick_block)
            for ch in range(config.channels)
        ]
        self.allocated = 0
        self.retired_blocks: set = set()

    def allocate(self) -> PhysicalPageAddress:
        first_error = None
        for _ in range(self.config.channels):
            channel = self._pick_channel(self)
            try:
                ppa = self._cursors[channel].next_page()
            except FTLError as exc:
                first_error = exc
                continue
            self.allocated += 1
            return ppa
        raise first_error or FTLError("flash array is full")

    def free_block(self, ppa: PhysicalPageAddress) -> None:
        self._cursors[ppa.channel].unit(ppa).release_block(ppa.block)

    def retire_block(self, ppa: PhysicalPageAddress) -> bool:
        key = (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block)
        if key in self.retired_blocks:
            return False
        self.retired_blocks.add(key)
        self._cursors[ppa.channel].unit(ppa).retire_block(ppa.block)
        return True

    def open_blocks(self) -> Set[BlockKey]:
        return self._open


class ChannelCursor:
    """Round-robin write points across a channel's chips/dies/planes."""

    def __init__(self, config: FlashConfig, channel: int, wear, open_blocks, pick_block) -> None:
        self.channel = channel
        self._units = [
            UnitCursor(config, channel, chip, die, plane, wear, open_blocks, pick_block)
            for chip in range(config.chips_per_channel)
            for die in range(config.dies_per_chip)
            for plane in range(config.planes_per_die)
        ]
        self._rr = 0

    def next_page(self) -> PhysicalPageAddress:
        for _ in range(len(self._units)):
            unit = self._units[self._rr]
            self._rr = (self._rr + 1) % len(self._units)
            page = unit.next_page()
            if page is not None:
                return page
        raise FTLError(f"channel {self.channel} has no free pages")

    def unit(self, ppa: PhysicalPageAddress) -> "UnitCursor":
        for unit in self._units:
            if (unit.chip, unit.die, unit.plane) == (ppa.chip, ppa.die, ppa.plane):
                return unit
        raise FTLError("unit not found")


class UnitCursor:
    """Write point within one (chip, die, plane)."""

    def __init__(self, config, channel, chip, die, plane, wear=None, open_blocks=None,
                 pick_block=scan_pick_block):
        self.config = config
        self._pick_block = pick_block
        self.channel = channel
        self.chip = chip
        self.die = die
        self.plane = plane
        self.wear = wear
        self._open = set() if open_blocks is None else open_blocks
        self._free_blocks = list(range(config.blocks_per_plane - 1, -1, -1))
        self._retired: set = set()
        self._current_block = -1
        self._next_page = config.pages_per_block  # forces opening a block

    def _key(self, block: int) -> BlockKey:
        return (self.channel, self.chip, self.die, self.plane, block)

    def next_page(self):
        pages = self.config.pages_per_block
        if self._next_page >= pages:
            if not self._free_blocks:
                return None
            self._current_block = self._pick_block(self)
            self._next_page = 0
            self._open.add(self._key(self._current_block))
        page = self._next_page
        ppa = PhysicalPageAddress(
            self.channel, self.chip, self.die, self.plane, self._current_block, page
        )
        self._next_page = page + 1
        if page + 1 == pages:
            self._open.discard(ppa[:5])
        return ppa

    def release_block(self, block: int) -> None:
        if block == self._current_block:
            if self._next_page < self.config.pages_per_block:
                raise FTLError("cannot release the open write block")
            self._current_block = -1
        if block in self._retired:
            return
        self._free_blocks.insert(0, block)

    def retire_block(self, block: int) -> None:
        self._retired.add(block)
        if block in self._free_blocks:
            self._free_blocks.remove(block)
        if block == self._current_block:
            self._open.discard(self._key(block))
            self._current_block = -1
            self._next_page = self.config.pages_per_block


class ScanFTL:
    """L2P map and invalid set, on the flat wear map and the scanning picks."""

    def __init__(self, config, skew: float = 0.0) -> None:
        self.config = config
        self.wear = FlatWearTracker()
        self.allocator = ChainAllocator(config, skew=skew, wear=self.wear)
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
    pages = allocator.config.pages_per_block
    if isinstance(allocator, PageAllocator):
        return {
            key
            for key, page in zip(allocator._block_key, allocator._next)
            if key is not None and page < pages
        }
    blocks = set()
    for channel, cursor in enumerate(allocator._cursors):
        for unit in cursor._units:
            if unit._current_block >= 0 and unit._next_page < pages:
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


# -- the timed page path as objects ------------------------------------------------


class PageState(enum.Enum):
    ERASED = "erased"
    PROGRAMMED = "programmed"


class LaneChip:
    """One chip as objects: its pages' state, bytes and spare-area ECC in
    dicts keyed by (die, plane, block, page), as the chip object kept them
    before the array took the page rules over, and its plane lanes as two
    :class:`PooledResource` pools, one unit per plane: reads, and
    programs/erases."""

    def __init__(self, config: FlashConfig, channel: int, index: int) -> None:
        self.config = config
        #: (dies, planes per die, blocks per plane, pages per block).
        self._shape = (
            config.dies_per_chip, config.planes_per_die,
            config.blocks_per_plane, config.pages_per_block,
        )
        self._read_ns, self._program_ns, self._erase_ns = plane_latencies(config)
        # Sparse page state: (die, plane, block, page) -> PageState; absent
        # means erased-from-factory. Contents stored only when provided.
        self._state: Dict[Tuple[int, int, int, int], PageState] = {}
        self._data: Dict[Tuple[int, int, int, int], bytes] = {}
        self._spare: Dict[Tuple[int, int, int, int], bytes] = {}
        self.ecc_corrections = 0
        self.ecc_failures = 0
        units = config.dies_per_chip * config.planes_per_die
        name = f"flash.ch{channel}.chip{index}"
        self._read_lanes = PooledResource(f"{name}.plane_read", units)
        self._write_lanes = PooledResource(f"{name}.plane_write", units)

    def _check(self, die: int, plane: int, block: int, page: int) -> None:
        dies, planes, blocks, pages = self._shape
        if not (
            0 <= die < dies and 0 <= plane < planes
            and 0 <= block < blocks and 0 <= page < pages
        ):
            raise FlashError(
                f"page address (die={die}, plane={plane}, block={block}, page={page}) "
                "outside chip geometry"
            )

    def _unit(self, die: int, plane: int) -> int:
        return die * self.config.planes_per_die + plane

    def check_program(
        self, die: int, plane: int, block: int, page: int, data: Optional[bytes] = None
    ) -> None:
        """Raise :class:`FlashError` unless the page can be programmed with ``data``."""
        self._check(die, plane, block, page)
        key = (die, plane, block, page)
        if self._state.get(key) is PageState.PROGRAMMED:
            raise FlashError(f"program into non-erased page {key} (erase the block first)")
        if data is not None and len(data) > self.config.page_bytes:
            raise FlashError(f"page data of {len(data)}B exceeds page size")

    def start_read(self, die, plane, block, page, at_ns) -> int:
        self._check(die, plane, block, page)
        return self._read_lanes.acquire(at_ns, self._read_ns, self._unit(die, plane)).done_ns

    def store(self, die, plane, block, page, data=None) -> None:
        """Mark the page programmed and keep its contents and spare-area
        ECC, computed over the 8-byte-aligned prefix of the page."""
        key = (die, plane, block, page)
        self._state[key] = PageState.PROGRAMMED
        if data is not None:
            stored = bytes(data)
            self._data[key] = stored
            aligned = stored + b"\x00" * (-len(stored) % 8)
            self._spare[key] = ecc.encode_page(aligned)

    def book_program(self, die, plane, block, page, at_ns, data=None) -> int:
        unit = self._unit(die, plane)
        if at_ns.__class__ is not int:
            at_ns = as_ns(at_ns)
        ready = max(at_ns, self._read_lanes.free_at(unit))
        done = self._write_lanes.acquire(ready, self._program_ns, unit).done_ns
        self.store(die, plane, block, page, data)
        return done

    def erase_block(self, die, plane, block, at_ns) -> int:
        self._check(die, plane, block, 0)
        unit = self._unit(die, plane)
        ready = max(as_ns(at_ns), self._read_lanes.free_at(unit))
        done = self._write_lanes.acquire(ready, self._erase_ns, unit).done_ns
        for page in range(self.config.pages_per_block):
            self._state.pop((die, plane, block, page), None)
            self._data.pop((die, plane, block, page), None)
            self._spare.pop((die, plane, block, page), None)
        return done

    def read_data(self, die: int, plane: int, block: int, page: int) -> Optional[bytes]:
        self._check(die, plane, block, page)
        return self._data.get((die, plane, block, page))

    def overwrite_raw(self, die: int, plane: int, block: int, page: int,
                      data: bytes) -> None:
        self._check(die, plane, block, page)
        key = (die, plane, block, page)
        if key not in self._data:
            raise FlashError(f"cannot overwrite page {key}: never programmed with data")
        if len(data) != len(self._data[key]):
            raise FlashError(
                f"overwrite of {len(data)}B does not match stored {len(self._data[key])}B"
            )
        self._data[key] = bytes(data)

    def read_data_checked(self, die: int, plane: int, block: int, page: int):
        """ECC-checked read: (data, status) after correction; the tallies
        count corrected words and uncorrectable reads."""
        self._check(die, plane, block, page)
        key = (die, plane, block, page)
        raw = self._data.get(key)
        if raw is None:
            return None, ecc.ECCStatus.CLEAN
        spare = self._spare.get(key)
        if spare is None:
            return raw, ecc.ECCStatus.CLEAN
        aligned = raw + b"\x00" * (-len(raw) % 8)
        decoded, status, corrections = ecc.decode_page(aligned, spare)
        self.ecc_corrections += corrections
        if status is ecc.ECCStatus.UNCORRECTABLE:
            self.ecc_failures += 1
        return decoded[: len(raw)], status


class ChannelBus:
    """One channel's bus on a backfilling :class:`FifoResource`; every
    transfer increments its registry counters and calls the tracer."""

    def __init__(self, config: FlashConfig, channel: int, telemetry) -> None:
        self.config = config
        self._track = f"flash/ch{channel}"
        self._bus = FifoResource(self._track, backfill=True)
        self._durations: Dict[int, int] = {}
        self._tracer = telemetry.tracer
        self._bytes = telemetry.counters.counter(f"flash.ch{channel}.bytes")
        self._busy = telemetry.counters.counter(f"flash.ch{channel}.busy_ns")
        self._transfers = telemetry.counters.counter(f"flash.ch{channel}.transfers")

    @property
    def free_at_ns(self) -> int:
        return self._bus.free_at_ns

    @property
    def bytes_transferred(self) -> int:
        return int(self._bytes.value)

    @property
    def busy_ns(self) -> int:
        return self._bus.busy_ns

    def transfer(self, nbytes: int, ready_ns) -> int:
        duration = self._durations.get(nbytes)
        if duration is None:
            if nbytes <= 0:
                raise FlashError("transfer size must be positive")
            duration = as_ns(nbytes / self.config.channel_bandwidth_bytes_per_ns)
            self._durations[nbytes] = duration
        grant = self._bus.acquire(ready_ns, duration)
        self._bytes.inc(nbytes)
        self._busy.inc(duration)
        self._transfers.inc()
        self._tracer.complete(self._track, "xfer", grant.start_ns, grant.done_ns)
        return grant.done_ns

    def utilisation(self, until_ns) -> float:
        return self._bus.utilisation(until_ns)


class LaneFlashArray:
    """The flash array on :class:`LaneChip` lanes and :class:`ChannelBus` buses."""

    def __init__(self, config: FlashConfig, telemetry=None) -> None:
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.config = config
        self.chips = [
            [LaneChip(config, ch, i) for i in range(config.chips_per_channel)]
            for ch in range(config.channels)
        ]
        self.channels = [ChannelBus(config, ch, telemetry) for ch in range(config.channels)]
        self._reads = telemetry.counters.counter("flash.reads_served")
        self._writes = telemetry.counters.counter("flash.writes_served")

    @property
    def reads_served(self) -> int:
        return int(self._reads.value)

    @property
    def writes_served(self) -> int:
        return int(self._writes.value)

    def _chip(self, channel: int, chip: int) -> LaneChip:
        if not 0 <= channel < self.config.channels:
            raise FlashError(f"channel {channel} outside array")
        if not 0 <= chip < self.config.chips_per_channel:
            raise FlashError(f"chip {chip} outside channel")
        return self.chips[channel][chip]

    def service_read(self, ppa, issue_ns) -> ServiceRecord:
        channel, chip, die, plane, block, page = ppa
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        array_done = self._chip(channel, chip).start_read(die, plane, block, page, issue)
        done = self.channels[channel].transfer(self.config.page_bytes, array_done)
        self._reads.inc()
        return ServiceRecord(ppa, issue, array_done, done)

    def service_write(self, ppa, issue_ns, data=None) -> ServiceRecord:
        channel, chip_id, die, plane, block, page = ppa
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        chip = self._chip(channel, chip_id)
        chip.check_program(die, plane, block, page, data)
        transferred = self.channels[channel].transfer(self.config.page_bytes, issue)
        done = chip.book_program(die, plane, block, page, transferred, data)
        self._writes.inc()
        return ServiceRecord(ppa, issue, transferred, done)

    def preload(self, ppa, data) -> None:
        channel, chip_id, die, plane, block, page = ppa
        chip = self._chip(channel, chip_id)
        chip.check_program(die, plane, block, page, data)
        chip.store(die, plane, block, page, data)

    def erase(self, ppa, issue_ns) -> int:
        channel, chip, die, plane, block, _ = ppa
        return self._chip(channel, chip).erase_block(die, plane, block, issue_ns)

    def read_data(self, ppa):
        return self._chip(ppa[0], ppa[1]).read_data(*ppa[2:])

    def read_data_checked(self, ppa):
        return self._chip(ppa[0], ppa[1]).read_data_checked(*ppa[2:])

    def overwrite_raw(self, ppa, data) -> None:
        self._chip(ppa[0], ppa[1]).overwrite_raw(*ppa[2:], data)

    def stored(self, ppa):
        chip = self._chip(ppa[0], ppa[1])
        chip._check(*ppa[2:])
        key = tuple(ppa[2:])
        if chip._state.get(key) is not PageState.PROGRAMMED:
            return None
        return chip._data.get(key), chip._spare.get(key)

    @property
    def ecc_corrections(self) -> int:
        return sum(chip.ecc_corrections for row in self.chips for chip in row)

    @property
    def ecc_failures(self) -> int:
        return sum(chip.ecc_failures for row in self.chips for chip in row)

    def plane_lanes(self, ppa) -> PlaneLanes:
        channel, chip, die, plane = ppa[:4]
        lanes = self._chip(channel, chip)
        lanes._check(die, plane, 0, 0)
        unit = lanes._unit(die, plane)
        return PlaneLanes(
            lanes._read_lanes.free_at(unit), lanes._read_lanes.busy_ns(unit),
            lanes._write_lanes.free_at(unit), lanes._write_lanes.busy_ns(unit),
        )

    def bus_free_at_ns(self, channel: int) -> int:
        return self.channels[channel].free_at_ns

    def bus_busy_ns(self, channel: int) -> int:
        return self.channels[channel].busy_ns

    def channel_bytes(self) -> List[int]:
        return [bus.bytes_transferred for bus in self.channels]

    def channel_utilisations(self, until_ns) -> List[float]:
        return [bus.utilisation(until_ns) for bus in self.channels]

    @property
    def horizon_ns(self) -> int:
        return max((bus.free_at_ns for bus in self.channels), default=0)
