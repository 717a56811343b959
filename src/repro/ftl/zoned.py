"""Zoned-namespace FTL: fixed-size zones over channel/chip-aligned block groups.

The ZNS mode replaces the page-level out-of-place map with the zone model of
NVMe ZNS (and ZCSD, see PAPERS.md): the namespace is an array of fixed-size
zones, each mapped to the same block index across every (die, plane) of one
(channel, chip) — a *block group* that one chip can program in parallel.
Writes are append-only at a per-zone write pointer; the host reclaims space
with whole-zone resets instead of page garbage collection, so the greedy
:class:`~repro.ftl.gc.GarbageCollector` is bypassed entirely and every reset
feeds the shared :class:`~repro.ftl.wear.WearTracker` directly.

Zone state machine (NVMe ZNS section 2.3, trimmed to the states the model
needs)::

    EMPTY --append/open--> OPEN --fill--> FULL
      ^        OPEN --close--> CLOSED --append--> OPEN
      |________ reset (any non-offline state; erases + wears the group)

``max_open_zones`` bounds the number of concurrently OPEN zones, as real
ZNS drives bound active zone resources.

Logical addressing: zone ``z`` owns the LBA range
``[z * zone_pages, (z+1) * zone_pages)``; ``append`` assigns LBAs at the
write pointer and returns the first one, like a ZNS Zone Append completion.
Within a zone, consecutive slots stripe across the group's (die, plane)
units so sequential appends exploit plane parallelism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.config import FlashConfig
from repro.errors import FTLError, ZnsError
from repro.flash.array import PhysicalPageAddress
from repro.ftl.wear import WearTracker

BlockKey = Tuple[int, int, int, int, int]  # (channel, chip, die, plane, block)


class ZoneState(enum.Enum):
    EMPTY = "empty"
    OPEN = "open"
    CLOSED = "closed"
    FULL = "full"
    OFFLINE = "offline"


@dataclass(frozen=True)
class ZoneDescriptor:
    """One entry of a Zone Report."""

    zone_id: int
    state: ZoneState
    slba: int
    capacity: int
    write_pointer: int


class ZonedFTL:
    """Append-only zone mapping with whole-zone reset reclamation.

    Keeps the slices of the :class:`~repro.ftl.mapping.PageMapFTL` surface
    that shared code paths touch (``lookup``/``is_mapped``/``__len__``/
    ``invalid_pages``/``collectible_invalid_pages``/``channel_page_counts``/
    ``wear``), but random writes (``write``/``populate``/``trim``) raise: a
    zoned namespace is sequential-write-only by construction.
    """

    def __init__(self, config: FlashConfig, max_open_zones: int = 8) -> None:
        if max_open_zones <= 0:
            raise ZnsError("max_open_zones must be positive")
        self.config = config
        self.max_open_zones = max_open_zones
        self.wear = WearTracker()
        #: (die, plane) units striped within one zone's block group.
        self.units_per_zone = config.dies_per_chip * config.planes_per_die
        #: Pages per zone (= LBAs per zone).
        self.zone_pages = self.units_per_zone * config.pages_per_block
        self.num_zones = config.channels * config.chips_per_channel * config.blocks_per_plane
        self._state: Dict[int, ZoneState] = {}
        self._wp: Dict[int, int] = {}
        self._open: Set[int] = set()
        self.resets = 0
        self.appends = 0
        #: PageMapFTL compatibility: ZNS mode has no page-GC debt, ever.
        self.updates = 0

    # -- geometry ----------------------------------------------------------------

    def _check_zone(self, zone_id: int) -> None:
        if not 0 <= zone_id < self.num_zones:
            raise ZnsError(f"zone {zone_id} out of range 0..{self.num_zones - 1}")

    def zone_group(self, zone_id: int) -> Tuple[int, int, int]:
        """(channel, chip, block) triple owning ``zone_id``'s block group."""
        self._check_zone(zone_id)
        block = zone_id % self.config.blocks_per_plane
        chip_linear = zone_id // self.config.blocks_per_plane
        chip = chip_linear % self.config.chips_per_channel
        channel = chip_linear // self.config.chips_per_channel
        return channel, chip, block

    def zone_blocks(self, zone_id: int) -> List[BlockKey]:
        """Every physical block of the zone's group."""
        channel, chip, block = self.zone_group(zone_id)
        return [
            (channel, chip, die, plane, block)
            for die in range(self.config.dies_per_chip)
            for plane in range(self.config.planes_per_die)
        ]

    def zone_slba(self, zone_id: int) -> int:
        self._check_zone(zone_id)
        return zone_id * self.zone_pages

    def slot_ppa(self, zone_id: int, slot: int) -> PhysicalPageAddress:
        """Physical page of ``slot`` within the zone (plane-striped)."""
        if not 0 <= slot < self.zone_pages:
            raise ZnsError(f"slot {slot} out of zone capacity {self.zone_pages}")
        channel, chip, block = self.zone_group(zone_id)
        unit = slot % self.units_per_zone
        die, plane = divmod(unit, self.config.planes_per_die)
        return PhysicalPageAddress(
            channel=channel,
            chip=chip,
            die=die,
            plane=plane,
            block=block,
            page=slot // self.units_per_zone,
        )

    # -- state machine -----------------------------------------------------------

    def state(self, zone_id: int) -> ZoneState:
        self._check_zone(zone_id)
        return self._state.get(zone_id, ZoneState.EMPTY)

    def write_pointer(self, zone_id: int) -> int:
        self._check_zone(zone_id)
        return self._wp.get(zone_id, 0)

    @property
    def open_zones(self) -> Set[int]:
        return set(self._open)

    def _make_open(self, zone_id: int) -> None:
        if len(self._open) >= self.max_open_zones:
            raise ZnsError(
                f"open-zone limit {self.max_open_zones} reached "
                f"(open: {sorted(self._open)})"
            )
        self._open.add(zone_id)
        self._state[zone_id] = ZoneState.OPEN

    def open_zone(self, zone_id: int) -> None:
        """Explicit open (EMPTY/CLOSED -> OPEN), bounded by the open limit."""
        state = self.state(zone_id)
        if state is ZoneState.OPEN:
            return
        if state not in (ZoneState.EMPTY, ZoneState.CLOSED):
            raise ZnsError(f"cannot open zone {zone_id} in state {state.value}")
        self._make_open(zone_id)

    def close_zone(self, zone_id: int) -> None:
        """OPEN -> CLOSED, releasing an open-zone resource."""
        if self.state(zone_id) is not ZoneState.OPEN:
            raise ZnsError(f"cannot close zone {zone_id} in state {self.state(zone_id).value}")
        self._open.discard(zone_id)
        self._state[zone_id] = ZoneState.CLOSED

    def offline_zone(self, zone_id: int) -> None:
        """Retire a worn-out zone; it never transitions out again."""
        self._check_zone(zone_id)
        self._open.discard(zone_id)
        self._state[zone_id] = ZoneState.OFFLINE

    def append(self, zone_id: int, npages: int = 1) -> Tuple[int, List[PhysicalPageAddress]]:
        """Zone Append: assign ``npages`` LBAs at the write pointer.

        Returns ``(assigned_lba, ppas)`` — the LBA of the first appended
        page (the ZNS completion value) and the physical pages the firmware
        must program. Implicitly opens an EMPTY/CLOSED zone.
        """
        if npages <= 0:
            raise ZnsError("append needs at least one page")
        state = self.state(zone_id)
        if state in (ZoneState.FULL, ZoneState.OFFLINE):
            raise ZnsError(f"append to zone {zone_id} in state {state.value}")
        if state is not ZoneState.OPEN:
            self._make_open(zone_id)
        wp = self._wp.get(zone_id, 0)
        if wp + npages > self.zone_pages:
            raise ZnsError(
                f"append of {npages} pages past zone {zone_id} capacity "
                f"({wp}/{self.zone_pages})"
            )
        ppas = [self.slot_ppa(zone_id, wp + i) for i in range(npages)]
        self._wp[zone_id] = wp + npages
        self.appends += npages
        if self._wp[zone_id] == self.zone_pages:
            self._open.discard(zone_id)
            self._state[zone_id] = ZoneState.FULL
        return self.zone_slba(zone_id) + wp, ppas

    def reset_zone(self, zone_id: int) -> List[PhysicalPageAddress]:
        """Zone Reset: rewind the write pointer, wear the block group.

        Returns one representative :class:`PhysicalPageAddress` per member
        block for the firmware to time erases against the array. A reset of
        a never-written EMPTY zone is a no-op (no erase, no wear).
        """
        state = self.state(zone_id)
        if state is ZoneState.OFFLINE:
            raise ZnsError(f"reset of offline zone {zone_id}")
        self._open.discard(zone_id)
        self._state[zone_id] = ZoneState.EMPTY
        if self._wp.get(zone_id, 0) == 0:
            # Nothing was programmed since the last erase: no media work.
            return []
        self._wp[zone_id] = 0
        self.resets += 1
        erased: List[PhysicalPageAddress] = []
        for key in self.zone_blocks(zone_id):
            self.wear.record_erase(key)
            channel, chip, die, plane, block = key
            erased.append(
                PhysicalPageAddress(
                    channel=channel, chip=chip, die=die, plane=plane, block=block, page=0
                )
            )
        return erased

    def zone_report(self, first: int = 0, count: Optional[int] = None) -> List[ZoneDescriptor]:
        """Zone Report: descriptors for ``count`` zones starting at ``first``."""
        self._check_zone(first)
        last = self.num_zones if count is None else min(self.num_zones, first + count)
        return [
            ZoneDescriptor(
                zone_id=z,
                state=self.state(z),
                slba=self.zone_slba(z),
                capacity=self.zone_pages,
                write_pointer=self._wp.get(z, 0),
            )
            for z in range(first, last)
        ]

    # -- PageMapFTL-compatible surface ---------------------------------------------

    def lookup(self, lba: int) -> PhysicalPageAddress:
        zone_id, slot = divmod(lba, self.zone_pages)
        if not 0 <= zone_id < self.num_zones or slot >= self._wp.get(zone_id, 0):
            raise FTLError(f"LBA {lba} is unmapped (beyond its zone's write pointer)")
        if self.state(zone_id) is ZoneState.OFFLINE:
            raise FTLError(f"LBA {lba} belongs to offline zone {zone_id}")
        return self.slot_ppa(zone_id, slot)

    def is_mapped(self, lba: int) -> bool:
        zone_id, slot = divmod(lba, self.zone_pages)
        return (
            0 <= zone_id < self.num_zones
            and slot < self._wp.get(zone_id, 0)
            and self.state(zone_id) is not ZoneState.OFFLINE
        )

    def __len__(self) -> int:
        return sum(self._wp.values())

    @property
    def invalid_pages(self) -> Set[PhysicalPageAddress]:
        """ZNS reclaims by zone reset; there is no page-GC debt to collect."""
        return set()

    def collectible_invalid_pages(self) -> int:
        """Nothing for a page collector to reclaim, as for ``invalid_pages``."""
        return 0

    def write(self, lpa: int) -> PhysicalPageAddress:
        raise ZnsError("zoned namespace is append-only; use append(zone_id, npages)")

    def populate(self, lpas: Iterable[int]) -> List[PhysicalPageAddress]:
        raise ZnsError("zoned namespace is append-only; use append(zone_id, npages)")

    def trim(self, lpa: int) -> None:
        raise ZnsError("zoned namespace reclaims whole zones; use reset_zone")

    def channel_page_counts(self, lpas: Optional[Iterable[int]] = None) -> List[int]:
        counts = [0] * self.config.channels
        if lpas is not None:
            for lba in lpas:
                counts[self.lookup(lba).channel] += 1
            return counts
        for zone_id, wp in self._wp.items():
            if wp:
                counts[self.zone_group(zone_id)[0]] += wp
        return counts

