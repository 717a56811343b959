"""Physical page allocation with channel striping and a skew knob.

Normal operation stripes consecutive writes across channels and chips to
maximise parallelism (what lets Figure 18 show balanced channels). The
``skew`` parameter (paper Section VI-E) biases placement toward channel 0:

    Skew = (max_i(D_i) / avg(D_i) - 1) / (n - 1)  in [0, 1]

0 is an even layout; 1 places everything on one channel.
"""

from __future__ import annotations

from operator import add
from typing import List, Optional, Set

from repro.config import FlashConfig
from repro.errors import FTLError
from repro.flash.array import PhysicalPageAddress
from repro.ftl.wear import BlockKey


def skew_shares(channels: int, skew: float) -> List[float]:
    """Per-channel data share for a given skew value.

    Channel 0 receives ``avg * (1 + skew*(n-1))``; the remainder spreads
    evenly over the other channels. skew=0 -> uniform; skew=1 -> all on
    channel 0.
    """
    if not 0.0 <= skew <= 1.0:
        raise FTLError("skew must be within [0, 1]")
    if channels == 1:
        return [1.0]
    heavy = (1.0 + skew * (channels - 1)) / channels
    rest = (1.0 - heavy) / (channels - 1)
    return [heavy] + [rest] * (channels - 1)


def measured_skew(channel_bytes: List[float]) -> float:
    """Invert the share formula from an observed distribution."""
    n = len(channel_bytes)
    total = sum(channel_bytes)
    if n <= 1 or total <= 0:
        return 0.0
    avg = total / n
    return (max(channel_bytes) / avg - 1.0) / (n - 1)


class PageAllocator:
    """Hands out physical pages channel by channel, wear-aware.

    Within a channel, pages are taken from per-chip/die/plane write points
    in round-robin; when a write point opens a new block it picks the
    least-erased free block (wear leveling). A block is only reused after
    the garbage collector erases it.

    The write points keep :meth:`open_blocks` current as they open, fill
    and retire blocks. A block whose last page has been handed out is
    closed, even while it is still its unit's current block.
    """

    def __init__(self, config: FlashConfig, skew: float = 0.0, wear=None) -> None:
        self.config = config
        self.shares = skew_shares(config.channels, skew)
        self.wear = wear
        self._deficit: List[float] = [0.0] * config.channels
        self._open: Set[BlockKey] = set()
        self._cursors: List[_ChannelCursor] = [
            _ChannelCursor(config, ch, wear, self._open) for ch in range(config.channels)
        ]
        self.allocated = 0
        self.retired_blocks: set = set()

    def _pick_channel(self) -> int:
        """Weighted round-robin by share (largest accumulated deficit wins;
        the lowest channel among equals)."""
        deficit = self._deficit
        deficit[:] = map(add, deficit, self.shares)
        best = deficit.index(max(deficit))
        deficit[best] -= 1.0
        return best

    def allocate(self) -> PhysicalPageAddress:
        """Allocate the next physical page according to the share policy."""
        first_error = None
        for _ in range(self.config.channels):
            channel = self._pick_channel()
            try:
                ppa = self._cursors[channel].next_page()
            except FTLError as exc:
                first_error = exc
                continue
            self.allocated += 1
            return ppa
        raise first_error or FTLError("flash array is full")

    def free_block(self, ppa: PhysicalPageAddress) -> None:
        """Return an erased block to its channel's free pool (GC path)."""
        self._cursors[ppa.channel].release_block(ppa)

    def retire_block(self, ppa: PhysicalPageAddress) -> bool:
        """Permanently remove a block from service (grown bad block).

        A retired block is dropped from its unit's free pool, closed if it
        was the open write point, and can never be resurrected by
        :meth:`free_block`. Returns True the first time the block is
        retired, False if it already was.
        """
        key = (ppa.channel, ppa.chip, ppa.die, ppa.plane, ppa.block)
        if key in self.retired_blocks:
            return False
        self.retired_blocks.add(key)
        self._cursors[ppa.channel].retire_block(ppa)
        return True

    def open_blocks(self) -> Set[BlockKey]:
        """Blocks with pages still to hand out (GC must skip them).

        The live set the write points maintain: read it, do not mutate it.
        """
        return self._open


class _ChannelCursor:
    """Round-robin write points across a channel's chips/dies/planes."""

    def __init__(
        self, config: FlashConfig, channel: int, wear, open_blocks: Set[BlockKey]
    ) -> None:
        self.config = config
        self.channel = channel
        self._units: List[_UnitCursor] = []
        for chip in range(config.chips_per_channel):
            for die in range(config.dies_per_chip):
                for plane in range(config.planes_per_die):
                    self._units.append(
                        _UnitCursor(config, channel, chip, die, plane, wear, open_blocks)
                    )
        self._rr = 0

    def next_page(self) -> PhysicalPageAddress:
        for _ in range(len(self._units)):
            unit = self._units[self._rr]
            self._rr = (self._rr + 1) % len(self._units)
            page = unit.next_page()
            if page is not None:
                return page
        raise FTLError(f"channel {self.channel} has no free pages")

    def release_block(self, ppa: PhysicalPageAddress) -> None:
        for unit in self._units:
            if (unit.chip, unit.die, unit.plane) == (ppa.chip, ppa.die, ppa.plane):
                unit.release_block(ppa.block)
                return
        raise FTLError("release_block: unit not found")

    def retire_block(self, ppa: PhysicalPageAddress) -> None:
        for unit in self._units:
            if (unit.chip, unit.die, unit.plane) == (ppa.chip, ppa.die, ppa.plane):
                unit.retire_block(ppa.block)
                return
        raise FTLError("retire_block: unit not found")


class _UnitCursor:
    """Write point within one (chip, die, plane).

    Adds its current block to ``open_blocks`` when it opens it, and removes
    it when the last page is handed out or the block is retired.
    """

    def __init__(
        self,
        config: FlashConfig,
        channel: int,
        chip: int,
        die: int,
        plane: int,
        wear=None,
        open_blocks: Optional[Set[BlockKey]] = None,
    ):
        self.config = config
        self.channel = channel
        self.chip = chip
        self.die = die
        self.plane = plane
        self.wear = wear
        self._open: Set[BlockKey] = set() if open_blocks is None else open_blocks
        self._free_blocks = list(range(config.blocks_per_plane - 1, -1, -1))
        self._retired: set = set()
        self._current_block: int = -1
        self._next_page = config.pages_per_block  # forces opening a block

    def _pick_block(self) -> int:
        """Open the least-worn free block (wear leveling).

        Among equally worn blocks the last one in the free list wins (the
        natural pop order). A unit with no erases has every block at 0.
        """
        free = self._free_blocks
        counts = None
        if self.wear is not None:
            counts = self.wear.units.get((self.channel, self.chip, self.die, self.plane))
        if not counts:
            return free.pop()
        erases = [counts.get(block, 0) for block in reversed(free)]
        return free.pop(len(free) - 1 - erases.index(min(erases)))

    def _key(self, block: int) -> BlockKey:
        return (self.channel, self.chip, self.die, self.plane, block)

    def next_page(self):
        pages = self.config.pages_per_block
        if self._next_page >= pages:
            if not self._free_blocks:
                return None
            self._current_block = self._pick_block()
            self._next_page = 0
            self._open.add(self._key(self._current_block))
        page = self._next_page
        ppa = PhysicalPageAddress(
            self.channel, self.chip, self.die, self.plane, self._current_block, page
        )
        self._next_page = page + 1
        if page + 1 == pages:
            self._open.discard(ppa[:5])  # full: closed from now on
        return ppa

    def release_block(self, block: int) -> None:
        if block == self._current_block:
            if self._next_page < self.config.pages_per_block:
                raise FTLError("cannot release the open write block")
            self._current_block = -1  # full, so closed: the next page opens a fresh one
        if block in self._retired:
            return  # grown bad blocks never rejoin the pool
        self._free_blocks.insert(0, block)

    def retire_block(self, block: int) -> None:
        self._retired.add(block)
        if block in self._free_blocks:
            self._free_blocks.remove(block)
        if block == self._current_block:
            # Close the write point; the next allocation opens a fresh block.
            self._open.discard(self._key(block))
            self._current_block = -1
            self._next_page = self.config.pages_per_block
