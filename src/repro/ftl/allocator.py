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
from repro.ftl.wear import BlockKey, UnitKey

#: Pages are built with ``tuple.__new__``: the same object the class call
#: returns, without the NamedTuple ``__new__`` frame.
_tuple_new = tuple.__new__


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


#: Channel picks worked out at a time; the first batch also looks for
#: the picks' cycle (:meth:`PageAllocator._more_picks`).
PICK_CHUNK = 256


class PageAllocator:
    """Hands out physical pages channel by channel, wear-aware.

    Within a channel, pages are taken from per-chip/die/plane write points
    in round-robin; when a write point opens a new block it picks the
    least-erased free block (wear leveling). A block is only reused after
    the garbage collector erases it.

    The write points are flat state, one entry per (channel, chip, die,
    plane) unit, channel-major: the unit's free blocks, its current
    block's key, and the next page to hand out. Each channel keeps a
    round-robin cursor over its units. :meth:`allocate` reads them
    directly.

    The write points keep :meth:`open_blocks` current as they open, fill
    and retire blocks. A block whose last page has been handed out is
    closed, even while it is still its unit's current block.
    """

    def __init__(self, config: FlashConfig, skew: float = 0.0, wear=None) -> None:
        self.config = config
        self.shares = skew_shares(config.channels, skew)
        self.wear = wear
        self._open: Set[BlockKey] = set()
        self._attempts = range(config.channels)
        self._pages = config.pages_per_block
        #: ``(page,)`` for every page number: a page address is its block's
        #: key plus one of these.
        self._page_suffix = [(page,) for page in range(config.pages_per_block)]
        #: The channel deficits, the picks worked out from them and the
        #: index of the next one, and whether those picks are a cycle.
        self._deficit: List[float] = [0.0] * config.channels
        self._picks: List[int] = []
        self._pick = 0
        self._cycle = False
        span = config.chips_per_channel * config.dies_per_chip * config.planes_per_die
        self._span = span
        self._units: List[UnitKey] = [
            (channel, chip, die, plane)
            for channel in range(config.channels)
            for chip in range(config.chips_per_channel)
            for die in range(config.dies_per_chip)
            for plane in range(config.planes_per_die)
        ]
        units = len(self._units)
        self._free: List[List[int]] = [
            list(range(config.blocks_per_plane - 1, -1, -1)) for _ in range(units)
        ]
        self._retired: List[Set[int]] = [set() for _ in range(units)]
        self._block_key: List[Optional[BlockKey]] = [None] * units
        self._next: List[int] = [config.pages_per_block] * units  # forces opening a block
        #: Each channel's round-robin cursor (a unit number), and the unit
        #: after each unit in its channel's round.
        self._cursor: List[int] = [channel * span for channel in range(config.channels)]
        self._after: List[int] = [
            unit + 1 if (unit + 1) % span else unit + 1 - span for unit in range(units)
        ]
        self.allocated = 0
        self.retired_blocks: set = set()

    def allocate(self) -> PhysicalPageAddress:
        """Allocate the next physical page according to the share policy.

        The channel is a weighted round-robin by share (see
        :meth:`_more_picks`). A channel with no free page costs a pick, and
        the next pick is tried, up to one per channel.
        """
        picks, pick = self._picks, self._pick
        pages, cursors, next_page = self._pages, self._cursor, self._next
        for _ in self._attempts:
            try:
                channel = picks[pick]
            except IndexError:
                self._more_picks()
                picks, pick = self._picks, 0
                channel = picks[0]
            pick += 1
            unit = cursors[channel]
            page = next_page[unit]
            if page < pages:
                cursors[channel] = self._after[unit]
            else:
                unit = self._open_next(channel)
                if unit < 0:
                    continue
                page = next_page[unit]
            self._pick = pick
            next_page[unit] = page + 1
            key = self._block_key[unit]
            if page + 1 == pages:
                self._open.discard(key)  # full: closed from now on
            self.allocated += 1
            return _tuple_new(PhysicalPageAddress, key + self._page_suffix[page])
        self._pick = pick
        raise FTLError(f"channel {channel} has no free pages")

    def _more_picks(self) -> None:
        """Work out the next channel picks into ``_picks`` and restart at 0.

        Each pick adds every channel's share to its deficit; the largest
        deficit wins (the lowest channel among equals) and gives up 1.0.
        The picks follow from the deficits alone, so once the deficits are
        all back at zero the picks so far repeat for ever. With shares that
        are short binary fractions, such as the even split over a
        power-of-two channel count, that happens within a few rounds: the
        first batch, which starts from zero deficits, stops there and keeps
        its picks as the cycle. Otherwise each call works out the next
        :data:`PICK_CHUNK` picks.
        """
        self._pick = 0
        if self._cycle:
            return
        deficit, shares = self._deficit, self.shares
        first = not self._picks
        picks = self._picks = []
        for _ in range(PICK_CHUNK):
            deficit[:] = map(add, deficit, shares)
            best = deficit.index(max(deficit))
            deficit[best] -= 1.0
            picks.append(best)
            if first and not any(deficit):
                # Repeated to a batch's length, the cycle is still one.
                picks *= -(-PICK_CHUNK // len(picks))
                self._cycle = True
                return

    def _open_next(self, channel: int) -> int:
        """Advance the channel's cursor to the first unit with a page left,
        opening a fresh block where the current one is used up; -1 if none."""
        pages, after = self._pages, self._after
        unit = self._cursor[channel]
        for _ in range(self._span):
            following = after[unit]
            if self._next[unit] < pages:
                self._cursor[channel] = following
                return unit
            if self._free[unit]:
                self._cursor[channel] = following
                block = self._pick_block(unit)
                key = self._units[unit] + (block,)
                self._block_key[unit] = key
                self._next[unit] = 0
                self._open.add(key)
                return unit
            unit = following
        return -1

    def _pick_block(self, unit: int) -> int:
        """Open the least-worn free block of ``unit`` (wear leveling).

        Among equally worn blocks the last one in the free list wins (the
        natural pop order). A unit with no erases has every block at 0.
        """
        free = self._free[unit]
        counts = None
        if self.wear is not None:
            counts = self.wear.units.get(self._units[unit])
        if not counts:
            return free.pop()
        erases = [counts.get(block, 0) for block in reversed(free)]
        return free.pop(len(free) - 1 - erases.index(min(erases)))

    def allocate_many(self, count: int) -> List[PhysicalPageAddress]:
        """:meth:`allocate` ``count`` times: all the pages, or none.

        A request that does not fit raises :class:`FTLError` with the
        allocator as it was. The free pages are counted first; when a
        channel has fewer free pages than the request, the share policy
        may still run a pick into full channels only, so the write points
        are saved and restored on failure.
        """
        pages, span = self._pages, self._span
        per_unit = [
            len(free) * pages + max(0, pages - page) for free, page in zip(self._free, self._next)
        ]
        free = sum(per_unit)
        if count > free:
            raise FTLError(f"mount of {count} pages does not fit: {free} pages are free")
        least = min(sum(per_unit[unit:unit + span]) for unit in range(0, len(per_unit), span))
        saved = self._save() if count > least else None
        allocate = self.allocate
        try:
            return [allocate() for _ in range(count)]
        except FTLError as exc:
            self._restore(saved)
            raise FTLError(
                f"mount of {count} pages does not fit the placement: {exc} "
                f"({free} pages are free)"
            ) from None

    def _save(self):
        # A batch of picks is never changed, only replaced: keep the list.
        return (
            self._deficit[:], self._picks, self._pick, self._cycle,
            self._cursor[:], self._next[:], self._block_key[:],
            [free[:] for free in self._free], set(self._open), self.allocated,
        )

    def _restore(self, saved) -> None:
        (deficit, picks, pick, cycle,
         cursor, next_page, block_key, free, open_blocks, allocated) = saved
        self._deficit[:] = deficit
        self._picks, self._pick, self._cycle = picks, pick, cycle
        self._cursor[:] = cursor
        self._next[:] = next_page
        self._block_key[:] = block_key
        self._free[:] = free
        self._open.clear()
        self._open.update(open_blocks)
        self.allocated = allocated

    def _unit_of(self, ppa: PhysicalPageAddress) -> int:
        c = self.config
        channel, chip, die, plane = ppa[:4]
        if not (
            0 <= channel < c.channels and 0 <= chip < c.chips_per_channel
            and 0 <= die < c.dies_per_chip and 0 <= plane < c.planes_per_die
        ):
            raise FTLError(f"no write point for {ppa!r}")
        return ((channel * c.chips_per_channel + chip) * c.dies_per_chip + die) \
            * c.planes_per_die + plane

    def free_block(self, ppa: PhysicalPageAddress) -> None:
        """Return an erased block to its unit's free pool (GC path)."""
        unit = self._unit_of(ppa)
        block = ppa.block
        if self._block_key[unit] == ppa[:5]:
            if self._next[unit] < self._pages:
                raise FTLError("cannot release the open write block")
            # Full, so closed: the next page opens a fresh one.
            self._block_key[unit] = None
        if block in self._retired[unit]:
            return  # grown bad blocks never rejoin the pool
        self._free[unit].insert(0, block)

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
        unit = self._unit_of(ppa)
        block = ppa.block
        self._retired[unit].add(block)
        free = self._free[unit]
        if block in free:
            free.remove(block)
        if self._block_key[unit] == key:
            # Close the write point; the next allocation opens a fresh block.
            self._open.discard(key)
            self._block_key[unit] = None
            self._next[unit] = self._pages
        return True

    def open_blocks(self) -> Set[BlockKey]:
        """Blocks with pages still to hand out (GC must skip them).

        The live set the write points maintain: read it, do not mutate it.
        """
        return self._open
