"""The full flash array: channels x chips, with timed page service.

Physical page addresses decompose hierarchically (channel, chip, die,
plane, block, page). A read occupies the die for tR, then the page streams
over the channel bus; a write streams over the bus first and then programs
the die. The per-channel controllers in :mod:`repro.ssd` issue requests;
this module owns the raw timing.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.config import FlashConfig
from repro.errors import FlashError
from repro.flash.channel import ChannelBus
from repro.flash.chip import FlashChip
from repro.sim import as_ns

#: Service records are built with ``tuple.__new__``: the same object the
#: class call returns, without the NamedTuple ``__new__`` frame.
_tuple_new = tuple.__new__


class PhysicalPageAddress(NamedTuple):
    """A fully decomposed flash page location.

    A named tuple: it hashes and orders by its fields, and building one on
    the write path costs about a third of a frozen dataclass. ``ppa[:5]``
    is the (channel, chip, die, plane, block) key of its block.
    """

    channel: int
    chip: int
    die: int
    plane: int
    block: int
    page: int

    def flat_index(self, config: FlashConfig) -> int:
        """Linearise to a unique page number within the array."""
        c = self
        idx = c.channel
        idx = idx * config.chips_per_channel + c.chip
        idx = idx * config.dies_per_chip + c.die
        idx = idx * config.planes_per_die + c.plane
        idx = idx * config.blocks_per_plane + c.block
        idx = idx * config.pages_per_block + c.page
        return idx

    @classmethod
    def from_flat(cls, index: int, config: FlashConfig) -> "PhysicalPageAddress":
        if not 0 <= index < config.total_pages:
            raise FlashError(f"flat page index {index} outside array of {config.total_pages}")
        index, page = divmod(index, config.pages_per_block)
        index, block = divmod(index, config.blocks_per_plane)
        index, plane = divmod(index, config.planes_per_die)
        index, die = divmod(index, config.dies_per_chip)
        channel, chip = divmod(index, config.chips_per_channel)
        return cls(channel, chip, die, plane, block, page)


class ServiceRecord(NamedTuple):
    """Timing of one serviced page operation (integer ns on the sim clock)."""

    ppa: PhysicalPageAddress
    issue_ns: int
    array_done_ns: int  # die operation complete
    done_ns: int  # data fully transferred (read) or programmed (write)


class FlashArray:
    """All channels and chips of the SSD's flash."""

    def __init__(self, config: FlashConfig, telemetry=None) -> None:
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.config = config
        self.chips: List[List[FlashChip]] = [
            [FlashChip(config, ch, i) for i in range(config.chips_per_channel)]
            for ch in range(config.channels)
        ]
        self.channels: List[ChannelBus] = [
            ChannelBus(config, ch, telemetry=telemetry) for ch in range(config.channels)
        ]
        self._reads = telemetry.counters.counter("flash.reads_served")
        self._writes = telemetry.counters.counter("flash.writes_served")

    @property
    def reads_served(self) -> int:
        return int(self._reads.value)

    @property
    def writes_served(self) -> int:
        return int(self._writes.value)

    def _chip(self, channel: int, chip: int) -> FlashChip:
        if not 0 <= channel < self.config.channels:
            raise FlashError(f"channel {channel} outside array")
        if not 0 <= chip < self.config.chips_per_channel:
            raise FlashError(f"chip {chip} outside channel")
        return self.chips[channel][chip]

    # The service calls unpack the address once: one tuple unpack costs
    # less than reading its named fields one by one. An int issue time is
    # already on the clock; only other values are rounded.

    def service_read(self, ppa: PhysicalPageAddress, issue_ns) -> ServiceRecord:
        """Read one page: die tR, then the channel transfer."""
        channel, chip, die, plane, block, page = ppa
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        array_done = self._chip(channel, chip).start_read(die, plane, block, page, issue)
        done = self.channels[channel].transfer(self.config.page_bytes, array_done)
        self._reads.inc()
        return _tuple_new(ServiceRecord, (ppa, issue, array_done, done))

    def service_write(
        self, ppa: PhysicalPageAddress, issue_ns, data: Optional[bytes] = None
    ) -> ServiceRecord:
        """Write one page: channel transfer into the register, then program."""
        channel, chip_id, die, plane, block, page = ppa
        chip = self._chip(channel, chip_id)
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        # Check first: a rejected program must book neither bus nor plane.
        chip.check_program(die, plane, block, page, data)
        transferred = self.channels[channel].transfer(self.config.page_bytes, issue)
        done = chip.book_program(die, plane, block, page, transferred, data)
        self._writes.inc()
        return _tuple_new(ServiceRecord, (ppa, issue, transferred, done))

    def erase(self, ppa: PhysicalPageAddress, issue_ns) -> int:
        """Erase the block containing ``ppa``."""
        channel, chip, die, plane, block, _ = ppa
        return self._chip(channel, chip).erase_block(die, plane, block, issue_ns)

    def reset_timelines(self) -> None:
        """Rewind every bus and plane lane (manufacturing-state preloads)."""
        for bus in self.channels:
            bus.reset_timeline()
        for row in self.chips:
            for chip in row:
                chip.reset_timelines()

    # -- observability -----------------------------------------------------------

    def channel_bytes(self) -> List[int]:
        return [bus.bytes_transferred for bus in self.channels]

    def channel_utilisations(self, until_ns: float) -> List[float]:
        return [bus.utilisation(until_ns) for bus in self.channels]

    @property
    def horizon_ns(self) -> int:
        """Latest completion time across all channel buses."""
        return max((bus.free_at_ns for bus in self.channels), default=0)
