"""The full flash array: channels x chips, with timed page service.

Physical page addresses decompose hierarchically (channel, chip, die,
plane, block, page). A read occupies the plane for tR, then the page
streams over the channel bus; a write streams over the bus first and then
programs the plane. The per-channel controllers in :mod:`repro.ssd` issue
requests; this module owns the raw timing.

The timing state is flat, as MQSim keeps it: every plane's read lane and
program/erase lane is a free-at and a busy-ns int in lists indexed by the
plane's number in the array. Every channel bus is two int lists, the
starts and ends of its busy intervals, kept sorted and coalesced, so the
bus frees at the last end; its transfers serialise (paper Section II-A),
which bounds a channel to its bandwidth and makes the hot-spot of a
skewed layout (Section VI-E). A page read or program unpacks the address
once and books its plane and its channel's bus (one helper, ``_book_bus``,
for both) with no grant object. The page and transfer tallies are plain
ints; the counter registry reads them when it takes a snapshot.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.config import FlashConfig
from repro.errors import ConfigError, FlashError
from repro.flash.chip import FlashChip, plane_latencies
from repro.sim import as_ns
from repro.sim.resources import book_gap, busy_within

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


class PlaneLanes(NamedTuple):
    """One plane's lanes: when each frees and how long it has been busy."""

    read_free_ns: int
    read_busy_ns: int
    program_free_ns: int
    program_busy_ns: int


class FlashArray:
    """All channels and chips of the SSD's flash."""

    def __init__(self, config: FlashConfig, telemetry=None) -> None:
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.config = config
        channels, chips = config.channels, config.chips_per_channel
        per_chip = config.dies_per_chip * config.planes_per_die
        planes = channels * chips * per_chip
        # Plane lanes: free-at and busy ns of every plane's read lane and
        # program/erase lane, indexed by plane number.
        self._read_free = [0] * planes
        self._read_busy = [0] * planes
        self._program_free = [0] * planes
        self._program_busy = [0] * planes
        lanes = (self._read_free, self._read_busy, self._program_free, self._program_busy)
        self.chips: List[List[FlashChip]] = [
            [FlashChip(config, ch, i) for i in range(chips)] for ch in range(channels)
        ]
        self._chip_list = [chip for row in self.chips for chip in row]
        for number, chip in enumerate(self._chip_list):
            chip._attach_lanes(lanes, number * per_chip)
        self._geometry = (
            channels, chips, config.dies_per_chip, config.planes_per_die,
            config.blocks_per_plane, config.pages_per_block,
        )
        self._read_ns = plane_latencies(config)[0]
        # Channel buses: sorted, coalesced busy intervals per channel (the
        # bus frees at the last end), and transfers per channel, in total
        # and at the last rewind. Every transfer moves one page, so bytes
        # and busy time follow from the counts.
        bandwidth = config.channel_bandwidth_bytes_per_ns
        if not bandwidth > 0:
            raise ConfigError(f"channel bandwidth must be positive, got {bandwidth!r}")
        self._xfer_ns = as_ns(config.page_bytes / bandwidth)
        self._bus_starts: List[List[int]] = [[] for _ in range(channels)]
        self._bus_ends: List[List[int]] = [[] for _ in range(channels)]
        self._transfers = [0] * channels
        self._transfers_at_reset = [0] * channels
        self._reads = 0
        self._writes = 0
        self._tracer = telemetry.tracer
        self._tracing = telemetry.tracer.enabled
        self._tracks = [f"flash/ch{ch}" for ch in range(channels)]
        counters = telemetry.counters
        counters.counter_view("flash.reads_served", lambda: self._reads)
        counters.counter_view("flash.writes_served", lambda: self._writes)
        transfers = self._transfers
        per_transfer = (("bytes", config.page_bytes), ("busy_ns", self._xfer_ns), ("transfers", 1))
        for ch in range(channels):
            for name, scale in per_transfer:
                counters.counter_view(
                    f"flash.ch{ch}.{name}", lambda ch=ch, scale=scale: transfers[ch] * scale
                )

    @property
    def reads_served(self) -> int:
        return self._reads

    @property
    def writes_served(self) -> int:
        return self._writes

    def _chip(self, channel: int, chip: int) -> FlashChip:
        channels, chips = self._geometry[:2]
        if not 0 <= channel < channels:
            raise FlashError(f"channel {channel} outside array")
        if not 0 <= chip < chips:
            raise FlashError(f"chip {chip} outside channel")
        return self._chip_list[channel * chips + chip]

    # The service calls unpack the address once. An int issue time is
    # already on the clock; only other values are rounded. A read checks
    # the address in one comparison (a miss raises the chip's error) and
    # indexes its plane's read lane here, the only timed path of a page
    # read; a write checks and programs the page through its chip.

    def service_read(self, ppa: PhysicalPageAddress, issue_ns) -> ServiceRecord:
        """Read one page: plane tR, then the channel transfer."""
        channel, chip, die, plane, block, page = ppa
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        channels, chips, dies, planes, blocks, pages = self._geometry
        if not (
            0 <= channel < channels and 0 <= chip < chips and 0 <= die < dies
            and 0 <= plane < planes and 0 <= block < blocks and 0 <= page < pages
        ):
            self._chip(channel, chip)._check(die, plane, block, page)
        # Reads suspend in-flight programs/erases: queue behind reads only.
        unit = ((channel * chips + chip) * dies + die) * planes + plane
        lane = self._read_free
        free = lane[unit]
        array_done = (issue if issue > free else free) + self._read_ns
        lane[unit] = array_done
        self._read_busy[unit] += self._read_ns
        done = self._book_bus(channel, array_done)
        self._reads += 1
        return _tuple_new(ServiceRecord, (ppa, issue, array_done, done))

    def service_write(
        self, ppa: PhysicalPageAddress, issue_ns, data: Optional[bytes] = None
    ) -> ServiceRecord:
        """Write one page: channel transfer into the register, then program."""
        channel, chip, die, plane, block, page = ppa
        target = self._chip(channel, chip)
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        # Check first: a rejected program must book neither bus nor plane.
        target.check_program(die, plane, block, page, data)
        transferred = self._book_bus(channel, issue)
        done = target.book_program(die, plane, block, page, transferred, data)
        self._writes += 1
        return _tuple_new(ServiceRecord, (ppa, issue, transferred, done))

    def _book_bus(self, channel: int, ready: int) -> int:
        """Book one page transfer on ``channel``'s bus for data ready at
        ``ready``; returns when the transfer ends.

        The transfer takes the tail of the bus's last busy interval unless
        the data is ready before an idle gap: the controller's DMA engine
        serves transfers in readiness order, so a transfer ready early may
        backfill a gap left by one booked further in the future
        (``book_gap``, the host link's discipline too).
        """
        xfer = self._xfer_ns
        starts, ends = self._bus_starts[channel], self._bus_ends[channel]
        if not ends or ready > ends[-1]:
            start = ready if ready > 0 else 0
            starts.append(start)
            ends.append(start + xfer)
        elif ready + xfer > starts[-1] or (
            start := book_gap(starts, ends, ready, xfer)
        ) is None:
            start = ends[-1]
            ends[-1] = start + xfer
        self._transfers[channel] += 1
        done = start + xfer
        if self._tracing:
            self._tracer.complete(self._tracks[channel], "xfer", start, done)
        return done

    def erase(self, ppa: PhysicalPageAddress, issue_ns) -> int:
        """Erase the block containing ``ppa``."""
        channel, chip, die, plane, block, _ = ppa
        return self._chip(channel, chip).erase_block(die, plane, block, issue_ns)

    def reset_timelines(self) -> None:
        """Rewind every bus and plane lane (manufacturing-state preloads).

        Page state stays, and so do the page and transfer totals: only the
        timelines and their busy times forget.
        """
        for lane in (self._read_free, self._read_busy, self._program_free, self._program_busy):
            lane[:] = [0] * len(lane)
        for starts, ends in zip(self._bus_starts, self._bus_ends):
            starts.clear()
            ends.clear()
        self._transfers_at_reset[:] = self._transfers

    # -- observability -----------------------------------------------------------

    def plane_lanes(self, ppa: PhysicalPageAddress) -> PlaneLanes:
        """The lanes of the plane that holds ``ppa``."""
        channel, chip, die, plane = ppa[:4]
        self._chip(channel, chip)._check(die, plane, 0, 0)
        _, chips, dies, planes, _, _ = self._geometry
        unit = ((channel * chips + chip) * dies + die) * planes + plane
        return PlaneLanes(
            self._read_free[unit], self._read_busy[unit],
            self._program_free[unit], self._program_busy[unit],
        )

    def bus_free_at_ns(self, channel: int) -> int:
        """When the channel's bus next frees (integer ns)."""
        ends = self._bus_ends[channel]
        return ends[-1] if ends else 0

    def bus_busy_ns(self, channel: int) -> int:
        """The channel's transfer time since the last rewind."""
        return (self._transfers[channel] - self._transfers_at_reset[channel]) * self._xfer_ns

    def channel_bytes(self) -> List[int]:
        page_bytes = self.config.page_bytes
        return [transfers * page_bytes for transfers in self._transfers]

    def channel_utilisations(self, until_ns: float) -> List[float]:
        """Exact fraction of ``[0, until_ns]`` each bus spent transferring."""
        window = as_ns(until_ns)
        if window <= 0:
            return [0.0] * len(self._bus_ends)
        return [
            busy_within(starts, ends, window) / window
            for starts, ends in zip(self._bus_starts, self._bus_ends)
        ]

    @property
    def horizon_ns(self) -> int:
        """Latest completion time across all channel buses."""
        return max((ends[-1] if ends else 0 for ends in self._bus_ends), default=0)
