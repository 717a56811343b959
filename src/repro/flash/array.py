"""The full flash array: channels x chips, with timed page service.

Physical page addresses decompose hierarchically (channel, chip, die,
plane, block, page). A read occupies the plane for tR, then the page
streams over the channel bus; a write streams over the bus first and then
programs the plane. The per-channel controllers in :mod:`repro.ssd` issue
requests; this module owns the raw timing and every page rule.

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

The page state is keyed by the :class:`PhysicalPageAddress` itself, and
only programmed pages have an entry, so a multi-GiB array costs memory in
proportion to what was written. NAND's rules hold: a page is programmed
only while erased, with data no larger than a page, and an erase clears
its whole block. A page programmed with data keeps its bytes and their
spare-area SECDED parity (:mod:`repro.flash.ecc`), which the ECC-checked
read decodes against.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import FlashConfig
from repro.errors import ConfigError, FlashError
from repro.flash import ecc
from repro.sim import SimTimeError, as_ns
from repro.sim.resources import book_gap, busy_within

#: Service records are built with ``tuple.__new__``: the same object the
#: class call returns, without the NamedTuple ``__new__`` frame.
_tuple_new = tuple.__new__


def plane_latencies(config: FlashConfig) -> Tuple[int, int, int]:
    """tR, tPROG and tBERS as integer ns; a negative one is a :class:`SimTimeError`."""
    latencies = (
        as_ns(config.read_latency_ns),
        as_ns(config.program_latency_ns),
        as_ns(config.erase_latency_ns),
    )
    if min(latencies) < 0:
        raise SimTimeError(f"negative flash latency in (tR, tPROG, tBERS) = {latencies}")
    return latencies


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
    """All channels and chips of the SSD's flash.

    Planes within a die operate concurrently (multi-plane read/program with
    cache operations), the standard technique SSDs use to hide NAND's long
    tPROG behind channel transfers. Each plane therefore has two lanes:
    modern controllers *suspend* an in-flight program or erase to service
    a read, so reads queue only behind other reads, while programs and
    erases queue behind everything on their plane. tR, tPROG, tBERS and
    the page transfer time are integer ns fixed at construction.
    """

    def __init__(self, config: FlashConfig, telemetry=None) -> None:
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.config = config
        channels, chips = config.channels, config.chips_per_channel
        planes = channels * chips * config.dies_per_chip * config.planes_per_die
        # Plane lanes: free-at and busy ns of every plane's read lane and
        # program/erase lane, indexed by plane number.
        self._read_free = [0] * planes
        self._read_busy = [0] * planes
        self._program_free = [0] * planes
        self._program_busy = [0] * planes
        self._geometry = (
            channels, chips, config.dies_per_chip, config.planes_per_die,
            config.blocks_per_plane, config.pages_per_block,
        )
        self._read_ns, self._program_ns, self._erase_ns = plane_latencies(config)
        # Programmed pages: their stored bytes, or None for a page
        # programmed without data; an erased page has no entry. The spare
        # area holds the ECC of every page stored with data.
        self._pages: Dict[PhysicalPageAddress, Optional[bytes]] = {}
        self._spare: Dict[PhysicalPageAddress, bytes] = {}
        self.ecc_corrections = 0
        self.ecc_failures = 0
        # Channel buses: sorted, coalesced busy intervals per channel (the
        # bus frees at the last end), and transfers per channel. Every
        # transfer moves one page, so bytes and busy time follow from the
        # counts.
        bandwidth = config.channel_bandwidth_bytes_per_ns
        if not bandwidth > 0:
            raise ConfigError(f"channel bandwidth must be positive, got {bandwidth!r}")
        self._xfer_ns = as_ns(config.page_bytes / bandwidth)
        self._bus_starts: List[List[int]] = [[] for _ in range(channels)]
        self._bus_ends: List[List[int]] = [[] for _ in range(channels)]
        self._transfers = [0] * channels
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

    def _check(self, channel: int, chip: int, die: int, plane: int, block: int, page: int) -> None:
        """Raise :class:`FlashError` unless the address is inside the array."""
        channels, chips, dies, planes, blocks, pages = self._geometry
        if not 0 <= channel < channels:
            raise FlashError(f"channel {channel} outside array")
        if not 0 <= chip < chips:
            raise FlashError(f"chip {chip} outside channel")
        if not (
            0 <= die < dies and 0 <= plane < planes
            and 0 <= block < blocks and 0 <= page < pages
        ):
            raise FlashError(
                f"page address (die={die}, plane={plane}, block={block}, page={page}) "
                "outside chip geometry"
            )

    # The service calls unpack the address once. An int issue time is
    # already on the clock; only other values are rounded. Reads and writes
    # round the issue time first, then test the address in one comparison
    # (a miss raises through ``_check``); an erase checks its block first.

    def service_read(self, ppa: PhysicalPageAddress, issue_ns) -> ServiceRecord:
        """Read one page: plane tR, then the channel transfer."""
        channel, chip, die, plane, block, page = ppa
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        channels, chips, dies, planes, blocks, pages = self._geometry
        if not (
            0 <= channel < channels and 0 <= chip < chips and 0 <= die < dies
            and 0 <= plane < planes and 0 <= block < blocks and 0 <= page < pages
        ):
            self._check(*ppa)
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
        issue = issue_ns if issue_ns.__class__ is int else as_ns(issue_ns)
        # The page is checked and stored before anything is booked: a
        # refused program leaves bus, plane and page as they were.
        unit = self._program(ppa, data)
        transferred = self._book_bus(ppa[0], issue)
        done = self._occupy_plane(unit, transferred, self._program_ns)
        self._writes += 1
        return _tuple_new(ServiceRecord, (ppa, issue, transferred, done))

    def preload(self, ppa: PhysicalPageAddress, data: bytes) -> None:
        """Program ``ppa`` with ``data`` as the array leaves the factory.

        The page rules hold as for :meth:`service_write`, but nothing is
        timed: no lane, bus or tally is booked (campaign golden data).
        """
        self._program(ppa, data)

    def _program(self, ppa: PhysicalPageAddress, data: Optional[bytes]) -> int:
        """Mark ``ppa`` programmed and keep ``data`` with its spare-area ECC
        (computed over the 8-byte-aligned prefix); returns its plane's
        number.

        Raises :class:`FlashError`, changing nothing, unless the address is
        in the array, the page is erased and ``data`` fits in a page.
        """
        channel, chip, die, plane, block, page = ppa
        channels, chips, dies, planes, blocks, pages = self._geometry
        if not (
            0 <= channel < channels and 0 <= chip < chips and 0 <= die < dies
            and 0 <= plane < planes and 0 <= block < blocks and 0 <= page < pages
        ):
            self._check(*ppa)
        if ppa in self._pages:
            # Errors name the page within its chip: (die, plane, block, page).
            raise FlashError(f"program into non-erased page {ppa[2:]} (erase the block first)")
        if data is None:
            self._pages[ppa] = None
        else:
            if len(data) > self.config.page_bytes:
                raise FlashError(f"page data of {len(data)}B exceeds page size")
            data = bytes(data)
            self._pages[ppa] = data
            self._spare[ppa] = ecc.encode_page(data + b"\x00" * (-len(data) % 8))
        return ((channel * chips + chip) * dies + die) * planes + plane

    def _occupy_plane(self, unit: int, ready: int, duration_ns: int) -> int:
        """Book a program or erase on plane ``unit``: it queues behind
        everything on the plane, in-flight reads (which would suspend it)
        and earlier programs/erases. Returns when it completes."""
        read_free = self._read_free[unit]
        if read_free > ready:
            ready = read_free
        free = self._program_free[unit]
        done = (ready if ready > free else free) + duration_ns
        self._program_free[unit] = done
        self._program_busy[unit] += duration_ns
        return done

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
        """Erase the block containing ``ppa``; returns when the erase completes."""
        channel, chip, die, plane, block, _ = ppa
        self._check(channel, chip, die, plane, block, 0)
        _, chips, dies, planes, _, pages = self._geometry
        unit = ((channel * chips + chip) * dies + die) * planes + plane
        done = self._occupy_plane(unit, as_ns(issue_ns), self._erase_ns)
        for page in range(pages):
            # A plain tuple equals, and hashes as, the address it spells.
            key = (channel, chip, die, plane, block, page)
            self._pages.pop(key, None)
            self._spare.pop(key, None)
        return done

    # -- page contents -----------------------------------------------------------

    def read_data(self, ppa: PhysicalPageAddress) -> Optional[bytes]:
        """The raw bytes stored at ``ppa`` (None if never written with data)."""
        self._check(*ppa)
        return self._pages.get(ppa)

    def read_data_checked(self, ppa: PhysicalPageAddress) -> Tuple[Optional[bytes], ecc.ECCStatus]:
        """ECC-checked read: the page's bytes after correction, and the status.

        Models the controller's ECC engine: single-bit upsets per codeword
        are transparently repaired; multi-bit upsets surface as
        uncorrectable (the device would retry/recover via RAID).

        This is the *only* place :attr:`ecc_failures` is incremented: every
        uncorrectable decode bumps the counter exactly once per read, so
        callers must come through here rather than calling
        :func:`repro.flash.ecc.decode_page` directly.
        """
        self._check(*ppa)
        raw = self._pages.get(ppa)
        if raw is None:
            return None, ecc.ECCStatus.CLEAN
        aligned = raw + b"\x00" * (-len(raw) % 8)
        decoded, status, corrections = ecc.decode_page(aligned, self._spare[ppa])
        self.ecc_corrections += corrections
        if status is ecc.ECCStatus.UNCORRECTABLE:
            self.ecc_failures += 1
        return decoded[: len(raw)], status

    def overwrite_raw(self, ppa: PhysicalPageAddress, data: bytes) -> None:
        """Replace a programmed page's raw cell contents in place.

        The hook behind read-retry recalibration, scrubbing, and targeted
        fault injection: it changes what the sense amps will read *without*
        a program cycle and leaves the spare-area ECC untouched, so
        restoring the originally programmed bytes makes the page decode
        clean again.
        """
        self._check(*ppa)
        old = self._pages.get(ppa)
        if old is None:
            raise FlashError(f"cannot overwrite page {ppa[2:]}: never programmed with data")
        if len(data) != len(old):
            raise FlashError(f"overwrite of {len(data)}B does not match stored {len(old)}B")
        self._pages[ppa] = bytes(data)

    def stored(self, ppa: PhysicalPageAddress) -> Optional[Tuple[Optional[bytes], Optional[bytes]]]:
        """What ``ppa``'s cells hold: None while erased, else its raw bytes
        and spare-area ECC (both None for a page programmed without data)."""
        self._check(*ppa)
        if ppa not in self._pages:
            return None
        return self._pages[ppa], self._spare.get(ppa)

    # -- observability -----------------------------------------------------------

    def plane_lanes(self, ppa: PhysicalPageAddress) -> PlaneLanes:
        """The lanes of the plane that holds ``ppa``."""
        channel, chip, die, plane = ppa[:4]
        self._check(channel, chip, die, plane, 0, 0)
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
        """The channel's total transfer time."""
        return self._transfers[channel] * self._xfer_ns

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
