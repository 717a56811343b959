"""One NAND flash chip: dies, planes, blocks, pages (paper Figure 3).

The chip enforces NAND's physical rules — program only into erased pages,
erase whole blocks, reads/programs occupy a plane — and keeps per-block
wear counters. Page *contents* are stored sparsely (only programmed pages), so
multi-GiB arrays cost memory proportional to what was actually written.

A plane's timing is two lanes, each a free-at and a busy-ns int in flat
lists. A chip built on its own owns lists for its planes; the chips of a
:class:`~repro.flash.array.FlashArray` book the array's lists. Programs
and erases book the program/erase lane here (:meth:`FlashChip.book_program`,
:meth:`FlashChip.erase_block`); page reads are timed by
:meth:`~repro.flash.array.FlashArray.service_read` alone, which indexes
the read lanes directly.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple

from repro.config import FlashConfig
from repro.errors import FlashError
from repro.flash import ecc
from repro.sim import SimTimeError, as_ns


class PageState(enum.Enum):
    ERASED = "erased"
    PROGRAMMED = "programmed"


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


class FlashChip:
    """Geometry + timing + state for one chip of the array.

    Planes within a die operate concurrently (multi-plane read/program with
    cache operations), the standard technique SSDs use to hide NAND's long
    tPROG behind channel transfers. Each plane therefore has two lanes —
    reads and program/erase are separate: modern controllers *suspend* an
    in-flight program or erase to service a read, so reads only queue
    behind other reads, while programs/erases queue behind everything on
    their plane. A lane is a free-at instant and a busy total (integer ns)
    at index ``_base + die * planes_per_die + plane`` of the lane lists.

    tR, tPROG and tBERS are fixed at construction as integer nanoseconds
    (:func:`plane_latencies`), so a page operation pays no conversion.
    """

    def __init__(self, config: FlashConfig, channel: int, index: int) -> None:
        self.config = config
        self.channel = channel
        self.index = index
        #: (dies, planes per die, blocks per plane, pages per block).
        self._shape = (
            config.dies_per_chip, config.planes_per_die,
            config.blocks_per_plane, config.pages_per_block,
        )
        units = config.dies_per_chip * config.planes_per_die
        self._attach_lanes(([0] * units, [0] * units, [0] * units, [0] * units), 0)
        self._read_ns, self._program_ns, self._erase_ns = plane_latencies(config)
        # Sparse page state: (die, plane, block, page) -> PageState; absent
        # means erased-from-factory. Contents stored only when provided.
        self._state: Dict[Tuple[int, int, int, int], PageState] = {}
        self._data: Dict[Tuple[int, int, int, int], bytes] = {}
        self._spare: Dict[Tuple[int, int, int, int], bytes] = {}
        self.erase_counts: Dict[Tuple[int, int, int], int] = {}
        self._inject_rounds: Dict[Tuple[int, int, int, int], int] = {}
        self.ecc_corrections = 0
        self.ecc_failures = 0

    def _attach_lanes(self, lanes: Tuple[List[int], List[int], List[int], List[int]],
                      base: int) -> None:
        """Book the plane lanes in ``lanes`` (read free-at, read busy,
        program free-at, program busy) from index ``base`` on."""
        self._read_free, self._read_busy, self._program_free, self._program_busy = lanes
        self._base = base

    # -- address checks --------------------------------------------------------

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

    def page_state(self, die: int, plane: int, block: int, page: int) -> PageState:
        self._check(die, plane, block, page)
        return self._state.get((die, plane, block, page), PageState.ERASED)

    # -- timed operations ------------------------------------------------------
    # Each returns the time the plane operation completes; the channel
    # transfer and page reads are timed by the array.

    def check_program(
        self, die: int, plane: int, block: int, page: int, data: Optional[bytes] = None
    ) -> None:
        """Raise :class:`FlashError` unless the page can be programmed with ``data``.

        It runs before any timeline is booked, so a rejected program leaves
        the channel bus, the plane and the page as they were.
        """
        self._check(die, plane, block, page)
        key = (die, plane, block, page)
        if self._state.get(key) is PageState.PROGRAMMED:
            raise FlashError(f"program into non-erased page {key} (erase the block first)")
        if data is not None and len(data) > self.config.page_bytes:
            raise FlashError(f"page data of {len(data)}B exceeds page size")

    def start_program(
        self,
        die: int,
        plane: int,
        block: int,
        page: int,
        at_ns,
        data: Optional[bytes] = None,
    ) -> int:
        self.check_program(die, plane, block, page, data)
        if at_ns.__class__ is not int:
            at_ns = as_ns(at_ns)
        return self.book_program(die, plane, block, page, at_ns, data)

    def book_program(
        self, die: int, plane: int, block: int, page: int, at_ns: int,
        data: Optional[bytes] = None,
    ) -> int:
        """:meth:`start_program` at an integer instant, after
        :meth:`check_program` has passed."""
        done = self._book_busy_plane(die, plane, at_ns, self._program_ns)
        key = (die, plane, block, page)
        self._state[key] = PageState.PROGRAMMED
        if data is not None:
            self._store(key, data)
        return done

    def _book_busy_plane(self, die: int, plane: int, at_ns: int, duration_ns: int) -> int:
        """Book a program or erase: it queues behind everything on the
        plane, in-flight reads (which would suspend it) and earlier
        programs/erases."""
        unit = self._base + die * self._shape[1] + plane
        read_free = self._read_free[unit]
        ready = at_ns if at_ns > read_free else read_free
        free = self._program_free[unit]
        done = (ready if ready > free else free) + duration_ns
        self._program_free[unit] = done
        self._program_busy[unit] += duration_ns
        return done

    def _store(self, key: Tuple[int, int, int, int], data: bytes) -> None:
        """Keep a programmed page's contents and its spare-area ECC, computed
        over the 8-byte-aligned prefix of the page."""
        stored = bytes(data)
        self._data[key] = stored
        aligned = stored + b"\x00" * (-len(stored) % 8)
        self._spare[key] = ecc.encode_page(aligned)

    def erase_block(self, die: int, plane: int, block: int, at_ns) -> int:
        self._check(die, plane, block, 0)
        done = self._book_busy_plane(die, plane, as_ns(at_ns), self._erase_ns)
        for page in range(self.config.pages_per_block):
            self._state.pop((die, plane, block, page), None)
            self._data.pop((die, plane, block, page), None)
            self._spare.pop((die, plane, block, page), None)
            self._inject_rounds.pop((die, plane, block, page), None)
        key = (die, plane, block)
        self.erase_counts[key] = self.erase_counts.get(key, 0) + 1
        return done

    def read_data(self, die: int, plane: int, block: int, page: int) -> Optional[bytes]:
        """Functional page contents (None if never written with data)."""
        self._check(die, plane, block, page)
        return self._data.get((die, plane, block, page))

    def inject_errors(self, die: int, plane: int, block: int, page: int,
                      nbits: int, seed: int = 1) -> None:
        """Inject ``nbits`` raw-NAND bit errors into a programmed page.

        Raises :class:`FlashError` (never ``KeyError``) when the target page
        was never programmed with data, or the address is outside the chip.

        Seed-threading contract: the RNG for each injection is derived from
        ``(seed, page address, number of prior injections into that page)``.
        Repeated injections with the same seed therefore flip *fresh*,
        reproducible bit sets instead of cancelling the previous flips, and
        two runs issuing the same call sequence corrupt identical bits.
        Erasing the block resets the page's injection count.
        """
        self._check(die, plane, block, page)
        key = (die, plane, block, page)
        if key not in self._data:
            raise FlashError(
                f"cannot inject errors into page {key}: never programmed with data"
            )
        rounds = self._inject_rounds.get(key, 0)
        derived = (seed * 1_000_003 + rounds) * 7_919 + self._flat(key)
        self._data[key] = ecc.inject_bit_errors(self._data[key], nbits, derived)
        self._inject_rounds[key] = rounds + 1

    def corrupt_page(self, die: int, plane: int, block: int, page: int,
                     nbits: int, seed: int = 1) -> None:
        """Historical alias for :meth:`inject_errors`."""
        self.inject_errors(die, plane, block, page, nbits, seed)

    def overwrite_raw(self, die: int, plane: int, block: int, page: int,
                      data: bytes) -> None:
        """Replace a programmed page's raw cell contents in place.

        The hook behind read-retry recalibration, scrubbing, and targeted
        fault injection: it changes what the sense amps will read *without*
        a program cycle and leaves the spare-area ECC untouched, so
        restoring the originally programmed bytes makes the page decode
        clean again.
        """
        self._check(die, plane, block, page)
        key = (die, plane, block, page)
        if key not in self._data:
            raise FlashError(f"cannot overwrite page {key}: never programmed with data")
        if len(data) != len(self._data[key]):
            raise FlashError(
                f"overwrite of {len(data)}B does not match stored {len(self._data[key])}B"
            )
        self._data[key] = bytes(data)

    def _flat(self, key: Tuple[int, int, int, int]) -> int:
        die, plane, block, page = key
        c = self.config
        return ((die * c.planes_per_die + plane) * c.blocks_per_plane + block) \
            * c.pages_per_block + page

    def read_data_checked(self, die: int, plane: int, block: int, page: int):
        """ECC-checked read: returns (data, status) after correction.

        Models the controller's ECC engine: single-bit upsets per codeword
        are transparently repaired; multi-bit upsets surface as
        uncorrectable (the device would retry/recover via RAID).

        This is the *only* place :attr:`ecc_failures` is incremented: every
        uncorrectable decode bumps the counter exactly once per read, so
        callers must come through here rather than calling
        :func:`repro.flash.ecc.decode_page` directly.
        """
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
