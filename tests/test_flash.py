"""Tests for the flash array timing and state model."""

import pytest

from repro.config import FlashConfig
from repro.errors import ConfigError, FlashError
from repro.sim import SimTimeError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.flash.onfi import ONFI_PROFILES

CFG = FlashConfig(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=2,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=8,
)


def ppa(channel=0, chip=0, die=0, plane=0, block=0, page=0):
    return PhysicalPageAddress(channel, chip, die, plane, block, page)


def test_flat_index_roundtrip():
    for idx in range(CFG.total_pages):
        assert PhysicalPageAddress.from_flat(idx, CFG).flat_index(CFG) == idx


def test_flat_index_out_of_range():
    with pytest.raises(FlashError):
        PhysicalPageAddress.from_flat(CFG.total_pages, CFG)


def test_read_timing_tr_plus_transfer():
    array = FlashArray(CFG)
    rec = array.service_read(ppa(), issue_ns=0.0)
    assert rec.array_done_ns == pytest.approx(CFG.read_latency_ns)
    assert rec.done_ns == pytest.approx(CFG.read_latency_ns + CFG.page_transfer_ns)


def test_same_die_reads_serialise():
    array = FlashArray(CFG)
    r1 = array.service_read(ppa(page=0), 0.0)
    r2 = array.service_read(ppa(page=1), 0.0)
    assert r2.array_done_ns >= r1.array_done_ns + CFG.read_latency_ns


def test_different_dies_overlap_tr():
    array = FlashArray(CFG)
    r1 = array.service_read(ppa(die=0), 0.0)
    r2 = array.service_read(ppa(die=1), 0.0)
    # Array reads overlap; only the channel transfers serialise.
    assert r1.array_done_ns == pytest.approx(r2.array_done_ns)
    assert r2.done_ns == pytest.approx(r1.done_ns + CFG.page_transfer_ns)


def test_different_channels_fully_parallel():
    array = FlashArray(CFG)
    r1 = array.service_read(ppa(channel=0), 0.0)
    r2 = array.service_read(ppa(channel=1), 0.0)
    assert r1.done_ns == pytest.approx(r2.done_ns)


def test_channel_bandwidth_bound_on_streaming():
    array = FlashArray(CFG)
    # Stream many pages from alternating dies of one channel: throughput
    # should approach the channel's 1 GB/s.
    last = 0.0
    n = 64
    for i in range(n):
        rec = array.service_read(ppa(die=i % 2, chip=(i // 2) % 2, page=(i // 4) % 8, block=(i // 32) % 4), 0.0)
        last = max(last, rec.done_ns)
    achieved = n * CFG.page_bytes / last
    assert achieved >= 0.9 * CFG.channel_bandwidth_bytes_per_ns


def test_write_requires_erased_page():
    array = FlashArray(CFG)
    target = ppa(block=1, page=0)
    array.service_write(target, 0.0, data=b"abc")
    with pytest.raises(FlashError, match="non-erased"):
        array.service_write(target, 0.0, data=b"again")
    with pytest.raises(FlashError, match="non-erased"):
        array.preload(target, b"again")
    # A page programmed without data is programmed all the same.
    array.service_write(ppa(block=1, page=1), 0.0)
    with pytest.raises(FlashError, match="non-erased"):
        array.preload(ppa(block=1, page=1), b"late")
    assert array.writes_served == 2


def test_erase_resets_pages():
    array = FlashArray(CFG)
    target = ppa(block=2, page=3)
    neighbour = ppa(block=3, page=3)
    array.service_write(target, 0.0, data=b"x")
    array.service_write(ppa(block=2, page=4), 0.0)
    array.preload(neighbour, b"y")
    assert array.stored(target)[0] == b"x"
    array.erase(ppa(block=2, page=7), 1_000_000.0)
    assert array.stored(target) is None and array.read_data(target) is None
    assert array.stored(ppa(block=2, page=4)) is None
    assert array.stored(neighbour)[0] == b"y"  # another block keeps its page
    # Every page of the block is writable again.
    array.service_write(target, 2_000_000.0, data=b"z")
    assert array.read_data(target) == b"z"


def test_erase_occupies_the_plane():
    array = FlashArray(CFG)
    target = ppa(block=2)
    read = array.service_read(target, 0)
    done = array.erase(target, 0)
    # The erase waits for the plane's in-flight read, then takes tBERS.
    assert done == read.array_done_ns + CFG.erase_latency_ns
    assert array.plane_lanes(target).program_free_ns == done
    with pytest.raises(FlashError, match="outside chip geometry"):
        array.erase(ppa(block=CFG.blocks_per_plane), 0)


def test_functional_data_roundtrip():
    array = FlashArray(CFG)
    payload = bytes(range(64))
    array.service_write(ppa(block=3), 0.0, data=payload)
    assert array.read_data(ppa(block=3)) == payload
    assert array.read_data(ppa(block=3, page=1)) is None
    with pytest.raises(FlashError):
        array.read_data(ppa(chip=CFG.chips_per_channel))


def test_page_data_size_checked():
    array = FlashArray(CFG)
    with pytest.raises(FlashError, match="exceeds page size"):
        array.preload(ppa(), b"x" * (CFG.page_bytes + 1))
    assert array.stored(ppa()) is None
    array.preload(ppa(), b"x" * CFG.page_bytes)
    assert array.read_data(ppa()) == b"x" * CFG.page_bytes


def test_preload_books_nothing():
    """A preloaded page is stored with its spare area, but no lane, bus
    or tally moves: the array stays in its manufactured state."""
    array = FlashArray(CFG)
    target = ppa(channel=1, chip=1, die=1, block=2, page=5)
    array.preload(target, b"golden" * 10)
    data, spare = array.stored(target)
    assert data == b"golden" * 10 and len(spare) == 8
    assert array.plane_lanes(target) == (0, 0, 0, 0)
    assert (array.bus_free_at_ns(1), array.bus_busy_ns(1), array.horizon_ns) == (0, 0, 0)
    assert array.channel_bytes() == [0, 0]
    assert (array.reads_served, array.writes_served) == (0, 0)
    with pytest.raises(FlashError, match="outside array"):
        array.preload(ppa(channel=CFG.channels), b"x")


def test_rejected_program_books_nothing():
    """An oversized program is refused before the bus, plane or page change."""
    array = FlashArray(CFG)
    target = ppa(block=1, page=2)

    def booked():
        return (
            array.bus_free_at_ns(0),
            array.channel_bytes()[0],
            array.plane_lanes(target).program_free_ns,
        )

    before = booked()
    with pytest.raises(FlashError):
        array.service_write(target, 0, data=b"x" * (CFG.page_bytes + 8))
    with pytest.raises(SimTimeError):
        array.service_write(target, float("nan"), data=b"x")
    assert array.stored(target) is None
    assert booked() == before
    assert array.writes_served == 0
    # The page is still writable: a valid retry programs it.
    rec = array.service_write(target, 0, data=b"y" * CFG.page_bytes)
    assert rec.done_ns == CFG.page_transfer_ns + CFG.program_latency_ns
    assert array.read_data(target) == b"y" * CFG.page_bytes
    # Programming it again is refused the same way.
    programmed = booked()
    with pytest.raises(FlashError):
        array.service_write(target, 0, data=b"z")
    assert booked() == programmed


def test_geometry_bounds_checked():
    array = FlashArray(CFG)
    with pytest.raises(FlashError):
        array.service_read(ppa(page=CFG.pages_per_block), 0.0)
    with pytest.raises(FlashError):
        array.service_read(ppa(die=CFG.dies_per_chip), 0.0)
    assert array.reads_served == 0
    outside = [ppa(channel=-1), ppa(chip=CFG.chips_per_channel), ppa(plane=1), ppa(block=-1)]
    for address in outside:
        for call in (
            lambda: array.service_write(address, 0),
            lambda: array.preload(address, b"x"),
            lambda: array.read_data(address),
            lambda: array.read_data_checked(address),
            lambda: array.overwrite_raw(address, b"x"),
            lambda: array.stored(address),
        ):
            with pytest.raises(FlashError, match="outside"):
                call()
    assert array.writes_served == 0 and array.horizon_ns == 0


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("read_latency_ns", -1.0, SimTimeError),
        ("erase_latency_ns", -5.0, SimTimeError),
        ("channel_bandwidth_bytes_per_ns", 0.0, ConfigError),
        ("channel_bandwidth_bytes_per_ns", float("nan"), ConfigError),
    ],
)
def test_bad_timing_is_refused_when_the_array_is_built(field, value, error):
    """The lanes and buses keep no per-grant check: a negative duration or
    a bus that moves no bytes fails at construction, typed."""
    from dataclasses import replace

    with pytest.raises(error):
        FlashArray(replace(CFG, **{field: value}))


def test_program_latency_dominates_write():
    array = FlashArray(CFG)
    rec = array.service_write(ppa(block=1), 0.0)
    assert rec.done_ns == pytest.approx(CFG.page_transfer_ns + CFG.program_latency_ns)


def test_channel_stats():
    array = FlashArray(CFG)
    array.service_read(ppa(), 0.0)
    array.service_read(ppa(channel=1), 0.0)
    assert array.channel_bytes() == [CFG.page_bytes, CFG.page_bytes]
    assert array.reads_served == 2
    utils = array.channel_utilisations(array.horizon_ns)
    assert all(0 < u <= 1 for u in utils)


def test_onfi_profiles():
    paper = ONFI_PROFILES["paper"]
    assert paper.transfer_bytes_per_ns == 1.0
    assert paper.page_transfer_ns(4096) == pytest.approx(4096.0)
    assert ONFI_PROFILES["onfi4.2-16b"].transfer_bytes_per_ns == pytest.approx(3.2)
