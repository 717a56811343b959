"""Tests for the flash array timing and state model."""

import pytest

from repro.config import FlashConfig
from repro.errors import ConfigError, FlashError
from repro.sim import SimTimeError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.flash.chip import FlashChip, PageState
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
    with pytest.raises(FlashError):
        array.service_write(target, 0.0, data=b"again")


def test_erase_resets_pages_and_counts_wear():
    array = FlashArray(CFG)
    target = ppa(block=2, page=3)
    array.service_write(target, 0.0, data=b"x")
    chip = array.chips[0][0]
    assert chip.page_state(0, 0, 2, 3) is PageState.PROGRAMMED
    array.erase(target, 1_000_000.0)
    assert chip.page_state(0, 0, 2, 3) is PageState.ERASED
    assert chip.erase_counts[(0, 0, 2)] == 1
    assert chip.read_data(0, 0, 2, 3) is None


def test_functional_data_roundtrip():
    array = FlashArray(CFG)
    payload = bytes(range(64))
    array.service_write(ppa(block=3), 0.0, data=payload)
    assert array.chips[0][0].read_data(0, 0, 3, 0) == payload


def test_page_data_size_checked():
    chip = FlashChip(CFG, 0, 0)
    with pytest.raises(FlashError):
        chip.start_program(0, 0, 0, 0, 0.0, data=b"x" * (CFG.page_bytes + 1))


def test_rejected_program_books_nothing():
    """An oversized program is refused before the bus, plane or page change."""
    array = FlashArray(CFG)
    target = ppa(block=1, page=2)
    chip = array.chips[0][0]

    def booked():
        return (
            array.bus_free_at_ns(0),
            array.channel_bytes()[0],
            array.plane_lanes(target).program_free_ns,
        )

    before = booked()
    with pytest.raises(FlashError):
        array.service_write(target, 0, data=b"x" * (CFG.page_bytes + 8))
    assert chip.page_state(0, 0, 1, 2) is PageState.ERASED
    assert booked() == before
    assert array.writes_served == 0
    # The page is still writable: a valid retry programs it.
    rec = array.service_write(target, 0, data=b"y" * CFG.page_bytes)
    assert rec.done_ns == CFG.page_transfer_ns + CFG.program_latency_ns
    assert chip.read_data(0, 0, 1, 2) == b"y" * CFG.page_bytes
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
