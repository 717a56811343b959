"""Tests for the FTL: allocation policy, mapping, skew, wear, GC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig
from repro.errors import FTLError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.ftl.allocator import PICK_CHUNK, PageAllocator, measured_skew, skew_shares
from repro.ftl.gc import GarbageCollector
from repro.ftl.mapping import PageMapFTL

CFG = FlashConfig(
    channels=4,
    chips_per_channel=2,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=8,
    pages_per_block=16,
)


def test_skew_shares_extremes():
    assert skew_shares(4, 0.0) == pytest.approx([0.25] * 4)
    shares = skew_shares(4, 1.0)
    assert shares[0] == pytest.approx(1.0)
    assert sum(shares) == pytest.approx(1.0)


@given(st.integers(min_value=2, max_value=16), st.floats(min_value=0, max_value=1))
def test_skew_roundtrip(channels, skew):
    shares = skew_shares(channels, skew)
    assert sum(shares) == pytest.approx(1.0)
    assert measured_skew(shares) == pytest.approx(skew, abs=1e-9)


def test_skew_validation():
    with pytest.raises(FTLError):
        skew_shares(4, 1.5)


def test_allocator_stripes_evenly():
    alloc = PageAllocator(CFG, skew=0.0)
    pages = [alloc.allocate() for _ in range(64)]
    per_channel = [sum(1 for p in pages if p.channel == ch) for ch in range(4)]
    assert per_channel == [16, 16, 16, 16]


def test_allocator_skew_1_uses_single_channel():
    alloc = PageAllocator(CFG, skew=1.0)
    pages = [alloc.allocate() for _ in range(32)]
    assert all(p.channel == 0 for p in pages)


def test_allocator_moderate_skew_distribution():
    alloc = PageAllocator(CFG, skew=0.5)
    pages = [alloc.allocate() for _ in range(200)]
    counts = [sum(1 for p in pages if p.channel == ch) for ch in range(4)]
    assert measured_skew(counts) == pytest.approx(0.5, abs=0.05)


def test_allocator_never_hands_out_duplicates():
    alloc = PageAllocator(CFG, skew=0.0)
    seen = set()
    for _ in range(CFG.total_pages):
        ppa = alloc.allocate()
        assert ppa not in seen
        seen.add(ppa)
    with pytest.raises(FTLError):
        alloc.allocate()


def test_ftl_write_and_lookup():
    ftl = PageMapFTL(CFG)
    ppa = ftl.write(42)
    assert ftl.lookup(42) == ppa
    assert ftl.is_mapped(42) and not ftl.is_mapped(43)
    with pytest.raises(FTLError):
        ftl.lookup(43)


def test_ftl_update_is_out_of_place():
    ftl = PageMapFTL(CFG)
    first = ftl.write(7)
    second = ftl.write(7)
    assert first != second
    assert first in ftl.invalid_pages
    assert ftl.lookup(7) == second
    assert ftl.updates == 1


def test_ftl_trim():
    ftl = PageMapFTL(CFG)
    ppa = ftl.write(9)
    ftl.trim(9)
    assert not ftl.is_mapped(9)
    assert ppa in ftl.invalid_pages
    with pytest.raises(FTLError):
        ftl.trim(9)


def test_populate_distribution_matches_skew():
    for skew in (0.0, 0.25, 1.0):
        ftl = PageMapFTL(CFG, skew=skew)
        ftl.populate(range(160))
        counts = ftl.channel_page_counts()
        assert measured_skew(counts) == pytest.approx(skew, abs=0.06)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
def test_mapping_bijective_under_random_writes(lpas):
    ftl = PageMapFTL(CFG)
    for lpa in lpas:
        ftl.write(lpa)
    mapped = [ftl.lookup(l) for l in set(lpas)]
    assert len(set(mapped)) == len(mapped), "two LPAs share a physical page"


def test_gc_reclaims_most_invalid_block():
    ftl = PageMapFTL(CFG)
    array = FlashArray(CFG)
    # Fill a stream of pages, then overwrite them to invalidate.
    for lpa in range(64):
        ppa = ftl.write(lpa)
        array.service_write(ppa, 0.0)
    for lpa in range(64):
        ppa = ftl.write(lpa)  # out-of-place update invalidates the old page
        array.service_write(ppa, 0.0)
    gc = GarbageCollector(ftl, array)
    before = len(ftl.invalid_pages)
    result = gc.collect(at_ns=array.horizon_ns)
    assert result.reclaimed > 0
    assert len(ftl.invalid_pages) == before - result.reclaimed
    assert ftl.wear.total_erases == 1
    # Relocated pages must still resolve.
    for lpa in range(64):
        ftl.lookup(lpa)


def test_gc_without_garbage_raises():
    ftl = PageMapFTL(CFG)
    array = FlashArray(CFG)
    gc = GarbageCollector(ftl, array)
    with pytest.raises(FTLError):
        gc.collect()


def test_gc_frees_capacity_for_new_writes():
    small = FlashConfig(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=4,
    )
    ftl = PageMapFTL(small)
    array = FlashArray(small)
    gc = GarbageCollector(ftl, array)
    # Fill 3 of 4 blocks with live data, then invalidate one block's worth.
    for lpa in range(12):
        array.service_write(ftl.write(lpa), 0.0)
    for lpa in range(4):
        array.service_write(ftl.write(lpa), 0.0)  # uses the 4th block
    # Array is now full; GC must reclaim before further writes succeed.
    gc.collect(at_ns=array.horizon_ns)
    ftl.write(100)  # should not raise


def _geometry(channels, blocks, pages):
    return FlashConfig(
        channels=channels,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=blocks,
        pages_per_block=pages,
    )


def test_failed_overwrite_leaves_the_map_unchanged():
    """An overwrite the full array cannot place must not invalidate the
    old page: GC would erase it unrelocated and hand it to another LPA."""
    tiny = _geometry(1, 3, 2)
    ftl, array = PageMapFTL(tiny), FlashArray(tiny)
    gc = GarbageCollector(ftl, array)
    for lpa in (0, 0, 1, 1, 2, 2):
        array.service_write(ftl.write(lpa), 0.0)
    state = lambda: ([ftl.lookup(lpa) for lpa in range(3)], set(ftl.invalid_pages), ftl.updates)
    before = state()
    with pytest.raises(FTLError):
        ftl.write(0)
    assert state() == before
    # Every block holds one live page and no page is free: nothing can move.
    with pytest.raises(FTLError):
        gc.collect(at_ns=array.horizon_ns)
    assert state() == before
    assert len(set(before[0])) == 3


def test_gc_reclaims_a_full_write_point_block():
    """A unit's current block, once full, is closed: GC may reclaim it and
    the erased block rejoins the unit's free pool."""
    two = _geometry(2, 4, 2)
    ftl, array = PageMapFTL(two), FlashArray(two)
    gc = GarbageCollector(ftl, array)
    for lpa in (3, 3, 2):  # channel 0's block 0: LPA 3 (stale), then LPA 2
        array.service_write(ftl.write(lpa), 0.0)
    assert (0, 0, 0, 0, 0) not in ftl.allocator.open_blocks()
    result = gc.collect(at_ns=array.horizon_ns)
    assert (result.victim, result.relocated, result.reclaimed) == ((0, 0, 0, 0, 0), 1, 1)
    assert gc.collections == 1 and gc.last_result is result
    assert ftl.wear.erase_count((0, 0, 0, 0, 0)) == 1
    assert ftl.allocator._free[0] == [0, 3, 2, 1]  # channel 0's only unit
    assert ftl.invalid_pages == set()
    assert ftl.lookup(2) == PhysicalPageAddress(1, 0, 0, 0, 0, 1)  # relocated


def test_wear_leveling_prefers_least_erased_blocks():
    """After GC, new write points open the least-worn free blocks."""
    small = FlashConfig(
        channels=1,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=4,
        pages_per_block=2,
    )
    ftl = PageMapFTL(small)
    array = FlashArray(small)
    gc = GarbageCollector(ftl, array)
    # Fill everything, then repeatedly invalidate + collect so blocks cycle.
    for lpa in range(6):
        array.service_write(ftl.write(lpa), 0.0)
    for round_ in range(6):
        for lpa in range(2):
            array.service_write(ftl.write(lpa), 0.0)
        gc.collect(at_ns=array.horizon_ns)
    # Erases must be spread: no block should carry them all.
    assert ftl.wear.total_erases >= 6
    assert ftl.wear.max_erases < ftl.wear.total_erases
    assert ftl.wear.imbalance() < 2.5


def test_allocator_without_wear_tracker_still_works():
    alloc = PageAllocator(CFG, skew=0.0, wear=None)
    pages = [alloc.allocate() for _ in range(32)]
    assert len(set(pages)) == 32


def _mount_state(ftl):
    return dict(ftl._map), dict(ftl._p2l), set(ftl.allocator.open_blocks()), ftl.updates


@pytest.mark.parametrize(
    "skew, mounted, asked, match",
    [
        # 6 pages are free: the mount is refused before any page moves.
        (0.0, 10, 10, r"mount of 10 pages does not fit: 6 pages are free"),
        # 10 pages are free, but skew 1 places only on channel 0, which
        # fills after 2: the pages already handed out go back.
        (1.0, 6, 4, r"mount of 4 pages does not fit the placement: channel 0 .*10 pages"),
    ],
)
def test_mount_that_does_not_fit_changes_nothing(skew, mounted, asked, match):
    """Like a refused write, a refused mount leaves the map, the P2L map,
    the open blocks and the allocator as they were."""
    tiny = _geometry(2, 2, 4)
    ftl, twin = PageMapFTL(tiny, skew=skew), PageMapFTL(tiny, skew=skew)
    ftl.populate(range(mounted))
    twin.populate(range(mounted))
    before = _mount_state(ftl)
    with pytest.raises(FTLError, match=match):
        ftl.populate(range(100, 100 + asked))
    assert _mount_state(ftl) == before == _mount_state(twin)
    assert not any(ftl.is_mapped(lpa) for lpa in range(100, 100 + asked))
    # The allocator hands out what the twin's does, up to the last page
    # the placement reaches (channel 0's 8 at skew 1).
    fits = (8 if skew else 16) - mounted
    assert ftl.populate(range(100, 100 + fits)) == twin.populate(range(100, 100 + fits))
    assert ftl._p2l == twin._p2l


def test_mount_refused_after_a_batch_of_picks_changes_nothing():
    """At skew 0.3 the channel deficits never come back to zero, so the
    picks come in batches; a mount refused after more than one batch
    puts the allocator's place in the shared picks back too, also when
    another allocator has extended them meanwhile."""
    tiny = _geometry(2, 4, 64)
    ftl, twin = PageMapFTL(tiny, skew=0.3), PageMapFTL(tiny, skew=0.3)
    # 512 pages are free; channel 0 takes 0.65 of the picks and fills
    # after about 394 of them, past the first batch.
    assert PICK_CHUNK < 394
    with pytest.raises(FTLError, match="does not fit the placement"):
        ftl.populate(range(480))
    assert _mount_state(ftl) == _mount_state(twin)
    assert ftl.populate(range(300)) == twin.populate(range(300))
    # Another allocator at these shares takes the table far past both.
    other = PageMapFTL(_geometry(2, 16, 64), skew=0.3)
    other.populate(range(1500))
    table = ftl.allocator._table
    assert other.allocator._table is table and len(table.picks) >= 1500
    late, late_twin = PageMapFTL(tiny, skew=0.3), PageMapFTL(tiny, skew=0.3)
    late.populate(range(100))
    late_twin.populate(range(100))
    with pytest.raises(FTLError, match="does not fit the placement"):
        late.populate(range(100, 500))
    assert _mount_state(late) == _mount_state(late_twin)
    assert late.allocator._pick == late_twin.allocator._pick == 100
    assert late.populate(range(100, 390)) == late_twin.populate(range(100, 390))
    assert ftl.populate(range(300, 390)) == [twin.write(lpa) for lpa in range(300, 390)]


def test_populate_matches_one_write_per_lpa():
    """Fresh, repeated and already-mapped LPAs: the same pages, maps,
    invalid pages (in order) and update count as writing them one by one."""
    lpas = [5, 1, 9, 1, 3, 5, 20, 21]
    ftl, twin = PageMapFTL(CFG, skew=0.3), PageMapFTL(CFG, skew=0.3)
    for batch in ([0, 1, 2], lpas, range(30, 40), [2, 30, 2]):
        assert ftl.populate(batch) == [twin.write(lpa) for lpa in batch]
        assert _mount_state(ftl) == _mount_state(twin)
        assert list(ftl.invalid_pages) == list(twin.invalid_pages)
    with pytest.raises(FTLError):
        ftl.populate([4, -1])
    assert not ftl.is_mapped(4)
