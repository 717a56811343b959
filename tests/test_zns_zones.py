"""Property tests for the ZNS zone state machine (``repro.ftl.zoned``).

Hypothesis drives random operation sequences against a `ZonedFTL` and a
trivial shadow model, checking the four contract properties: write-pointer
monotonicity (rewinds only on reset), open-zone-limit enforcement,
reset-to-empty transitions, and wear accounting on reset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig
from repro.errors import ZnsError
from repro.ftl.zoned import ZoneState, ZonedFTL

TINY = FlashConfig(
    channels=2,
    chips_per_channel=2,
    dies_per_chip=2,
    planes_per_die=2,
    blocks_per_plane=3,
    pages_per_block=4,
    page_bytes=512,
)
NUM_ZONES = 2 * 2 * 3
ZONE_PAGES = 2 * 2 * 4
MAX_OPEN = 3

_zone = st.integers(min_value=0, max_value=NUM_ZONES - 1)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _zone, st.integers(min_value=1, max_value=ZONE_PAGES)),
        st.tuples(st.just("reset"), _zone, st.just(0)),
        st.tuples(st.just("open"), _zone, st.just(0)),
        st.tuples(st.just("close"), _zone, st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(ops=_ops)
def test_zone_state_machine_properties(ops):
    ftl = ZonedFTL(TINY, max_open_zones=MAX_OPEN)
    model_wp = {z: 0 for z in range(NUM_ZONES)}
    model_resets = {z: 0 for z in range(NUM_ZONES)}

    for op, zone, arg in ops:
        before_wp = ftl.write_pointer(zone)
        try:
            if op == "append":
                lba, ppas = ftl.append(zone, arg)
                # Assigned LBA is exactly the pre-append write pointer.
                assert lba == ftl.zone_slba(zone) + before_wp
                assert len(ppas) == arg
                model_wp[zone] += arg
            elif op == "reset":
                ftl.reset_zone(zone)
                if before_wp:
                    model_resets[zone] += 1
                model_wp[zone] = 0
                assert ftl.state(zone) is ZoneState.EMPTY
            elif op == "open":
                ftl.open_zone(zone)
            elif op == "close":
                ftl.close_zone(zone)
        except ZnsError:
            # Rejected transitions must not move the write pointer.
            assert ftl.write_pointer(zone) == before_wp
        # Invariant 1: write pointer only grows, except a reset rewinds to 0.
        assert ftl.write_pointer(zone) == model_wp[zone]
        # Invariant 2: the open-zone bound holds after every operation.
        assert len(ftl.open_zones) <= MAX_OPEN
        # Invariant 3: state/write-pointer coherence.
        state = ftl.state(zone)
        if state is ZoneState.EMPTY:
            assert ftl.write_pointer(zone) == 0
        if state is ZoneState.FULL:
            assert ftl.write_pointer(zone) == ZONE_PAGES
        if ftl.write_pointer(zone) not in (0, ZONE_PAGES) and state in (
            ZoneState.EMPTY,
            ZoneState.FULL,
        ):
            pytest.fail(f"zone {zone} wp={ftl.write_pointer(zone)} in state {state}")

    # Invariant 4: wear accounting — each effective reset erased every block
    # of the zone's group exactly once.
    for z in range(NUM_ZONES):
        for key in ftl.zone_blocks(z):
            assert ftl.wear.erase_count(key) == model_resets[z]
    assert ftl.wear.total_erases == sum(model_resets.values()) * ftl.units_per_zone
    assert ftl.resets == sum(model_resets.values())


def test_open_zone_limit_enforced():
    ftl = ZonedFTL(TINY, max_open_zones=MAX_OPEN)
    for z in range(MAX_OPEN):
        ftl.open_zone(z)
    with pytest.raises(ZnsError):
        ftl.open_zone(MAX_OPEN)
    with pytest.raises(ZnsError):
        ftl.append(MAX_OPEN, 1)  # implicit open also counts against the limit
    # Closing one frees a resource; filling one to FULL frees it too.
    ftl.close_zone(0)
    ftl.open_zone(MAX_OPEN)
    ftl.append(1, ZONE_PAGES - ftl.write_pointer(1))
    assert ftl.state(1) is ZoneState.FULL
    assert 1 not in ftl.open_zones
    ftl.open_zone(NUM_ZONES - 1)


def test_reset_returns_block_group_and_is_idempotent_on_empty():
    ftl = ZonedFTL(TINY, max_open_zones=MAX_OPEN)
    assert ftl.reset_zone(4) == []  # never-written zone: no erase, no wear
    assert ftl.wear.total_erases == 0
    ftl.append(4, 5)
    erased = ftl.reset_zone(4)
    assert len(erased) == ftl.units_per_zone
    assert ftl.state(4) is ZoneState.EMPTY
    assert ftl.write_pointer(4) == 0
    assert ftl.wear.total_erases == ftl.units_per_zone
    # All erased blocks belong to the zone's (channel, chip, block) group.
    channel, chip, block = ftl.zone_group(4)
    assert {(p.channel, p.chip, p.block) for p in erased} == {(channel, chip, block)}


def test_lookup_and_report_follow_the_write_pointer():
    ftl = ZonedFTL(TINY, max_open_zones=MAX_OPEN)
    lba, ppas = ftl.append(2, 3)
    assert lba == ftl.zone_slba(2)
    assert ftl.is_mapped(lba + 2) and not ftl.is_mapped(lba + 3)
    assert ftl.lookup(lba + 1) == ppas[1]
    # Plane striping: consecutive slots land on distinct (die, plane) units.
    assert len({(p.die, p.plane) for p in ppas}) == 3
    report = ftl.zone_report(first=2, count=1)[0]
    assert report.write_pointer == 3
    assert report.state is ZoneState.OPEN
    assert report.capacity == ZONE_PAGES


def test_offline_zone_rejects_io():
    ftl = ZonedFTL(TINY, max_open_zones=MAX_OPEN)
    ftl.append(0, 2)
    ftl.offline_zone(0)
    with pytest.raises(ZnsError):
        ftl.append(0, 1)
    with pytest.raises(ZnsError):
        ftl.reset_zone(0)
    assert not ftl.is_mapped(0)


def test_random_write_surface_raises():
    ftl = ZonedFTL(TINY)
    with pytest.raises(ZnsError):
        ftl.write(0)
    with pytest.raises(ZnsError):
        ftl.populate([0, 1])
    with pytest.raises(ZnsError):
        ftl.trim(0)
    assert ftl.invalid_pages == set()
    assert ftl.collectible_invalid_pages() == 0
