"""Differential suite: the flash write path against ``tests/flash_oracle.py``.

* **Codec.** :func:`repro.flash.ecc.encode_page` / ``decode_page`` (eight
  byte-lane passes, a clean-page shortcut) must equal the per-word loops
  over ``encode_word`` / ``decode_word`` on random pages of any length and
  input type, with flips scattered over the page or packed into one
  codeword, in the data and in the spare bytes: same spare bytes, decoded
  bytes, worst status and correction count.
* **Block pick.** A :class:`~repro.ftl.PageMapFTL` on the per-unit
  :class:`~repro.ftl.WearTracker` must hand out the same PPA stream as one
  on the flat wear map with the scanning pick, under random writes,
  overwrites, GC passes and block retirements at skew 0 and skew > 0, and
  end with the same erase counts.

Examples are bounded so each property stays a few seconds inside tier-1.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import FlashConfig  # noqa: E402
from repro.errors import FlashError, FTLError  # noqa: E402
from repro.flash import ecc  # noqa: E402
from repro.flash.array import FlashArray, PhysicalPageAddress  # noqa: E402
from repro.ftl import GarbageCollector, PageMapFTL, WearTracker  # noqa: E402
from repro.ftl.allocator import _UnitCursor  # noqa: E402

from tests import flash_oracle as oracle  # noqa: E402

# -- codec ---------------------------------------------------------------------

_pages = st.binary(max_size=1024).map(lambda raw: raw + b"\x00" * (-len(raw) % 8))


def _flip(raw: bytes, bits) -> bytes:
    out = bytearray(raw)
    for bit in bits:
        out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


@st.composite
def _damaged_pages(draw):
    """(data, spare): a page and its programmed spare, after raw flips.

    Scattered flips land anywhere in the data or the spare; packed flips
    hit the 72 bits (64 data + 8 spare) of one codeword, so double flips
    in one word, which SECDED must flag, come up often.
    """
    page = draw(_pages.filter(len))
    spare = oracle.encode_page(page)
    data_bits = draw(st.lists(st.integers(0, len(page) * 8 - 1), max_size=5))
    spare_bits = draw(st.lists(st.integers(0, len(spare) * 8 - 1), max_size=3))
    word = draw(st.integers(0, len(spare) - 1))
    for bit in draw(st.lists(st.integers(0, 71), max_size=3)):
        if bit < 64:
            data_bits.append(word * 64 + bit)
        else:
            spare_bits.append(word * 8 + bit - 64)
    return _flip(page, data_bits), _flip(spare, spare_bits)


@settings(max_examples=150, deadline=None)
@given(_pages, st.sampled_from((bytes, bytearray, memoryview)))
def test_encode_page_matches_oracle(page, kind):
    assert ecc.encode_page(kind(page)) == oracle.encode_page(page)


@settings(max_examples=300, deadline=None)
@given(_damaged_pages(), st.sampled_from((bytes, bytearray, memoryview)))
def test_decode_page_matches_oracle(damaged, kind):
    data, spare = damaged
    got = ecc.decode_page(kind(data), spare)
    assert got == oracle.decode_page(data, spare)
    assert type(got[0]) is bytes


def test_full_size_pages_match_oracle():
    """4 KiB and 16 KiB pages, clean and with scattered flips."""
    rng = random.Random(15)
    for size in (4096, 16384):
        page = rng.randbytes(size)
        spare = ecc.encode_page(page)
        assert spare == oracle.encode_page(page)
        for flips in (0, 1, 4, 40):
            data = _flip(page, rng.sample(range(size * 8), flips))
            assert ecc.decode_page(data, spare) == oracle.decode_page(data, spare)


@pytest.mark.parametrize("length", [1, 4, 12, 4095])
def test_misaligned_pages_rejected_like_oracle(length):
    data = bytes(length)
    for encode in (ecc.encode_page, oracle.encode_page):
        with pytest.raises(FlashError):
            encode(data)
    with pytest.raises(FlashError):
        ecc.decode_page(data, bytes(length // 8))


# -- wear map and block pick ---------------------------------------------------

CFG = FlashConfig(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=6,
    pages_per_block=4,
)
BLOCKS = CFG.total_pages // CFG.pages_per_block
BLOCK_KEYS = [
    (channel, 0, 0, plane, block)
    for channel in range(CFG.channels)
    for plane in range(CFG.planes_per_die)
    for block in range(CFG.blocks_per_plane)
]
LPAS = 20  # ~40% of the array: overwrites fill it with garbage quickly

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, LPAS - 1)),
        st.tuples(st.just("gc")),
        st.tuples(st.just("retire"), st.integers(0, BLOCKS - 1)),
    ),
    max_size=150,
)


def _stack(ftl):
    array = FlashArray(CFG)
    return ftl, array, GarbageCollector(ftl, array)


def _apply(stack, op):
    """Run one op; returns what it handed out (or the error it raised)."""
    ftl, array, gc = stack
    try:
        if op[0] == "write":
            ppa = ftl.write(op[1])
            array.service_write(ppa, 0)  # a page handed out twice fails here
            return ppa
        if op[0] == "gc":
            result = gc.collect()
            return result.victim, result.relocated, result.reclaimed
        block = PhysicalPageAddress.from_flat(op[1] * CFG.pages_per_block, CFG)
        return ftl.allocator.retire_block(block)
    except FTLError as exc:
        return f"FTLError: {exc}"


def _flat_counts(wear: WearTracker):
    return {
        (*unit, block): erases
        for unit, counts in wear.units.items()
        for block, erases in counts.items()
    }


def _run_both(ops, skew):
    fast = _stack(PageMapFTL(CFG, skew=skew))
    scan = _stack(oracle.scan_ftl(CFG, skew=skew))
    for step, op in enumerate(ops):
        assert _apply(fast, op) == _apply(scan, op), (step, op)
    fast_wear, scan_wear = fast[0].wear, scan[0].wear
    assert _flat_counts(fast_wear) == scan_wear.erases
    for key in scan_wear.erases:
        assert fast_wear.erase_count(key) == scan_wear.erase_count(key)
    assert fast_wear.total_erases == scan_wear.total_erases
    assert fast_wear.max_erases == scan_wear.max_erases
    assert fast_wear.imbalance() == scan_wear.imbalance()
    return scan_wear.total_erases


@settings(max_examples=200, deadline=None)
@given(_ops, st.sampled_from((0.0, 0.3, 1.0)))
def test_allocator_matches_scan_oracle(ops, skew):
    _run_both(ops, skew)


@pytest.mark.parametrize("skew", [0.0, 0.3])
def test_long_write_gc_sequence_matches_scan_oracle(skew):
    """Hundreds of overwrites between GC passes: blocks wear unevenly."""
    rng = random.Random(7)
    ops = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.8:
            ops.append(("write", rng.randrange(LPAS)))
        elif roll < 0.98:
            ops.append(("gc",))
        else:
            ops.append(("retire", rng.randrange(BLOCKS)))
    assert _run_both(ops, skew) > 20  # enough erases for wear to decide picks


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, CFG.blocks_per_plane - 1), min_size=1, unique=True),
    st.dictionaries(st.integers(0, CFG.blocks_per_plane - 1), st.integers(1, 3)),
)
def test_pick_block_matches_scan(free, erases):
    """Any free list and wear map: same block, same remaining free list."""
    picked = []
    for pick in (_UnitCursor._pick_block, oracle.scan_pick_block):
        wear = oracle.FlatWearTracker() if pick is oracle.scan_pick_block else WearTracker()
        for block, count in erases.items():
            for _ in range(count):
                wear.record_erase((1, 0, 0, 1, block))
        unit = _UnitCursor(CFG, 1, 0, 0, 1, wear)
        unit._free_blocks = list(free)
        picked.append((pick(unit), unit._free_blocks))
    assert picked[0] == picked[1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(BLOCK_KEYS), max_size=40))
def test_wear_tracker_matches_flat_map(erases):
    wear, flat = WearTracker(), oracle.FlatWearTracker()
    for key in erases:
        wear.record_erase(key)
        flat.record_erase(key)
    assert _flat_counts(wear) == flat.erases
    for key in BLOCK_KEYS:
        assert wear.erase_count(key) == flat.erase_count(key)
    assert (wear.total_erases, wear.max_erases) == (flat.total_erases, flat.max_erases)
    assert wear.imbalance() == flat.imbalance()
