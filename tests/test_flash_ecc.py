"""Tests for the SECDED page ECC, including exhaustive-ish properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlashConfig
from repro.errors import FlashError
from repro.flash.array import FlashArray, PhysicalPageAddress
from repro.flash.ecc import (
    ECCStatus,
    decode_page,
    decode_word,
    encode_page,
    encode_word,
    inject_bit_errors,
)

word64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
PPA0 = PhysicalPageAddress(0, 0, 0, 0, 0, 0)


def test_clean_word_roundtrip():
    for word in (0, 1, 0xDEADBEEFCAFEF00D, (1 << 64) - 1):
        ecc = encode_word(word)
        result = decode_word(word, ecc)
        assert result.status is ECCStatus.CLEAN
        assert result.word == word


@given(word64, st.integers(min_value=0, max_value=63))
def test_single_bit_error_corrected(word, bit):
    ecc = encode_word(word)
    corrupted = word ^ (1 << bit)
    result = decode_word(corrupted, ecc)
    assert result.status is ECCStatus.CORRECTED
    assert result.word == word
    assert result.corrected_bit == bit


@given(word64, st.integers(min_value=0, max_value=7))
def test_single_parity_bit_error_harmless(word, parity_bit):
    """A flip in the spare byte itself must not corrupt the data."""
    ecc = encode_word(word) ^ (1 << parity_bit)
    result = decode_word(word, ecc)
    assert result.word == word
    assert result.status in (ECCStatus.CORRECTED, ECCStatus.CLEAN)


@settings(max_examples=200, deadline=None)
@given(
    word64,
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)
def test_double_bit_error_detected_not_miscorrected(word, a, b):
    if a == b:
        return
    ecc = encode_word(word)
    corrupted = word ^ (1 << a) ^ (1 << b)
    result = decode_word(corrupted, ecc)
    assert result.status is ECCStatus.UNCORRECTABLE
    # SECDED guarantee: never silently "corrects" to wrong data.
    assert result.word == corrupted


def test_encode_word_rejects_oversize():
    with pytest.raises(FlashError):
        encode_word(1 << 64)


def test_page_roundtrip_and_correction():
    page = bytes(range(256)) * 16  # 4096 bytes
    spare = encode_page(page)
    assert len(spare) == len(page) // 8
    # Clean.
    decoded, status, n = decode_page(page, spare)
    assert decoded == page and status is ECCStatus.CLEAN and n == 0
    # Scatter 5 single-bit errors into distinct codewords and correct them.
    corrupted = bytearray(page)
    for i, off in enumerate((3, 100, 555, 2048, 4000)):
        corrupted[off] ^= 1 << (i % 8)
    decoded, status, n = decode_page(bytes(corrupted), spare)
    assert decoded == page
    assert status is ECCStatus.CORRECTED
    assert n == 5


def test_page_uncorrectable_double_error():
    page = b"\xa5" * 64
    spare = encode_page(page)
    corrupted = bytearray(page)
    corrupted[0] ^= 0b11  # two flips in the same codeword
    _, status, _ = decode_page(bytes(corrupted), spare)
    assert status is ECCStatus.UNCORRECTABLE


def test_page_validation():
    with pytest.raises(FlashError):
        encode_page(b"123")  # not a multiple of 8
    with pytest.raises(FlashError):
        decode_page(b"\x00" * 16, b"\x00")
    # A ragged tail is rejected even when the spare size matches len // 8.
    with pytest.raises(FlashError):
        decode_page(b"\x00" * 12, b"\x00")
    with pytest.raises(FlashError):
        decode_page(b"\x00" * 4, b"")


def test_inject_bit_errors_flips_exactly_n():
    data = bytes(64)
    flipped = inject_bit_errors(data, 7, seed=9)
    diff = sum(bin(a ^ b).count("1") for a, b in zip(data, flipped))
    assert diff == 7
    with pytest.raises(FlashError):
        inject_bit_errors(b"\x00", 9)
    with pytest.raises(FlashError):
        inject_bit_errors(data, -1)


def test_raw_bit_error_rate_recovery():
    """A page with sparse random raw errors is fully recovered."""
    page = bytes((i * 37) & 0xFF for i in range(4096))
    spare = encode_page(page)
    # One error per ~1KB: virtually always one per codeword at most.
    corrupted = bytearray(page)
    for off, bit in ((10, 0), (1300, 4), (2900, 7), (3900, 2)):
        corrupted[off] ^= 1 << bit
    decoded, status, n = decode_page(bytes(corrupted), spare)
    assert decoded == page and n == 4


def _programmed_array(payload, ppa=PPA0):
    array = FlashArray(FlashConfig())
    array.service_write(ppa, 0, data=payload)
    return array


def _corrupt(array, ppa, nbits, seed):
    """Flip ``nbits`` raw bits of a stored page, leaving its spare area."""
    array.overwrite_raw(ppa, inject_bit_errors(array.read_data(ppa), nbits, seed))


def test_chip_integrated_ecc_corrects_raw_errors():
    """The array's checked read path repairs sparse raw-NAND upsets."""
    payload = bytes((i * 13) & 0xFF for i in range(4096))
    array = _programmed_array(payload)
    # Clean read.
    data, status = array.read_data_checked(PPA0)
    assert data == payload and status is ECCStatus.CLEAN
    # Sparse upsets: correctable.
    _corrupt(array, PPA0, nbits=3, seed=5)
    assert array.read_data(PPA0) != payload
    data, status = array.read_data_checked(PPA0)
    assert status in (ECCStatus.CORRECTED, ECCStatus.UNCORRECTABLE)
    if status is ECCStatus.CORRECTED:
        assert data == payload
        assert array.ecc_corrections >= 1
    # One flip is always repaired, one correction per read.
    array.overwrite_raw(PPA0, payload)
    array.overwrite_raw(PPA0, inject_bit_errors(payload, 1, seed=3))
    before = array.ecc_corrections
    assert array.read_data_checked(PPA0) == (payload, ECCStatus.CORRECTED)
    assert array.ecc_corrections == before + 1


def test_chip_ecc_flags_heavy_corruption():
    payload = b"\x5a" * 64
    target = PPA0._replace(block=1)
    array = _programmed_array(payload, target)
    _corrupt(array, target, nbits=40, seed=2)  # way past SECDED
    _, status = array.read_data_checked(target)
    assert status is ECCStatus.UNCORRECTABLE
    assert array.ecc_failures == 1


def test_chip_corrupt_requires_data():
    """Raw corruption needs a page programmed with data to land in."""
    array = FlashArray(FlashConfig())
    with pytest.raises(FlashError, match="never programmed"):
        array.overwrite_raw(PPA0, b"x")
    array.service_write(PPA0, 0)  # programmed, but with no contents kept
    with pytest.raises(FlashError, match="never programmed"):
        array.overwrite_raw(PPA0, b"x")
    assert array.read_data_checked(PPA0) == (None, ECCStatus.CLEAN)


def test_checked_read_of_a_short_page_decodes_its_aligned_prefix():
    """A page stored with fewer bytes than a codeword multiple is checked
    over its zero-padded prefix and read back at its own length."""
    payload = bytes(range(1, 13))  # 12 bytes: two codewords, the last padded
    array = _programmed_array(payload)
    assert array.stored(PPA0) == (payload, encode_page(payload + bytes(4)))
    array.overwrite_raw(PPA0, inject_bit_errors(payload, 1, seed=9))
    assert array.read_data_checked(PPA0) == (payload, ECCStatus.CORRECTED)


def test_page_double_error_detected_in_every_codeword():
    """Two flips land in *any* one codeword of a page: always detected."""
    page = bytes((i * 59) & 0xFF for i in range(256))  # 32 codewords
    spare = encode_page(page)
    for word in range(len(page) // 8):
        corrupted = bytearray(page)
        corrupted[word * 8] ^= 1 << 1
        corrupted[word * 8 + 5] ^= 1 << 6
        decoded, status, _ = decode_page(bytes(corrupted), spare)
        assert status is ECCStatus.UNCORRECTABLE
        # The other codewords decode untouched — no collateral damage.
        for other in range(len(page) // 8):
            if other != word:
                assert decoded[other * 8 : other * 8 + 8] == page[other * 8 : other * 8 + 8]


def test_page_spare_area_corruption_leaves_data_intact():
    """A flip in the parity byte itself must never alter the data."""
    page = bytes(range(128))
    spare = encode_page(page)
    for index in (0, 7, len(spare) - 1):
        for bit in range(8):
            bad_spare = bytearray(spare)
            bad_spare[index] ^= 1 << bit
            decoded, status, _ = decode_page(page, bytes(bad_spare))
            assert decoded == page
            assert status in (ECCStatus.CLEAN, ECCStatus.CORRECTED)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=8, max_size=512), st.integers(min_value=0, max_value=2**31))
def test_seeded_random_page_roundtrip(raw, seed):
    """Random pages round-trip clean, and any single flip is repaired."""
    page = raw + b"\x00" * (-len(raw) % 8)
    spare = encode_page(page)
    decoded, status, n = decode_page(page, spare)
    assert decoded == page and status is ECCStatus.CLEAN and n == 0
    corrupted = inject_bit_errors(page, 1, seed=seed)
    decoded, status, n = decode_page(corrupted, spare)
    assert decoded == page and status is ECCStatus.CORRECTED and n == 1
