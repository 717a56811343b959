"""SECDED ECC for flash pages (Hamming + overall parity per 64-bit word).

Real NAND is unusable without ECC; controllers protect every page with
per-codeword parity kept in the page's spare area. This module implements
an extended Hamming (72,64) code — single-error correction, double-error
detection per 8-byte codeword — plus page-level helpers and error
injection, so the repository's flash substrate is credible end to end.

Layout: a page of N data bytes (N % 8 == 0) carries N/8 parity bytes in
the spare area; each parity byte protects one 64-bit little-endian word.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import FlashError

_DATA_BITS = 64
# Hamming positions: parity bits sit at power-of-two positions of a
# 1-indexed 71-bit codeword; we store the 7 Hamming bits + 1 overall parity
# in the spare byte instead of interleaving, which keeps data bytes intact.
_PARITY_COUNT = 7  # covers up to 127 - 7 = 120 data bits >= 64


def _parity_masks() -> List[int]:
    """Bit masks over the 64 data bits covered by each Hamming parity."""
    masks = [0] * _PARITY_COUNT
    position = 1  # 1-indexed codeword position of the next data bit
    for bit in range(_DATA_BITS):
        position += 1
        while position & (position - 1) == 0:  # skip parity positions
            position += 1
        for p in range(_PARITY_COUNT):
            if position & (1 << p):
                masks[p] |= 1 << bit
    return masks


_MASKS = _parity_masks()
# Map codeword position -> data bit index, for syndrome decoding.
_POSITION_OF_BIT: List[int] = []
_pos = 1
for _bit in range(_DATA_BITS):
    _pos += 1
    while _pos & (_pos - 1) == 0:
        _pos += 1
    _POSITION_OF_BIT.append(_pos)
_BIT_AT_POSITION = {p: i for i, p in enumerate(_POSITION_OF_BIT)}


def _parity64(value: int) -> int:
    value ^= value >> 32
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


def _hamming_tables() -> List[List[int]]:
    """Per-(byte position, byte value) contribution to the 7 Hamming bits.

    Parity is linear over GF(2), so the Hamming bits of a 64-bit word are
    the XOR of one table lookup per byte; this turns the 7-mask loop into 8
    lookups, which matters once every programmed page is ECC-encoded and
    fault campaigns decode on every corrupted read.
    """
    tables = []
    for pos in range(8):
        row = [0] * 256
        for value in range(256):
            word = value << (8 * pos)
            ham = 0
            for p, mask in enumerate(_MASKS):
                ham |= _parity64(word & mask) << p
            row[value] = ham
        tables.append(row)
    return tables


_HAMMING_TABLE = _hamming_tables()
_BYTE_PARITY = bytes(bin(v).count("1") & 1 for v in range(256))


def _hamming_bits(word: int) -> int:
    t = _HAMMING_TABLE
    return (
        t[0][word & 0xFF]
        ^ t[1][(word >> 8) & 0xFF]
        ^ t[2][(word >> 16) & 0xFF]
        ^ t[3][(word >> 24) & 0xFF]
        ^ t[4][(word >> 32) & 0xFF]
        ^ t[5][(word >> 40) & 0xFF]
        ^ t[6][(word >> 48) & 0xFF]
        ^ t[7][(word >> 56) & 0xFF]
    )


def encode_word(word: int) -> int:
    """Compute the 8-bit ECC byte (7 Hamming bits + overall parity)."""
    if not 0 <= word < (1 << _DATA_BITS):
        raise FlashError("ECC codeword must be a 64-bit value")
    ecc = _hamming_bits(word)
    overall = _parity64(word) ^ _BYTE_PARITY[ecc]
    return ecc | (overall << 7)


class ECCStatus(enum.Enum):
    CLEAN = "clean"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"


@dataclass
class ECCResult:
    word: int
    status: ECCStatus
    corrected_bit: int = -1


def _parity8(value: int) -> int:
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


def decode_word(word: int, ecc_byte: int) -> ECCResult:
    """Check/correct one 64-bit word against its ECC byte.

    SECDED decoding: the syndrome compares recomputed vs *stored* Hamming
    bits; the overall parity is taken over the received codeword (data +
    stored Hamming + stored overall bit). An odd total parity means a
    single flip (correctable); an even total with a nonzero syndrome means
    a double flip (detected, uncorrectable).
    """
    stored_hamming = ecc_byte & 0x7F
    stored_overall = (ecc_byte >> 7) & 1
    recomputed = _hamming_bits(word)
    syndrome = recomputed ^ stored_hamming
    total_parity = _parity64(word) ^ _parity8(stored_hamming) ^ stored_overall
    if syndrome == 0 and total_parity == 0:
        return ECCResult(word, ECCStatus.CLEAN)
    if total_parity == 1:
        # Odd number of flips: a single-bit error, correctable.
        bit = _BIT_AT_POSITION.get(syndrome)
        if bit is None:
            # The flip hit the spare byte (a parity bit or the overall
            # bit itself): data is intact.
            return ECCResult(word, ECCStatus.CORRECTED, corrected_bit=-1)
        return ECCResult(word ^ (1 << bit), ECCStatus.CORRECTED, corrected_bit=bit)
    # Even number of flips with nonzero syndrome: detected, not correctable.
    return ECCResult(word, ECCStatus.UNCORRECTABLE)


# -- page-level helpers ------------------------------------------------------

# Byte-lane tables: ``_LANE_TABLES[p][v]`` is what byte ``p`` of a word,
# holding ``v``, adds to the word's spare byte: its Hamming bits (bits 0-6)
# and its own parity (bit 7). The code is linear over GF(2), so the XOR of
# one entry per lane holds the word's Hamming bits and its data parity;
# ``_FIXUP`` turns that data parity into the stored overall bit (data
# parity ^ parity of the Hamming bits).
_LANE_TABLES = [
    bytes(_HAMMING_TABLE[lane][v] | _BYTE_PARITY[v] << 7 for v in range(256))
    for lane in range(8)
]
_FIXUP = bytes(b ^ _BYTE_PARITY[b & 0x7F] << 7 for b in range(256))


def _spare_of(data: bytes) -> bytes:
    """Spare bytes of an 8-aligned page: eight byte-lane passes, all in C."""
    acc = 0
    for lane, table in enumerate(_LANE_TABLES):
        acc ^= int.from_bytes(data[lane::8].translate(table), "little")
    return acc.to_bytes(len(data) // 8, "little").translate(_FIXUP)


def encode_page(data: bytes) -> bytes:
    """Spare-area parity bytes for a page (one per 8 data bytes)."""
    data = bytes(data)
    if len(data) % 8:
        raise FlashError("page length must be a multiple of 8 for ECC")
    return _spare_of(data)


def decode_page(data: bytes, spare: bytes) -> Tuple[bytes, ECCStatus, int]:
    """Verify/correct a page; returns (data, worst status, corrections).

    A word decodes CLEAN exactly when its recomputed spare byte equals the
    stored one, so a clean page costs one :func:`_spare_of` and a compare;
    only the words whose bytes differ go through :func:`decode_word`.
    """
    data = bytes(data)
    if len(data) % 8:
        raise FlashError("page length must be a multiple of 8 for ECC")
    if len(spare) != len(data) // 8:
        raise FlashError("spare area size mismatch")
    fresh = _spare_of(data)
    if fresh == spare:
        return data, ECCStatus.CLEAN, 0
    out = bytearray(data)
    worst = ECCStatus.CLEAN
    corrections = 0
    for index, (recomputed, stored) in enumerate(zip(fresh, spare)):
        if recomputed == stored:
            continue
        i = index * 8
        result = decode_word(int.from_bytes(data[i : i + 8], "little"), stored)
        if result.status is ECCStatus.CORRECTED:
            corrections += 1
            out[i : i + 8] = result.word.to_bytes(8, "little")
            if worst is ECCStatus.CLEAN:
                worst = ECCStatus.CORRECTED
        else:
            worst = ECCStatus.UNCORRECTABLE
    return bytes(out), worst, corrections


def inject_bit_errors(data: bytes, nbits: int, seed: int = 1) -> bytes:
    """Flip ``nbits`` distinct random bits (raw-NAND error injection)."""
    if not 0 <= nbits <= len(data) * 8:
        raise FlashError(f"cannot flip {nbits} bits of a {len(data)}-byte page")
    rng = random.Random(seed)
    flipped = bytearray(data)
    for index in rng.sample(range(len(data) * 8), nbits):
        flipped[index // 8] ^= 1 << (index % 8)
    return bytes(flipped)
