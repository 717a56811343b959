"""Per-word and per-block oracles for the flash write path.

:func:`encode_page` / :func:`decode_page` run the SECDED page codec one
64-bit word at a time through the spec functions
:func:`repro.flash.ecc.encode_word` / :func:`repro.flash.ecc.decode_word`,
the loops every spare area was computed with before the byte-lane codec.
:func:`scan_pick_block` is the wear-levelling block pick as a full scan
(one ``erase_count`` lookup per free block), and :class:`FlatWearTracker`
keeps erase counts in one flat ``{(channel, chip, die, plane, block):
erases}`` map. :func:`scan_ftl` builds a :class:`~repro.ftl.PageMapFTL` on
both. The differential suite and the flash speed benchmark run the same
pages and write sequences through these and through :mod:`repro.flash.ecc`
and :mod:`repro.ftl`, and demand identical spare bytes, decoded pages,
PPA streams and wear counts. Only tests and benchmarks use it.
"""

import types
from typing import Dict, Tuple

from repro.errors import FlashError
from repro.flash.ecc import ECCStatus, decode_word, encode_word
from repro.ftl.allocator import PageAllocator
from repro.ftl.mapping import PageMapFTL


def encode_page(data: bytes) -> bytes:
    """Spare-area parity bytes for a page, one ``encode_word`` per word."""
    if len(data) % 8:
        raise FlashError("page length must be a multiple of 8 for ECC")
    return bytes(
        encode_word(int.from_bytes(data[i : i + 8], "little"))
        for i in range(0, len(data), 8)
    )


def decode_page(data: bytes, spare: bytes) -> Tuple[bytes, ECCStatus, int]:
    """Verify/correct a page, one ``decode_word`` per word."""
    if len(data) % 8:
        raise FlashError("page length must be a multiple of 8 for ECC")
    if len(spare) != len(data) // 8:
        raise FlashError("spare area size mismatch")
    out = bytearray(data)
    worst = ECCStatus.CLEAN
    corrections = 0
    for i in range(0, len(data), 8):
        word = int.from_bytes(data[i : i + 8], "little")
        result = decode_word(word, spare[i // 8])
        if result.status is ECCStatus.CORRECTED:
            corrections += 1
            out[i : i + 8] = result.word.to_bytes(8, "little")
            if worst is ECCStatus.CLEAN:
                worst = ECCStatus.CORRECTED
        elif result.status is ECCStatus.UNCORRECTABLE:
            worst = ECCStatus.UNCORRECTABLE
    return bytes(out), worst, corrections


class FlatWearTracker:
    """Erase counts in one flat map keyed by the block's 5-tuple."""

    def __init__(self) -> None:
        self.erases: Dict[Tuple[int, int, int, int, int], int] = {}

    def record_erase(self, key) -> None:
        self.erases[key] = self.erases.get(key, 0) + 1

    def erase_count(self, key) -> int:
        return self.erases.get(key, 0)

    @property
    def total_erases(self) -> int:
        return sum(self.erases.values())

    @property
    def max_erases(self) -> int:
        return max(self.erases.values(), default=0)

    def imbalance(self) -> float:
        if not self.erases:
            return 0.0
        mean = self.total_erases / len(self.erases)
        return self.max_erases / mean if mean else 0.0


def scan_pick_block(unit) -> int:
    """Least-worn free block of a write unit, by scanning every free block."""
    if unit.wear is None:
        return unit._free_blocks.pop()
    best_index = min(
        range(len(unit._free_blocks)),
        key=lambda i: (
            unit.wear.erase_count(
                (unit.channel, unit.chip, unit.die, unit.plane, unit._free_blocks[i])
            ),
            -i,  # prefer the natural pop order among equals
        ),
    )
    return unit._free_blocks.pop(best_index)


def scan_ftl(config, skew: float = 0.0) -> PageMapFTL:
    """A page-mapped FTL on the flat wear map and the scanning block pick."""
    ftl = PageMapFTL(config, skew=skew)
    ftl.wear = FlatWearTracker()
    ftl.allocator = PageAllocator(config, skew=skew, wear=ftl.wear)
    for cursor in ftl.allocator._cursors:
        for unit in cursor._units:
            unit._pick_block = types.MethodType(scan_pick_block, unit)
    return ftl
