"""Wear-leveling bookkeeping: per-block erase counts and imbalance metrics."""

from __future__ import annotations

from typing import Dict, Tuple

BlockKey = Tuple[int, int, int, int, int]  # channel, chip, die, plane, block
UnitKey = Tuple[int, int, int, int]  # channel, chip, die, plane


class WearTracker:
    """Tracks erase counts; the allocator/GC consult it to even out wear.

    Counts are stored per write unit, ``units[(channel, chip, die, plane)]
    = {block: erases}``, so the allocator reads a unit's whole wear map
    with one lookup. A unit or block that was never erased has no entry.
    """

    def __init__(self) -> None:
        self.units: Dict[UnitKey, Dict[int, int]] = {}

    def record_erase(self, key: BlockKey) -> None:
        counts = self.units.setdefault(key[:4], {})
        counts[key[4]] = counts.get(key[4], 0) + 1

    def erase_count(self, key: BlockKey) -> int:
        counts = self.units.get(key[:4])
        return counts.get(key[4], 0) if counts else 0

    @property
    def total_erases(self) -> int:
        return sum(sum(counts.values()) for counts in self.units.values())

    @property
    def max_erases(self) -> int:
        return max((max(counts.values()) for counts in self.units.values()), default=0)

    def imbalance(self) -> float:
        """max/mean erase ratio (1.0 = perfectly even; 0 if nothing erased)."""
        blocks = sum(len(counts) for counts in self.units.values())
        if not blocks:
            return 0.0
        return self.max_erases / (self.total_erases / blocks)
