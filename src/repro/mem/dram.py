"""SSD DRAM model: fixed access latency plus a shared bandwidth pool.

The paper's memory-wall argument (Section III) is about *bandwidth*: in the
baseline architecture every computed byte crosses the SSD DRAM twice (flash
controller fills it, compute engine reads it back), so the 8 GB/s LPDDR5 pool
caps aggregate compute at ~4 GB/s before latency even enters. This model
tracks traffic per class so the device level can apply that contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.config import DRAMConfig


@dataclass
class DRAMTraffic:
    """Byte counters by traffic class."""

    flash_staging: int = 0  # flash controller <-> DRAM page moves
    core_fill: int = 0  # cache fills / direct core reads
    core_writeback: int = 0  # dirty evictions / result writes
    firmware: int = 0  # FTL metadata and queues

    @property
    def total(self) -> int:
        return self.flash_staging + self.core_fill + self.core_writeback + self.firmware

    def as_dict(self) -> Dict[str, int]:
        return {
            "flash_staging": self.flash_staging,
            "core_fill": self.core_fill,
            "core_writeback": self.core_writeback,
            "firmware": self.firmware,
        }


class DRAMModel:
    """Latency/bandwidth accounting for the SSD-internal DRAM."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.traffic = DRAMTraffic()

    def latency_cycles(self, clock_ghz: float) -> float:
        """Access latency expressed in core cycles."""
        return self.config.latency_ns * clock_ghz

    def add_traffic(self, kind: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("traffic bytes must be non-negative")
        if not hasattr(self.traffic, kind):
            raise ValueError(f"unknown traffic class {kind!r}")
        setattr(self.traffic, kind, getattr(self.traffic, kind) + nbytes)

    def reset_traffic(self) -> None:
        self.traffic = DRAMTraffic()
