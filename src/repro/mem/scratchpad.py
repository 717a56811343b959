"""Scratchpad and ping-pong buffer models.

A scratchpad is software-managed SRAM mapped into the core's address space
with a fixed access latency (one cycle at moderate sizes; two cycles at
64 KiB once real SRAM timing is applied — Figure 20). The ping-pong pair is
how ``AssasinSp`` double-buffers flash data: the firmware fills the *pong*
buffer while the core computes out of the *ping* buffer, then the roles swap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ScratchpadConfig
from repro.errors import MemoryError_


@dataclass
class ScratchpadStats:
    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0


class Scratchpad:
    """Timing + occupancy model of one scratchpad (data lives in FlatMemory)."""

    def __init__(self, config: ScratchpadConfig, base_addr: int = 0) -> None:
        self.config = config
        self.base_addr = base_addr
        self.stats = ScratchpadStats()

    @property
    def size_bytes(self) -> int:
        return self.config.size_bytes

    @property
    def end_addr(self) -> int:
        return self.base_addr + self.size_bytes

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.base_addr <= addr and addr + size <= self.end_addr

    def access_latency(self, size: int) -> int:
        """Cycles for one access of ``size`` bytes (wide accesses are split)."""
        if size <= 0:
            raise MemoryError_("scratchpad access size must be positive")
        beats = -(-size // self.config.port_width_bytes)  # ceil division
        return self.config.access_latency_cycles * beats

    def record(self, size: int, is_write: bool, count: int = 1) -> None:
        """Count ``count`` accesses of ``size`` bytes."""
        if is_write:
            self.stats.writes += count
            self.stats.bytes_written += size * count
        else:
            self.stats.reads += count
            self.stats.bytes_read += size * count


class PingPongBuffer:
    """A pair of scratchpads double-buffering a data stream.

    The compute side drains the *active* buffer while the fill side loads the
    *shadow* buffer. :meth:`swap` flips roles; it may only happen when the
    shadow fill has completed, which the firmware model enforces by timing.
    """

    def __init__(self, config: ScratchpadConfig, base_addr: int = 0) -> None:
        self.ping = Scratchpad(config, base_addr=base_addr)
        self.pong = Scratchpad(config, base_addr=base_addr + config.size_bytes)
        self._active_is_ping = True
        self.swaps = 0
        # Fill completion time (ns) for the shadow buffer, set by firmware.
        self.shadow_ready_ns: float = 0.0

    @property
    def active(self) -> Scratchpad:
        return self.ping if self._active_is_ping else self.pong

    @property
    def shadow(self) -> Scratchpad:
        return self.pong if self._active_is_ping else self.ping

    @property
    def buffer_bytes(self) -> int:
        return self.ping.size_bytes

    def swap(self) -> None:
        self._active_is_ping = not self._active_is_ping
        self.swaps += 1

    def contains(self, addr: int, size: int = 1) -> bool:
        return self.ping.contains(addr, size) or self.pong.contains(addr, size)
