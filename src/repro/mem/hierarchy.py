"""Per-core memory hierarchy: composes caches, scratchpads and DRAM timing.

The hierarchy is a timing oracle for the pipeline model: given (pc, address,
size, read/write, current cycle) it returns how many *stall* cycles the
access adds beyond the instruction's base cycle, which level served it, and
how many bytes moved to/from SSD DRAM. Data itself lives in
:class:`~repro.mem.memory.FlatMemory`.

:meth:`MemoryHierarchy.access` is the spec of every data access. The fast
engine (:mod:`repro.isa.fastpath`) times scratchpad and ping-pong accesses
itself, from :attr:`~MemoryHierarchy.scratchpad_window`,
:attr:`~MemoryHierarchy.pingpong_window` and the pads' latencies (a
constant per pad and width), and calls :meth:`~MemoryHierarchy.access` for
DRAM-space accesses only, whose cache outcome depends on the cycle.

Address map (32-bit core address space):

========================  =====================================
``0x0000_0000`` ...       DRAM-backed general space
``SCRATCHPAD_BASE``       per-core scratchpad (function state)
``PINGPONG_BASE``         ping+pong staging scratchpads
========================  =====================================

Stream buffers are not memory-mapped: they are reached only through the
stream ISA (Section V-B), which the core model handles directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from repro.config import CoreConfig, DRAMConfig, PrefetcherKind
from repro.mem.cache import Cache
from repro.mem.dram import DRAMModel
from repro.mem.prefetcher import make_prefetcher
from repro.mem.scratchpad import PingPongBuffer, Scratchpad, ScratchpadStats

SCRATCHPAD_BASE = 0x0100_0000
PINGPONG_BASE = 0x0110_0000
DRAM_SPACE_BYTES = 0x0100_0000  # 16 MiB of general space is ample for samples


class AccessType(enum.Enum):
    LOAD = "load"
    STORE = "store"


class AccessResult(NamedTuple):
    """Timing outcome of one data access."""

    stall_cycles: float
    level: str  # 'l1' | 'l2' | 'dram' | 'scratchpad' | 'pingpong'
    dram_bytes: int = 0


#: The most common outcome: an L1 hit on a line that is already filled.
_L1_HIT = AccessResult(0.0, "l1")


@dataclass
class StallBuckets:
    """Cycle decomposition accumulators (paper Figure 5)."""

    compute: float = 0.0
    l1_wait: float = 0.0
    l2_stall: float = 0.0
    dram_stall: float = 0.0
    scratchpad_stall: float = 0.0
    stream_stall: float = 0.0

    @property
    def total_stall(self) -> float:
        return (
            self.l1_wait
            + self.l2_stall
            + self.dram_stall
            + self.scratchpad_stall
            + self.stream_stall
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute": self.compute,
            "l1_wait": self.l1_wait,
            "l2_stall": self.l2_stall,
            "dram_stall": self.dram_stall,
            "scratchpad_stall": self.scratchpad_stall,
            "stream_stall": self.stream_stall,
        }


class MemoryHierarchy:
    """Timing model for one core's data-side memory system."""

    def __init__(self, core: CoreConfig, dram: DRAMModel) -> None:
        self.core = core
        self.dram = dram
        self.l1: Optional[Cache] = Cache(core.l1d) if core.l1d else None
        self.l2: Optional[Cache] = Cache(core.l2) if core.l2 else None
        self.prefetcher = make_prefetcher(core.prefetcher)
        self.scratchpad: Optional[Scratchpad] = (
            Scratchpad(core.scratchpad, base_addr=SCRATCHPAD_BASE) if core.scratchpad else None
        )
        # Input staging (2 halves at PINGPONG_BASE) and output staging (2
        # halves right above) — "64KB I + 64KB O ping-pong" in Table IV.
        self.pingpong: Optional[PingPongBuffer] = (
            PingPongBuffer(core.pingpong, base_addr=PINGPONG_BASE) if core.pingpong else None
        )
        self.pingpong_out: Optional[PingPongBuffer] = (
            PingPongBuffer(core.pingpong, base_addr=PINGPONG_BASE + 2 * core.pingpong.size_bytes)
            if core.pingpong
            else None
        )
        #: ``(lo, hi)``: the scratchpad's bytes, or None without one.
        self.scratchpad_window: Optional[Tuple[int, int]] = (
            (self.scratchpad.base_addr, self.scratchpad.end_addr) if self.scratchpad else None
        )
        #: ``(lo, hi, half)``: the four ping-pong halves tile ``[lo, hi)`` in
        #: ``half``-byte steps (input ping, pong, output ping, pong), or None.
        #: An access belongs to a half only if it fits inside that half.
        self.pingpong_window: Optional[Tuple[int, int, int]] = (
            (self.pingpong.ping.base_addr, self.pingpong_out.pong.end_addr,
             self.pingpong.buffer_bytes)
            if self.pingpong
            else None
        )
        self.buckets = StallBuckets()
        self._dram_latency = dram.latency_cycles(core.frequency_ghz)
        self._prefetching = core.prefetcher is not PrefetcherKind.NONE and self.l1 is not None

    # -- classification ----------------------------------------------------

    def region(self, addr: int, size: int = 1) -> str:
        window = self.scratchpad_window
        if window is not None and window[0] <= addr and addr + size <= window[1]:
            return "scratchpad"
        window = self.pingpong_window
        if window is not None:
            lo, hi, half = window
            if lo <= addr and addr + size <= hi and (addr - lo) % half + size <= half:
                return "pingpong"
        return "dram"

    # -- the timing oracle ----------------------------------------------------

    def access(
        self, pc: int, addr: int, size: int, access: AccessType, cycle: float
    ) -> AccessResult:
        """Time one data access; updates stall buckets and DRAM traffic."""
        region = self.region(addr, size)
        is_write = access is AccessType.STORE
        buckets = self.buckets
        if region != "dram":
            # Timing is identical for any ping-pong half and either
            # direction; ping-pong accesses count against the input ping.
            pad = self.scratchpad if region == "scratchpad" else self.pingpong.ping
            pad.record(size, is_write)
            # A 1-cycle scratchpad is fully pipelined (no stall); each extra
            # latency cycle and each extra port beat stalls the in-order pipe.
            stall = pad.access_latency(size) - 1
            buckets.scratchpad_stall += stall
            return AccessResult(stall, region)

        l1 = self.l1
        if l1 is None:
            # No cache in front of DRAM (UDP lanes copy via firmware; plain
            # cores without caches pay the full round trip).
            stall = self._dram_latency
            buckets.dram_stall += stall
            self.dram.add_traffic("core_writeback" if is_write else "core_fill", size)
            return AccessResult(stall, "dram", size)

        hit, extra_wait, writeback = l1.lookup(addr, is_write, cycle)
        if hit:
            buckets.l1_wait += extra_wait
            result = AccessResult(extra_wait, "l1") if extra_wait else _L1_HIT
        else:
            line = l1.line_bytes
            dram_bytes = 0
            if writeback:
                dram_bytes += line
                self.dram.add_traffic("core_writeback", line)
            l2 = self.l2
            if l2 is not None:
                l2_hit, l2_wait, l2_writeback = l2.lookup(addr, is_write, cycle)
                l2_latency = l2.config.hit_latency_cycles
                if l2_hit:
                    stall = l2_latency + l2_wait
                    buckets.l2_stall += stall
                    level = "l2"
                else:
                    if l2_writeback:
                        dram_bytes += line
                        self.dram.add_traffic("core_writeback", line)
                    stall = l2_latency + self._dram_latency
                    buckets.l2_stall += l2_latency
                    buckets.dram_stall += self._dram_latency
                    dram_bytes += line
                    self.dram.add_traffic("core_fill", line)
                    l2.set_fill_time(addr, cycle + stall)
                    level = "dram"
            else:
                stall = self._dram_latency
                buckets.dram_stall += stall
                dram_bytes += line
                self.dram.add_traffic("core_fill", line)
                level = "dram"
            l1.set_fill_time(addr, cycle + stall)
            result = AccessResult(stall, level, dram_bytes)
        if self._prefetching:
            self._run_prefetcher(pc, addr, cycle)
        return result

    def _run_prefetcher(self, pc: int, addr: int, cycle: float) -> None:
        predictions = self.prefetcher.observe(pc, addr)
        for target in predictions:
            if target < 0 or target >= DRAM_SPACE_BYTES + SCRATCHPAD_BASE:
                continue
            # Prefetch fills come from L2 if present there, else from DRAM.
            if self.l2 is not None and self.l2.contains(target):
                ready = cycle + self.l2.config.hit_latency_cycles
                if self.l1.prefetch(target, ready):
                    pass  # L2 -> L1 move, no DRAM traffic
            else:
                ready = cycle + self._dram_latency
                if self.l1.prefetch(target, ready):
                    line = self.l1.config.line_bytes
                    self.dram.add_traffic("core_fill", line)
                    if self.l2 is not None:
                        self.l2.prefetch(target, ready)

    # -- bookkeeping -----------------------------------------------------------

    def add_compute_cycles(self, cycles: float) -> None:
        self.buckets.compute += cycles

    def add_stream_stall(self, cycles: float) -> None:
        self.buckets.stream_stall += cycles

    def reset_stats(self) -> None:
        self.buckets = StallBuckets()
        if self.scratchpad is not None:
            self.scratchpad.stats = ScratchpadStats()
        for pair in (self.pingpong, self.pingpong_out):
            if pair is not None:
                pair.ping.stats = ScratchpadStats()
                pair.pong.stats = ScratchpadStats()
        if self.l1 is not None:
            self.l1.flush()
            self.l1.stats.__init__()
        if self.l2 is not None:
            self.l2.flush()
            self.l2.stats.__init__()
        self.prefetcher.reset()


def build_hierarchy(core: CoreConfig, dram_config: Optional[DRAMConfig] = None) -> MemoryHierarchy:
    """Construct a hierarchy (and its DRAM model) for a Table IV core."""
    dram = DRAMModel(dram_config or DRAMConfig())
    return MemoryHierarchy(core, dram)
