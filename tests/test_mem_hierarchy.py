"""Tests for the composed per-core memory hierarchy timing model."""

import pytest

from repro.config import (
    DRAMConfig,
    assasin_sb_cache_core,
    assasin_sp_core,
    baseline_core,
    prefetch_core,
    udp_core,
)
from repro.mem.hierarchy import (
    PINGPONG_BASE,
    SCRATCHPAD_BASE,
    AccessType,
    build_hierarchy,
)
from repro.mem.scratchpad import ScratchpadStats


def test_baseline_levels_and_latencies():
    h = build_hierarchy(baseline_core())
    # Cold miss goes to DRAM: L2 probe latency + DRAM latency.
    r0 = h.access(pc=0x400, addr=0x1000, size=4, access=AccessType.LOAD, cycle=0)
    assert r0.level == "dram"
    assert r0.stall_cycles == pytest.approx(12 + 60)
    assert r0.dram_bytes == 64
    # Second access to the same line hits L1 with no stall (pipelined).
    r1 = h.access(0x400, 0x1004, 4, AccessType.LOAD, 200)
    assert r1.level == "l1" and r1.stall_cycles == 0 and r1.dram_bytes == 0


def test_l2_hit_after_l1_eviction():
    h = build_hierarchy(baseline_core())
    # Touch enough distinct lines mapping to one L1 set to evict from L1
    # while the (much larger) L2 retains them. L1: 32KiB/8way/64B = 64 sets.
    set_stride = 64 * 64  # one L1 set apart
    for i in range(9):  # 9 > 8 ways
        h.access(0x400, i * set_stride, 4, AccessType.LOAD, cycle=i * 1000)
    r = h.access(0x400, 0, 4, AccessType.LOAD, cycle=100_000)
    assert r.level == "l2"
    assert r.stall_cycles == pytest.approx(12)


def test_scratchpad_access_no_dram_traffic():
    h = build_hierarchy(assasin_sp_core())
    r = h.access(0x400, SCRATCHPAD_BASE + 16, 4, AccessType.LOAD, 0)
    assert r.level == "scratchpad"
    assert r.stall_cycles == 0  # 1-cycle pad is fully pipelined
    assert r.dram_bytes == 0
    assert h.dram.traffic.total == 0


def test_pingpong_region_detected():
    h = build_hierarchy(assasin_sp_core())
    r = h.access(0x400, PINGPONG_BASE + 100, 8, AccessType.LOAD, 0)
    assert r.level == "pingpong"
    assert r.dram_bytes == 0


def test_udp_core_without_cache_pays_dram_every_access():
    h = build_hierarchy(udp_core(), DRAMConfig())
    r0 = h.access(0x400, 0x2000, 4, AccessType.LOAD, 0)
    r1 = h.access(0x400, 0x2004, 4, AccessType.LOAD, 200)
    assert r0.level == "dram" and r1.level == "dram"
    assert r0.stall_cycles == pytest.approx(60)
    assert h.dram.traffic.core_fill == 8


def test_prefetcher_hides_latency_on_streaming():
    plain = build_hierarchy(baseline_core())
    pf = build_hierarchy(prefetch_core())
    cycle_plain = 0.0
    cycle_pf = 0.0
    pc = 0x400
    for addr in range(0x0, 0x8000, 8):  # 32 KiB sequential stream
        cycle_plain += 1 + plain.access(pc, addr, 8, AccessType.LOAD, cycle_plain).stall_cycles
        cycle_pf += 1 + pf.access(pc, addr, 8, AccessType.LOAD, cycle_pf).stall_cycles
    assert cycle_pf < cycle_plain, "DCPT should reduce total cycles on a stream"


def test_stall_buckets_accumulate():
    h = build_hierarchy(baseline_core())
    h.access(0x400, 0x1000, 4, AccessType.LOAD, 0)
    assert h.buckets.dram_stall == pytest.approx(60)
    assert h.buckets.l2_stall == pytest.approx(12)
    h.add_compute_cycles(10)
    h.add_stream_stall(5)
    d = h.buckets.as_dict()
    assert d["compute"] == 10 and d["stream_stall"] == 5
    assert h.buckets.total_stall == pytest.approx(77)


def test_writeback_traffic_counted():
    h = build_hierarchy(baseline_core())
    # Dirty a line, then evict it from both L1 and L2 by sweeping one set.
    # L2: 256KiB/16way/64B = 256 sets -> set stride 256*64 = 16 KiB.
    h.access(0x400, 0x0, 4, AccessType.STORE, 0)
    stride = 256 * 64
    for i in range(1, 18):
        h.access(0x400, i * stride, 4, AccessType.LOAD, i * 1000)
    assert h.dram.traffic.core_writeback >= 64


def test_reset_stats_clears_everything():
    h = build_hierarchy(baseline_core())
    h.access(0x400, 0x1000, 4, AccessType.LOAD, 0)
    h.reset_stats()
    assert h.buckets.total_stall == 0
    assert h.l1.stats.accesses == 0
    r = h.access(0x400, 0x1000, 4, AccessType.LOAD, 0)
    assert r.level == "dram"  # caches were flushed


def test_sb_cache_core_has_cache_and_scratchpad():
    h = build_hierarchy(assasin_sb_cache_core())
    assert h.l1 is not None and h.scratchpad is not None
    r = h.access(0x400, SCRATCHPAD_BASE, 4, AccessType.LOAD, 0)
    assert r.level == "scratchpad"
    r2 = h.access(0x400, 0x500, 4, AccessType.LOAD, 1)
    assert r2.level == "dram"  # falls back to the DRAM-backed cache path


def test_reset_stats_clears_pad_counters():
    h = build_hierarchy(assasin_sp_core())
    h.access(0x400, SCRATCHPAD_BASE, 4, AccessType.STORE, 0)
    h.access(0x400, PINGPONG_BASE + 100, 4, AccessType.LOAD, 1)
    assert h.scratchpad.stats.writes == 1 and h.pingpong.ping.stats.reads == 1
    h.reset_stats()
    for pad in (h.scratchpad, h.pingpong.ping, h.pingpong.pong,
                h.pingpong_out.ping, h.pingpong_out.pong):
        assert pad.stats == ScratchpadStats()


def test_straddling_access_is_dram_space():
    """An access that crosses a pad boundary belongs to no pad."""
    h = build_hierarchy(assasin_sp_core())
    sp_end = SCRATCHPAD_BASE + h.scratchpad.size_bytes
    half = h.pingpong.buffer_bytes
    assert h.region(SCRATCHPAD_BASE - 2, 4) == "dram"
    assert h.region(sp_end - 4, 4) == "scratchpad"
    assert h.region(sp_end - 2, 4) == "dram"
    for k in range(1, 4):  # between two halves
        assert h.region(PINGPONG_BASE + k * half - 2, 4) == "dram"
        assert h.region(PINGPONG_BASE + k * half, 4) == "pingpong"
    assert h.region(PINGPONG_BASE + 4 * half - 4, 4) == "pingpong"
    assert h.region(PINGPONG_BASE + 4 * half - 2, 4) == "dram"
