"""Configuration for the ZNS LSM campaign (``python -m repro zns``).

The flash geometry is deliberately small-zone: a zone is one block group
(same block index across every die/plane of one chip), so shrinking
``blocks_per_plane`` and ``pages_per_block`` gives many small zones —
512 zones of 32 pages (128 KiB) here — which keeps flush/compaction churn
high enough to exercise zone allocation, resets, and the open-zone limit
within a few simulated milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import FlashConfig, SSDConfig, assasin_sb_config, check_count
from repro.errors import ConfigError

#: Compaction placement policies (:class:`ZnsConfig.compaction`).
COMPACTION_POLICIES = ("host", "device", "auto")


def zns_flash_config() -> FlashConfig:
    """Small-zone geometry: 4ch x 2chip x (2die x 2plane) x 64blk x 8pg.

    -> 512 zones, each 2*2*8 = 32 pages (128 KiB), 64 MiB total. The
    timings are SLC-mode (small zones are how ZNS drives expose their SLC
    region): 8 us reads, 30 us programs, 0.5 ms erases.
    """
    return FlashConfig(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=2,
        blocks_per_plane=64,
        pages_per_block=8,
        read_latency_ns=8_000.0,
        program_latency_ns=30_000.0,
        erase_latency_ns=500_000.0,
    )


@dataclass(frozen=True)
class ZnsConfig:
    """One seeded ZNS LSM campaign: tenants, tree shape, placement policy."""

    seed: int = 7
    duration_ns: float = 6_000_000.0
    #: Closed-loop put issuers with open-loop (spawned) gets.
    num_tenants: int = 4
    mean_interarrival_ns: float = 400.0
    put_fraction: float = 0.9
    key_space: int = 20_000
    #: Host-side latency charged to memtable hits / bloom-filter misses.
    probe_ns: float = 250.0
    # -- LSM tree shape --------------------------------------------------------
    memtable_records: int = 1024
    l0_runs_trigger: int = 4
    fanout: int = 4
    max_levels: int = 4
    #: Victim runs per compaction; bounded by the merge kernel's k <= 4.
    compaction_runs: int = 4
    #: Cap on pages per run segment: long runs stripe across this many
    #: pages per zone, so their appends spread over several chips.
    run_segment_pages: int = 8
    compaction_check_ns: float = 50_000.0
    # -- device ----------------------------------------------------------------
    max_open_zones: int = 8
    #: "host" reads runs up and writes the merge back; "device" runs the
    #: k-way merge kernel in the SSD; "auto" asks the CostSource.
    compaction: str = "auto"

    def __post_init__(self) -> None:
        if self.compaction not in COMPACTION_POLICIES:
            raise ConfigError(
                f"compaction policy {self.compaction!r} not in {COMPACTION_POLICIES}"
            )
        check_count(self.compaction_runs, "compaction_runs", 2, 4)  # the merge kernel's k
        check_count(self.l0_runs_trigger, "l0_runs_trigger", 2)
        check_count(self.fanout, "fanout")
        # L0 compacts into level 1, so the tree needs at least two levels.
        check_count(self.max_levels, "max_levels", 2)
        check_count(self.num_tenants, "num_tenants")
        check_count(self.memtable_records, "memtable_records")
        check_count(self.key_space, "key_space")
        check_count(self.run_segment_pages, "run_segment_pages")
        check_count(self.max_open_zones, "max_open_zones")
        if not 0.0 <= self.put_fraction <= 1.0:
            raise ConfigError("put_fraction must be a fraction")
        if not (math.isfinite(self.duration_ns) and self.duration_ns > 0):
            raise ConfigError(f"duration_ns must be finite and > 0, got {self.duration_ns!r}")
        if not (math.isfinite(self.mean_interarrival_ns) and self.mean_interarrival_ns > 0):
            raise ConfigError(
                f"mean_interarrival_ns must be finite and > 0, got {self.mean_interarrival_ns!r}"
            )
        # The compaction manager re-wakes every check interval; one that
        # rounds to 0 ns would re-wake at its own instant forever.
        if not (math.isfinite(self.compaction_check_ns) and round(self.compaction_check_ns) >= 1):
            raise ConfigError(
                f"compaction_check_ns must round to >= 1 ns, got {self.compaction_check_ns!r}"
            )
        if not (math.isfinite(self.probe_ns) and self.probe_ns >= 0):
            raise ConfigError(f"probe_ns must be finite and >= 0, got {self.probe_ns!r}")

    def ssd(self) -> SSDConfig:
        """The AssasinSb device, re-geometried for small zones."""
        return assasin_sb_config(flash=zns_flash_config())
