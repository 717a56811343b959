"""Fleet-level configuration: device count, placement, redundancy, hedging.

A :class:`FleetConfig` describes everything *above* one device: how many
:class:`~repro.ssd.device.ComputationalSSD` peers share the rack, how the
tenant LPA space shards onto them (consistent hashing with virtual nodes),
how stripes are laid across devices for cross-device RAID, and the hedging
policy the router applies to fight tail latency. Per-device parameters
stay in :class:`~repro.config.SSDConfig`; per-device media faults stay in
:class:`~repro.config.FaultConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import FaultConfig, check_count
from repro.errors import ConfigError

#: Placement policies the fleet router understands.
PLACEMENT_POLICIES: Tuple[str, ...] = ("hash", "load")


@dataclass(frozen=True)
class FleetConfig:
    """Rack-scale fleet parameters (``repro.fleet``).

    * ``num_devices`` — peer :class:`ComputationalSSD` count (≥ 2: one
      device is a degenerate fleet and cross-device RAID needs a peer).
    * ``virtual_nodes`` — ring positions per device; more nodes smooth the
      shard distribution (≤ ~15% imbalance at the default 64).
    * ``shard_pages`` — contiguous fleet-LPA run mapped as one unit; every
      command is confined to one shard, so one device serves it whole.
    * ``placement`` — ``"hash"`` routes a shard to its ring home;
      ``"load"`` picks the least-loaded of the first ``placement_fanout``
      ring candidates using live telemetry (in-flight commands plus
      stream-core backlog) for write/scomp traffic. Reads always go to the
      data's home (data gravity).
    * ``raid_k`` — data stripes per cross-device RAID-4 group; members are
      placed on pairwise-distinct devices so any single device failure is
      reconstructable from peers (clamped to ``num_devices - 1``).
    * ``max_inflight_per_device`` — device-side dispatch bound, as in
      :class:`~repro.config.ServeConfig`.
    * Hedging: when a dispatched read/scomp is projected past the rolling
      ``hedge_quantile`` of recent fleet latency (window
      ``hedge_window``, floor ``hedge_min_delay_ns``), the router issues a
      duplicate *degraded* request against stripe-mate devices and takes
      the winner; the loser's reserved timeline slots stay (best-effort
      cancel, like an NVMe abort racing in-flight flash ops).
    * Fault shaping: ``fault`` applies one media-fault profile to every
      device; ``slow_device``/``slow_read_rate``/``slow_read_extra_ns``
      single out one straggler ("slow die at rack scale");
      ``kill_device``/``kill_at_ns`` hard-fails a whole device mid-run.
    """

    num_devices: int = 4
    virtual_nodes: int = 64
    shard_pages: int = 64
    placement: str = "hash"
    placement_fanout: int = 2
    raid_k: int = 3
    max_inflight_per_device: int = 8
    hedging: bool = True
    hedge_quantile: float = 95.0
    hedge_window: int = 128
    hedge_min_delay_ns: float = 30_000.0
    fault: Optional[FaultConfig] = None
    slow_device: int = -1
    slow_read_rate: float = 0.0
    slow_read_extra_ns: float = 150_000.0
    kill_device: int = -1
    kill_at_ns: float = 0.0

    def __post_init__(self) -> None:
        check_count(self.num_devices, "num_devices", 2)
        check_count(self.virtual_nodes, "virtual_nodes")
        check_count(self.shard_pages, "shard_pages")
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigError(
                f"unknown placement policy {self.placement!r}; "
                f"known: {PLACEMENT_POLICIES}"
            )
        check_count(self.placement_fanout, "placement_fanout")
        check_count(self.raid_k, "cross-device raid_k", 2)
        check_count(self.max_inflight_per_device, "max_inflight_per_device")
        if not 50.0 <= self.hedge_quantile <= 100.0:
            raise ConfigError("hedge_quantile must be within [50, 100]")
        check_count(self.hedge_window, "hedge_window", 8)
        if self.hedge_min_delay_ns < 0:
            raise ConfigError("hedge_min_delay_ns cannot be negative")
        if not 0.0 <= self.slow_read_rate <= 1.0:
            raise ConfigError("slow_read_rate must be within [0, 1]")
        if self.slow_read_extra_ns < 0:
            raise ConfigError("slow_read_extra_ns cannot be negative")
        # -1 names no device.
        check_count(self.slow_device, "slow_device", -1, self.num_devices - 1)
        check_count(self.kill_device, "kill_device", -1, self.num_devices - 1)
        if self.kill_device >= 0 and self.kill_at_ns < 0:
            raise ConfigError("kill_at_ns cannot be negative")

    @property
    def effective_raid_k(self) -> int:
        """Stripe width after clamping to the pairwise-distinct bound."""
        return min(self.raid_k, self.num_devices - 1)
