"""Metrics for ZNS LSM campaigns: one report, renderable and fingerprintable.

The report is a plain dataclass of counters; :meth:`fingerprint` is a
value tuple whose SHA-256 (:meth:`~repro.report.Report.fingerprint_hex`)
byte-identifies a run — two same-seed campaigns must produce equal hex
digests (the determinism gate in CI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.report import Report
from repro.utils.stats import percentile


@dataclass
class ZnsReport(Report):
    """Everything a ZNS campaign run produced."""

    policy: str = "auto"
    seed: int = 0
    duration_ns: float = 0.0
    # -- foreground ---------------------------------------------------------------
    puts: int = 0
    gets: int = 0
    get_memtable_hits: int = 0
    get_run_hits: int = 0
    get_misses: int = 0
    get_latencies_ns: List[float] = field(default_factory=list)
    # -- background ---------------------------------------------------------------
    flushes: int = 0
    flush_pages: int = 0
    compactions: int = 0
    compactions_host: int = 0
    compactions_device: int = 0
    #: Bytes the *compaction path* moved over the host link (the offload
    #: headline: device-side compaction keeps this near zero).
    compaction_link_bytes: int = 0
    #: Bytes of run data a compaction read + wrote (either placement).
    compaction_data_bytes: int = 0
    # -- device -------------------------------------------------------------------
    bytes_to_host: int = 0
    bytes_from_host: int = 0
    zone_resets: int = 0
    zone_appends: int = 0
    zones_in_use: int = 0
    wear_total: int = 0
    # -- tree / sim ---------------------------------------------------------------
    levels_runs: List[int] = field(default_factory=list)
    live_records: int = 0
    sim_events: int = 0
    horizon_ns: float = 0.0

    # -- derived ------------------------------------------------------------------

    @property
    def link_bytes_total(self) -> int:
        return self.bytes_to_host + self.bytes_from_host

    def get_percentile_ns(self, pct: float) -> float:
        if not self.get_latencies_ns:
            return 0.0
        return percentile(self.get_latencies_ns, pct)

    @property
    def get_p50_ns(self) -> float:
        return self.get_percentile_ns(50.0)

    @property
    def get_p99_ns(self) -> float:
        return self.get_percentile_ns(99.0)

    @property
    def ops_per_sec(self) -> float:
        if self.horizon_ns <= 0:
            return 0.0
        return (self.puts + self.gets) / (self.horizon_ns * 1e-9)

    # -- identity -----------------------------------------------------------------

    def fingerprint(self) -> Tuple:
        """The run's observable behaviour as one value tuple.

        ``sim_events`` is left out (:class:`~repro.report.Report`);
        :meth:`to_dict` and :meth:`render` still carry it.
        """
        return (
            self.policy,
            self.seed,
            round(self.duration_ns, 3),
            self.puts,
            self.gets,
            self.get_memtable_hits,
            self.get_run_hits,
            self.get_misses,
            tuple(round(v, 3) for v in self.get_latencies_ns),
            self.flushes,
            self.flush_pages,
            self.compactions,
            self.compactions_host,
            self.compactions_device,
            self.compaction_link_bytes,
            self.compaction_data_bytes,
            self.bytes_to_host,
            self.bytes_from_host,
            self.zone_resets,
            self.zone_appends,
            self.zones_in_use,
            self.wear_total,
            tuple(self.levels_runs),
            self.live_records,
            round(self.horizon_ns, 3),
        )

    def to_dict(self) -> Dict:
        """JSON-friendly summary (latency list reduced to percentiles)."""
        return {
            "policy": self.policy,
            "seed": self.seed,
            "puts": self.puts,
            "gets": self.gets,
            "get_memtable_hits": self.get_memtable_hits,
            "get_run_hits": self.get_run_hits,
            "get_misses": self.get_misses,
            "get_p50_ns": self.get_p50_ns,
            "get_p99_ns": self.get_p99_ns,
            "ops_per_sec": self.ops_per_sec,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "compactions_host": self.compactions_host,
            "compactions_device": self.compactions_device,
            "compaction_link_bytes": self.compaction_link_bytes,
            "compaction_data_bytes": self.compaction_data_bytes,
            "link_bytes_total": self.link_bytes_total,
            "zone_resets": self.zone_resets,
            "zone_appends": self.zone_appends,
            "zones_in_use": self.zones_in_use,
            "wear_total": self.wear_total,
            "levels_runs": list(self.levels_runs),
            "live_records": self.live_records,
            "sim_events": self.sim_events,
            "fingerprint": self.fingerprint_hex(),
        }

    def render(self) -> str:
        lines = [
            f"zns campaign  : policy={self.policy} seed={self.seed} "
            f"horizon={self.horizon_ns / 1e6:.2f} ms",
            f"foreground    : {self.puts} puts, {self.gets} gets "
            f"({self.get_memtable_hits} memtable / {self.get_run_hits} run / "
            f"{self.get_misses} miss), {self.ops_per_sec / 1e6:.2f} Mops/s",
            f"get latency   : p50 {self.get_p50_ns / 1e3:.1f} us, "
            f"p99 {self.get_p99_ns / 1e3:.1f} us",
            f"lsm           : {self.flushes} flushes, {self.compactions} compactions "
            f"({self.compactions_host} host / {self.compactions_device} device), "
            f"runs per level {list(self.levels_runs)}",
            f"compaction IO : {self.compaction_data_bytes >> 10} KiB moved, "
            f"{self.compaction_link_bytes >> 10} KiB over the host link",
            f"host link     : {self.bytes_to_host >> 10} KiB up, "
            f"{self.bytes_from_host >> 10} KiB down",
            f"zones         : {self.zones_in_use} in use, {self.zone_resets} resets, "
            f"{self.zone_appends} appends, wear {self.wear_total}",
            f"sim           : {self.sim_events} events, "
            f"fingerprint {self.fingerprint_hex()[:16]}",
        ]
        return "\n".join(lines)
