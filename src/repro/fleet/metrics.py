"""Tail-at-scale metrics for a fleet campaign.

One device's p99 is a device property; a *fleet's* p99 is dominated by
whichever device is having the worst time (Dean & Barroso, "The Tail at
Scale"). :class:`FleetReport` therefore keeps both views: per-device
:class:`DeviceStats` (so a straggler is attributable) and the fleet-wide
latency distribution including p99.9 (the quantile rack-scale hedging is
designed to rescue), plus hedge economics (issue/win counts), cross-device
reconstruction accounting, and an end-of-run integrity verdict.

Everything needed for the CI fingerprint check lives in
:meth:`FleetReport.fingerprint` (hashed by
:meth:`~repro.report.Report.fingerprint_hex`) — two same-seed runs must
produce byte-identical hex digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.report import Report
from repro.utils.stats import percentile


@dataclass
class DeviceStats:
    """Everything the fleet router observed about one device."""

    device: int
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    recovered: int = 0
    hedges_issued: int = 0
    hedges_won: int = 0
    reconstructions: int = 0
    pages_rebuilt: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    latencies_ns: List[float] = field(default_factory=list)
    max_inflight: int = 0
    dead: bool = False

    @property
    def mean_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns)

    @property
    def p99_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return percentile(self.latencies_ns, 99.0)


@dataclass
class FleetReport(Report):
    """Outcome of one multi-device fleet campaign."""

    config_name: str
    num_devices: int
    placement: str
    hedging: bool
    seed: int
    duration_ns: float
    horizon_ns: float
    devices: Dict[int, DeviceStats]
    #: Fleet-wide completion latencies (every command, regardless of device).
    latencies_ns: List[float] = field(default_factory=list)
    submitted: int = 0
    completed: int = 0
    dropped: int = 0
    failed: int = 0
    recovered: int = 0
    #: Commands whose primary was hedged / whose hedge finished first.
    hedges_issued: int = 0
    hedges_won: int = 0
    #: Cross-device rebuilds (hedges served degraded + post-kill repairs).
    reconstructions: int = 0
    pages_rebuilt: int = 0
    recovery_bytes: int = 0
    recovery_span_ns: float = 0.0
    corruption_events: int = 0
    #: Post-run sweep: pages on a killed device checked vs reconstructed.
    integrity_pages_checked: int = 0
    integrity_pages_bad: int = 0
    #: Events the simulation kernel dispatched (outside the fingerprint).
    sim_events: int = 0

    # -- fleet-wide latency ----------------------------------------------------

    def latency_percentile(self, pct: float) -> float:
        if not self.latencies_ns:
            return 0.0
        return percentile(self.latencies_ns, pct)

    @property
    def p50_latency_ns(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_ns(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99_latency_ns(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def p999_latency_ns(self) -> float:
        return self.latency_percentile(99.9)

    @property
    def mean_latency_ns(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns)

    # -- skew / hedging / recovery --------------------------------------------

    @property
    def device_skew(self) -> float:
        """Completed-command imbalance across live devices: max/mean - 1."""
        counts = [s.completed for s in self.devices.values() if not s.dead]
        if not counts or sum(counts) == 0:
            return 0.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean - 1.0 if mean else 0.0

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of issued hedges that beat their primary."""
        return self.hedges_won / self.hedges_issued if self.hedges_issued else 0.0

    @property
    def success_rate(self) -> float:
        """Fraction of completed commands that returned correct data."""
        return (self.completed - self.failed) / self.completed if self.completed else 1.0

    @property
    def recovery_goodput_gbps(self) -> float:
        """Bytes reconstructed from peers per ns of rebuild span (GB/s)."""
        if self.recovery_span_ns <= 0:
            return 0.0
        return self.recovery_bytes / self.recovery_span_ns

    @property
    def healthy(self) -> bool:
        """No page left corrupt by the sweep and none served corrupt."""
        return self.integrity_pages_bad == 0 and self.corruption_events == 0

    @property
    def commands_per_second(self) -> float:
        """Simulated-time service rate (completions per simulated second)."""
        if self.horizon_ns <= 0:
            return 0.0
        return self.completed / (self.horizon_ns * 1e-9)

    # -- determinism -----------------------------------------------------------

    def fingerprint(self) -> Tuple:
        """Deterministic digest: same seed ⇒ identical tuple, run to run."""
        per_device = tuple(
            (
                device,
                s.submitted,
                s.completed,
                s.failed,
                s.recovered,
                s.hedges_issued,
                s.hedges_won,
                s.reconstructions,
                s.pages_rebuilt,
                s.bytes_in,
                s.bytes_out,
                s.max_inflight,
                s.dead,
                round(sum(s.latencies_ns), 6),
            )
            for device, s in sorted(self.devices.items())
        )
        return per_device + (
            self.submitted,
            self.completed,
            self.dropped,
            self.failed,
            self.recovered,
            self.hedges_issued,
            self.hedges_won,
            self.reconstructions,
            self.pages_rebuilt,
            self.recovery_bytes,
            self.corruption_events,
            self.integrity_pages_checked,
            self.integrity_pages_bad,
            round(self.horizon_ns, 6),
            round(sum(self.latencies_ns), 6),
            round(self.p999_latency_ns, 6),
        )

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """Human-readable fleet table plus tail/hedge/recovery summary."""
        lines = [
            f"fleet: config={self.config_name} devices={self.num_devices} "
            f"placement={self.placement} hedging={'on' if self.hedging else 'off'} "
            f"seed={self.seed}",
            f"duration {self.duration_ns / 1e3:.0f} us, horizon {self.horizon_ns / 1e3:.0f} us, "
            f"{self.completed} completed / {self.dropped} dropped, "
            f"{self.commands_per_second:,.0f} cmd/s (simulated)",
            "",
            f"{'device':>6} {'done':>6} {'fail':>5} {'rcvr':>5} {'hedge':>6} "
            f"{'won':>4} {'rebuild':>7} {'p99 us':>8} {'mean us':>8} {'maxIF':>5}",
        ]
        for device, s in sorted(self.devices.items()):
            tag = f"{device}*" if s.dead else f"{device}"
            lines.append(
                f"{tag:>6} {s.completed:>6d} {s.failed:>5d} {s.recovered:>5d} "
                f"{s.hedges_issued:>6d} {s.hedges_won:>4d} {s.reconstructions:>7d} "
                f"{s.p99_latency_ns / 1e3:>8.1f} {s.mean_latency_ns / 1e3:>8.1f} "
                f"{s.max_inflight:>5d}"
            )
        lines += [
            "",
            f"fleet tail   : p50 {self.p50_latency_ns / 1e3:.1f} us, "
            f"p95 {self.p95_latency_ns / 1e3:.1f} us, "
            f"p99 {self.p99_latency_ns / 1e3:.1f} us, "
            f"p99.9 {self.p999_latency_ns / 1e3:.1f} us",
            f"skew         : {self.device_skew:.1%} completed-command imbalance",
        ]
        if self.hedges_issued:
            lines.append(
                f"hedging      : {self.hedges_issued} issued, {self.hedges_won} won "
                f"({self.hedge_win_rate:.1%} win rate)"
            )
        if self.reconstructions or self.failed or self.recovered:
            lines.append(
                f"recovery     : {self.success_rate:.2%} command success, "
                f"{self.reconstructions} cross-device rebuilds "
                f"({self.pages_rebuilt} pages), "
                f"goodput {self.recovery_goodput_gbps:.2f} GB/s"
            )
        if self.integrity_pages_checked:
            verdict = "OK" if self.integrity_pages_bad == 0 else "CORRUPT"
            lines.append(
                f"integrity    : {self.integrity_pages_checked} pages swept, "
                f"{self.integrity_pages_bad} bad, "
                f"{self.corruption_events} corruption events [{verdict}]"
            )
        lines.append(f"fingerprint  : {self.fingerprint_hex()[:16]}")
        return "\n".join(lines)
