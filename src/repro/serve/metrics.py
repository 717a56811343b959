"""Per-tenant SLO metrics and the device-level serve report.

Latency tallies live in shared :class:`repro.telemetry.counters.Histogram`
objects (nearest-rank percentiles through
:func:`repro.utils.stats.percentile`, the same convention as the
firmware's background-IO p99), so a "p99 of X ns" always names a latency
some real command actually saw, and the serve numbers appear in the
device-wide :class:`~repro.telemetry.counters.CounterRegistry` snapshot
under ``serve.<tenant>.*`` instead of private per-module lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.report import Report
from repro.telemetry.counters import CounterRegistry, Histogram
from repro.utils.stats import percentile


@dataclass
class TenantMetrics:
    """Everything the serving layer observed about one tenant."""

    tenant: str
    weight: float
    kind: str
    latency: Histogram = field(default_factory=lambda: Histogram("latency_ns"))
    wait: Histogram = field(default_factory=lambda: Histogram("wait_ns"))
    queue_depth: Histogram = field(default_factory=lambda: Histogram("queue_depth"))
    submitted: int = 0
    completed: int = 0
    dropped: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Fault-campaign degradation accounting (all zero on clean runs).
    failed: int = 0
    recovered: int = 0
    timeouts: int = 0
    cmd_retries: int = 0

    # -- recording -----------------------------------------------------------

    def record_completion(
        self,
        latency_ns: float,
        wait_ns: float,
        bytes_in: int,
        bytes_out: int,
        status: str = "ok",
        timed_out: bool = False,
    ) -> None:
        self.completed += 1
        self.latency.observe(latency_ns)
        self.wait.observe(wait_ns)
        self.bytes_in += bytes_in
        self.bytes_out += bytes_out
        if status == "failed":
            self.failed += 1
        elif status == "recovered":
            self.recovered += 1
        if timed_out:
            self.timeouts += 1

    @property
    def succeeded(self) -> int:
        """Completions that returned correct data (possibly after recovery)."""
        return self.completed - self.failed

    # -- latency -------------------------------------------------------------

    @property
    def latencies_ns(self) -> Sequence[float]:
        """Raw latency samples (the histogram's backing store)."""
        return self.latency.values

    @property
    def wait_ns(self) -> Sequence[float]:
        return self.wait.values

    @property
    def p50_latency_ns(self) -> float:
        return self.latency.percentile(50.0)

    @property
    def p95_latency_ns(self) -> float:
        return self.latency.percentile(95.0)

    @property
    def p99_latency_ns(self) -> float:
        return self.latency.percentile(99.0)

    @property
    def mean_latency_ns(self) -> float:
        return self.latency.mean

    # -- queue/throughput ----------------------------------------------------

    @property
    def max_queue_depth(self) -> int:
        return int(self.queue_depth.maximum) if self.queue_depth.count else 0

    def throughput_bytes_per_ns(self, horizon_ns: float) -> float:
        return self.bytes_in / horizon_ns if horizon_ns > 0 else 0.0


@dataclass
class ServeReport(Report):
    """Outcome of one multi-tenant serve run."""

    config_name: str
    policy: str
    seed: int
    duration_ns: float
    horizon_ns: float
    tenants: Dict[str, TenantMetrics]
    core_utilisation: List[float]
    channel_utilisation: List[float]
    #: Per-fault-class counters from the recovery controller (empty on
    #: clean runs) and the latency of every RAID reconstruction performed.
    faults: Dict[str, int] = field(default_factory=dict)
    reconstruction_ns: List[float] = field(default_factory=list)
    #: Events the simulation kernel dispatched (outside the fingerprint).
    sim_events: int = 0

    @property
    def total_completed(self) -> int:
        return sum(t.completed for t in self.tenants.values())

    @property
    def total_failed(self) -> int:
        return sum(t.failed for t in self.tenants.values())

    @property
    def total_recovered(self) -> int:
        return sum(t.recovered for t in self.tenants.values())

    @property
    def success_rate(self) -> float:
        """Fraction of completed commands that returned correct data."""
        done = self.total_completed
        return (done - self.total_failed) / done if done else 1.0

    @property
    def goodput_gbps(self) -> float:
        """Throughput counting only successfully served bytes."""
        ok_bytes = sum(
            t.bytes_in for t in self.tenants.values() if t.completed
        ) - sum(
            # Failed commands moved no useful data; approximate their share
            # by the tenant's mean command size.
            (t.bytes_in / t.completed) * t.failed
            for t in self.tenants.values()
            if t.completed
        )
        return ok_bytes / self.horizon_ns if self.horizon_ns > 0 else 0.0

    @property
    def reconstruction_p99_ns(self) -> float:
        if not self.reconstruction_ns:
            return 0.0
        return percentile(self.reconstruction_ns, 99.0)

    @property
    def total_dropped(self) -> int:
        return sum(t.dropped for t in self.tenants.values())

    @property
    def total_bytes(self) -> int:
        return sum(t.bytes_in for t in self.tenants.values())

    @property
    def throughput_gbps(self) -> float:
        return self.total_bytes / self.horizon_ns if self.horizon_ns > 0 else 0.0

    def fingerprint(self) -> Tuple:
        """A deterministic digest of the run, for same-seed-same-result tests."""
        return tuple(
            (
                name,
                t.submitted,
                t.completed,
                t.dropped,
                t.bytes_in,
                t.bytes_out,
                round(t.mean_latency_ns, 6),
                round(t.p99_latency_ns, 6),
                t.failed,
                t.recovered,
                t.timeouts,
                t.cmd_retries,
            )
            for name, t in self.tenants.items()
        ) + (
            round(self.horizon_ns, 6),
            tuple(sorted(self.faults.items())),
            round(sum(self.reconstruction_ns), 6),
        )

    def render(self) -> str:
        """Human-readable per-tenant table plus device utilisation."""
        lines = [
            f"serve: config={self.config_name} policy={self.policy} seed={self.seed}",
            f"duration {self.duration_ns / 1e3:.0f} us, horizon {self.horizon_ns / 1e3:.0f} us, "
            f"aggregate {self.throughput_gbps:.2f} GB/s, "
            f"{self.total_completed} completed / {self.total_dropped} dropped",
            "",
            f"{'tenant':<10} {'wt':>4} {'kind':<6} {'done':>6} {'drop':>5} "
            f"{'p50 us':>8} {'p95 us':>8} {'p99 us':>8} {'mean us':>8} {'GB/s':>6} {'maxQD':>5}",
        ]
        for name, t in self.tenants.items():
            lines.append(
                f"{name:<10} {t.weight:>4.1f} {t.kind:<6} {t.completed:>6d} {t.dropped:>5d} "
                f"{t.p50_latency_ns / 1e3:>8.1f} {t.p95_latency_ns / 1e3:>8.1f} "
                f"{t.p99_latency_ns / 1e3:>8.1f} {t.mean_latency_ns / 1e3:>8.1f} "
                f"{t.throughput_bytes_per_ns(self.horizon_ns):>6.2f} {t.max_queue_depth:>5d}"
            )
        cores = " ".join(f"{u:.0%}" for u in self.core_utilisation)
        channels = " ".join(f"{u:.0%}" for u in self.channel_utilisation)
        lines += ["", f"core util    : {cores}", f"channel util : {channels}"]
        if self.faults or self.total_failed or self.total_recovered:
            lines += [
                "",
                f"recovery     : {self.success_rate:.2%} command success, "
                f"{self.total_recovered} recovered, {self.total_failed} failed, "
                f"goodput {self.goodput_gbps:.2f} GB/s",
            ]
            if self.reconstruction_ns:
                lines.append(
                    f"reconstruct  : {len(self.reconstruction_ns)} rebuilds, "
                    f"p99 {self.reconstruction_p99_ns / 1e3:.1f} us"
                )
            for name, count in sorted(self.faults.items()):
                lines.append(f"  {name:<26}: {count}")
        return "\n".join(lines)


def build_tenant_metrics(
    specs,
    weights: Optional[List[float]] = None,
    registry: Optional[CounterRegistry] = None,
) -> Dict[str, TenantMetrics]:
    """One metrics bucket per tenant spec, in declaration order.

    With a ``registry`` the latency/wait/queue-depth histograms are
    allocated through it (named ``serve.<tenant>.*``), so the serve-layer
    tallies show up in the device-wide telemetry snapshot alongside the
    flash and host counters.
    """
    if weights is None:
        weights = [s.weight for s in specs]
    out: Dict[str, TenantMetrics] = {}
    for s, w in zip(specs, weights):
        if registry is not None:
            hist = lambda leaf: registry.histogram(f"serve.{s.name}.{leaf}")  # noqa: E731
            out[s.name] = TenantMetrics(
                tenant=s.name,
                weight=w,
                kind=s.kind,
                latency=hist("latency_ns"),
                wait=hist("wait_ns"),
                queue_depth=hist("queue_depth"),
            )
        else:
            out[s.name] = TenantMetrics(tenant=s.name, weight=w, kind=s.kind)
    return out
