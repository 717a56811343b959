"""Multi-tenant NVMe serving layer: queue pairs → arbiter → scheduler → cores.

Where :func:`repro.ssd.simulate_offload` times *one* scomp end to end, this
package serves *mixed traffic from many tenants* against one computational
SSD: per-tenant NVMe submission/completion queue pairs, pluggable QoS
arbitration (round-robin, weighted round-robin, deficit round-robin),
bounded device-side dispatch onto the stream cores and flash channels, and
per-tenant SLO metrics (p50/p95/p99 latency, throughput, queue depth,
core/channel utilisation). :func:`simulate_serve` runs it on a fresh
device; ``ServingLayer(device, tenants, ...).run(duration_ns)`` runs it on
a device you built.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import ServeConfig, SSDConfig
from repro.serve.arbiter import (
    Arbiter,
    DeficitRoundRobinArbiter,
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)
from repro.serve.metrics import ServeReport, TenantMetrics
from repro.serve.queues import CompletionQueue, QueuePair, ServeCommand, SubmissionQueue
from repro.serve.scheduler import ServingLayer
from repro.serve.service import SERVE_OUT_LPA_BASE, DeviceService
from repro.serve.workload import TenantSpec, WorkloadGenerator, default_tenants

__all__ = [
    "Arbiter",
    "RoundRobinArbiter",
    "WeightedRoundRobinArbiter",
    "DeficitRoundRobinArbiter",
    "make_arbiter",
    "ServeCommand",
    "SubmissionQueue",
    "CompletionQueue",
    "QueuePair",
    "TenantSpec",
    "WorkloadGenerator",
    "default_tenants",
    "TenantMetrics",
    "ServeReport",
    "ServingLayer",
    "DeviceService",
    "SERVE_OUT_LPA_BASE",
    "simulate_serve",
]


def simulate_serve(
    config: SSDConfig,
    tenants: Sequence[TenantSpec],
    serve_config: Optional[ServeConfig] = None,
    duration_ns: float = 2_000_000.0,
    seed: int = 0,
    telemetry=None,
) -> ServeReport:
    """Serve a multi-tenant workload on a fresh device.

    ``telemetry`` (a
    :class:`~repro.telemetry.Telemetry`) attaches a tracer/registry to the
    fresh device — pass ``Telemetry.tracing()`` to record a Chrome trace.
    """
    from repro.ssd.device import ComputationalSSD

    device = ComputationalSSD(config, telemetry=telemetry)
    return ServingLayer(device, tenants, config=serve_config, seed=seed).run(duration_ns)
