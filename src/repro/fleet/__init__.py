"""Rack-scale fleet simulation: N computational SSDs on one event kernel.

One device is a component; a *fleet* of peers is the deployment unit the
paper's storage-side computing targets at scale. This package instantiates
N :class:`~repro.ssd.device.ComputationalSSD` peers on a **single shared**
:class:`~repro.sim.Simulator` and layers on the distributed-systems
mechanics that only exist above one device:

* **Placement** (:mod:`repro.fleet.placement`) — a consistent-hash ring
  with virtual nodes shards tenant LPA ranges onto devices; the ``"load"``
  policy spreads write traffic by live telemetry.
* **Redundancy** (:mod:`repro.fleet.replication`) — RAID-4 stripes whose
  members live on pairwise-distinct devices, so one whole device can fail
  and every page it held is reconstructable from peers.
* **Routing + hedging** (:mod:`repro.fleet.router`) — per-device bounded
  dispatch, plus duplicate-after-p95 hedged requests served as degraded
  reads from stripe-mates (the tail-at-scale defence).
* **Campaigns + metrics** (:mod:`repro.fleet.campaign`,
  :mod:`repro.fleet.metrics`) — seeded end-to-end runs with golden-data
  integrity verification and fleet-wide p99/p99.9 reporting.

``FleetCampaign(config, fleet_config, ...).run()`` is the one way to run
a campaign; the ``python -m repro fleet`` CLI wraps it.
"""

from __future__ import annotations

from repro.fleet.campaign import (
    FleetCampaign,
    ShardedWorkloadGenerator,
    default_fleet_tenants,
)
from repro.fleet.config import PLACEMENT_POLICIES, FleetConfig
from repro.fleet.metrics import DeviceStats, FleetReport
from repro.fleet.placement import HashRing, Placement, ring_hash
from repro.fleet.replication import CrossDeviceRaidMap, xor_pages
from repro.fleet.router import FleetRouter

__all__ = [
    "FleetConfig",
    "PLACEMENT_POLICIES",
    "HashRing",
    "Placement",
    "ring_hash",
    "CrossDeviceRaidMap",
    "xor_pages",
    "DeviceStats",
    "FleetReport",
    "FleetRouter",
    "FleetCampaign",
    "ShardedWorkloadGenerator",
    "default_fleet_tenants",
]
