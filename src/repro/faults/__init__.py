"""Fault-injection campaigns and RAID-backed recovery (``repro.faults``).

Computational storage is only useful if it keeps serving when the media
misbehaves, so this package stresses the flash → firmware → serve stack
end to end: a seeded :class:`FaultInjector` corrupts pages as they are
read (sparse correctable noise, dense uncorrectable bursts, slow dies,
whole channel/chip/plane failures), the firmware's
:class:`~repro.ssd.firmware.RecoveryController` climbs the read-retry →
RAID-reconstruction → remap ladder, and a :class:`FaultCampaign` wraps a
multi-tenant serve run with golden-copy verification so every recovery is
checked bit-for-bit.

Everything is a pure function of the campaign seed: same seed, same
corrupted bits, same recovery report fingerprint.
"""

from __future__ import annotations

from repro.config import FaultConfig, HardFault
from repro.faults.campaign import (
    CampaignReport,
    FaultCampaign,
    default_fault_tenants,
    golden_page,
)
from repro.faults.injector import FaultInjector, ReadFault
from repro.faults.raidmap import PARITY_LPA_BASE, RaidGroupMap

__all__ = [
    "FaultConfig",
    "HardFault",
    "FaultInjector",
    "ReadFault",
    "RaidGroupMap",
    "PARITY_LPA_BASE",
    "FaultCampaign",
    "CampaignReport",
    "default_fault_tenants",
    "golden_page",
]
