"""Seeded fault campaigns: golden data, RAID parity, serve, verify.

A :class:`FaultCampaign` turns the pieces of ``repro.faults`` into one
reproducible experiment:

1. **Preload** — build a fresh device, let the serving layer carve the
   tenant LPA regions, then program every data page with a deterministic
   per-LPA pattern (the *golden* copy kept host-side for verification) and
   one RAID-4 parity page per ``raid_k``-page group. The preload stores
   each page with :meth:`~repro.flash.array.FlashArray.preload`, which
   books no plane or bus time, so the device starts the run in
   "manufactured" state instead of spending the first millisecond of
   simulated time writing the dataset.
2. **Serve** — run the multi-tenant workload with a
   :class:`~repro.ssd.firmware.RecoveryController` on the read path; the
   :class:`~repro.faults.injector.FaultInjector` corrupts pages as they
   are read and the firmware climbs the retry → RAID-rebuild ladder.
3. **Verify** — sweep every golden page back through the recovery path
   and compare against the golden bytes: a campaign is only healthy if
   *zero* pages were served or left corrupt.

Same seed → identical injected faults, identical recovery actions,
identical :meth:`CampaignReport.fingerprint`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import FaultConfig, ServeConfig, SSDConfig
from repro.errors import FaultError
from repro.faults.injector import FaultInjector
from repro.faults.raidmap import RaidGroupMap
from repro.report import Report
from repro.serve.metrics import ServeReport
from repro.serve.workload import TenantSpec


def default_fault_tenants() -> List[TenantSpec]:
    """A small read + scomp mix with regions sized for fast preload."""
    return [
        TenantSpec(
            name="reader", weight=2.0, kind="read",
            pages_per_command=4, interarrival_ns=20_000.0, region_pages=256,
        ),
        TenantSpec(
            name="scanner", weight=1.0, kind="scomp", kernel="scan",
            pages_per_command=8, interarrival_ns=40_000.0, region_pages=256,
        ),
    ]


def golden_page(seed: int, lpa: int, nbytes: int) -> bytes:
    """The deterministic pattern programmed into (and expected from) ``lpa``."""
    return random.Random((seed + 1) * 2_654_435_761 + lpa).randbytes(nbytes)


@dataclass
class CampaignReport(Report):
    """Everything one campaign run produced."""

    serve: ServeReport
    faults: FaultConfig
    data_pages: int
    parity_pages: int
    #: Golden-copy mismatches observed while *serving* (must stay 0).
    corruption_events: int
    #: Post-run sweep: pages checked and pages that could not be
    #: materialised bit-exactly even through RAID reconstruction.
    integrity_checked: int
    integrity_errors: int
    recovery_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def healthy(self) -> bool:
        return self.corruption_events == 0 and self.integrity_errors == 0

    @property
    def sim_events(self) -> int:
        return self.serve.sim_events

    def fingerprint(self):
        """Deterministic digest: same seed, same campaign, same tuple."""
        return (
            self.serve.fingerprint(),
            self.data_pages,
            self.parity_pages,
            self.corruption_events,
            self.integrity_checked,
            self.integrity_errors,
            tuple(sorted(self.recovery_counters.items())),
        )

    def render(self) -> str:
        f = self.faults
        lines = [
            f"fault campaign: seed={f.seed} page_error_rate={f.page_error_rate} "
            f"uncorrectable_rate={f.uncorrectable_rate} raid_k={f.raid_k}",
            f"golden data   : {self.data_pages} pages + {self.parity_pages} parity",
            f"integrity     : {self.integrity_checked} pages swept, "
            f"{self.integrity_errors} unrecoverable, "
            f"{self.corruption_events} served-corrupt "
            f"({'HEALTHY' if self.healthy else 'DATA LOSS'})",
            "",
            self.serve.render(),
        ]
        return "\n".join(lines)


class FaultCampaign:
    """One seeded fault-injection run against one device configuration."""

    def __init__(
        self,
        config: SSDConfig,
        fault_config: FaultConfig,
        tenants: Optional[Sequence[TenantSpec]] = None,
        serve_config: Optional[ServeConfig] = None,
        duration_ns: float = 500_000.0,
        seed: int = 0,
        verify_integrity: bool = True,
        telemetry=None,
    ) -> None:
        if duration_ns <= 0:
            raise FaultError("campaign duration must be positive")
        self.config = config
        self.fault_config = fault_config
        self.tenants = list(tenants) if tenants is not None else default_fault_tenants()
        self.serve_config = serve_config
        self.duration_ns = duration_ns
        self.seed = seed
        self.verify_integrity = verify_integrity
        #: Optional :class:`~repro.telemetry.Telemetry` bundle for the
        #: device under test (tracing + the shared counter registry).
        self.telemetry = telemetry
        # Populated by run(), kept for white-box inspection in tests.
        self.device = None
        self.layer = None
        self.injector: Optional[FaultInjector] = None
        self.recovery = None
        self.raid_map: Optional[RaidGroupMap] = None
        self.golden: Dict[int, bytes] = {}

    # -- preload ---------------------------------------------------------------

    def _preload(self) -> None:
        """Program golden data + parity at the mapped pages, at time zero."""
        from repro.fleet.replication import xor_pages

        device = self.device
        page_bytes = device.config.flash.page_bytes
        data_lpas: List[int] = []
        for gen in self.layer.generators:
            data_lpas.extend(
                range(gen.lpa_base, gen.lpa_base + gen.spec.region_pages)
            )
        self.raid_map = RaidGroupMap.build(data_lpas, self.fault_config.raid_k)

        golden: Dict[int, bytes] = {}
        for lpa in data_lpas:
            golden[lpa] = golden_page(self.fault_config.seed, lpa, page_bytes)
            device.array.preload(device.ftl.lookup(lpa), golden[lpa])
        for group in range(len(self.raid_map)):
            # A remainder group of one page has that page as its parity.
            parity = xor_pages([golden[m] for m in self.raid_map.members(group)])
            parity_lpa = self.raid_map.parity(group)
            golden[parity_lpa] = parity
            device.array.preload(device.ftl.write(parity_lpa), parity)
        self.golden = golden

    # -- run -------------------------------------------------------------------

    def run(self) -> CampaignReport:
        from repro.serve.scheduler import ServingLayer
        from repro.ssd.device import ComputationalSSD
        from repro.ssd.firmware import RecoveryController

        self.device = ComputationalSSD(self.config, telemetry=self.telemetry)
        # The layer's constructor carves and maps the tenant regions; the
        # recovery controller needs the resulting golden set, so it is
        # attached after preload.
        self.layer = ServingLayer(
            self.device, self.tenants, config=self.serve_config, seed=self.seed
        )
        self._preload()
        self.injector = FaultInjector(
            self.fault_config,
            self.device.config.flash,
            registry=self.device.telemetry.counters,
        )
        self.recovery = RecoveryController(
            self.device,
            self.fault_config,
            injector=self.injector,
            raid_map=self.raid_map,
            golden=self.golden,
        )
        self.layer.service.recovery = self.recovery
        serve_report = self.layer.run(self.duration_ns)

        checked = errors = 0
        if self.verify_integrity:
            checked, errors = self._sweep(serve_report.horizon_ns)
        return CampaignReport(
            serve=serve_report,
            faults=self.fault_config,
            data_pages=len(self.golden) - len(self.raid_map),
            parity_pages=len(self.raid_map),
            corruption_events=self.recovery.corruption_events,
            integrity_checked=checked,
            integrity_errors=errors,
            recovery_counters=dict(serve_report.faults),
        )

    def _sweep(self, at_ns: float):
        """Read every golden page back through the recovery ladder."""
        checked = errors = 0
        for lpa in sorted(self.golden):
            outcome = self.recovery.read_lpa(lpa, at_ns)
            checked += 1
            if outcome.data != self.golden[lpa]:
                errors += 1
        return checked, errors

