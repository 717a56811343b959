"""Fleet campaigns: build N devices, shard, preload, serve, verify.

A :class:`FleetCampaign` is the rack-scale analogue of
:class:`~repro.faults.campaign.FaultCampaign`:

1. **Build** — N :class:`~repro.ssd.device.ComputationalSSD` peers of one
   Table IV configuration, each behind a
   :class:`~repro.serve.service.DeviceService`; the peers are identical, so
   the process-wide pricing memo samples each scomp kernel's core phase
   **once** and every device shares that sample.
2. **Shard** — each tenant's fleet-LPA region splits into
   ``shard_pages``-page shards placed on the consistent-hash ring; every
   fleet page gets a device-local LPA from its home device's allocator.
3. **Preload** — golden bytes (deterministic per fleet LPA) are stored in
   the arrays, the cross-device RAID parity is computed and stored on
   member-disjoint devices, and no plane or bus time is booked
   ("manufactured" state).
4. **Serve** — the :class:`~repro.fleet.router.FleetRouter` runs the whole
   fleet on one shared simulation kernel.
5. **Verify** — with a killed device, every page it held is reconstructed
   from surviving peers and compared bit-exactly against the golden copy.

Same seed → identical placement, identical golden bytes, identical routing
and hedging decisions, identical :meth:`FleetReport.fingerprint_hex`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.config import FaultConfig, SSDConfig
from repro.errors import FleetError
from repro.faults.campaign import golden_page
from repro.fleet.config import FleetConfig
from repro.fleet.metrics import FleetReport
from repro.fleet.placement import HashRing
from repro.fleet.replication import CrossDeviceRaidMap, PageAddr, xor_pages
from repro.fleet.router import FleetRouter
from repro.serve.service import DeviceService
from repro.serve.workload import TenantSpec, WorkloadGenerator


def default_fleet_tenants() -> List[TenantSpec]:
    """The CLI's stock fleet mix: a hot scomp tenant, a read tenant, and a
    write tenant, with regions wide enough for many shards per device."""
    return [
        TenantSpec(
            name="hot", weight=4.0, kind="scomp", kernel="stat",
            pages_per_command=8, interarrival_ns=12_000.0, region_pages=1024,
        ),
        TenantSpec(
            name="reader", weight=1.0, kind="read",
            pages_per_command=4, interarrival_ns=8_000.0, region_pages=1024,
        ),
        TenantSpec(
            name="writer", weight=1.0, kind="write",
            pages_per_command=4, interarrival_ns=25_000.0, region_pages=512,
        ),
    ]


class ShardedWorkloadGenerator(WorkloadGenerator):
    """A tenant traffic source whose every command stays inside one shard.

    Confining a command to a single ``shard_pages``-page run is what makes
    one device able to serve it whole: the consistent-hash ring places
    shards, not pages, so all of a command's pages share a home.
    """

    def __init__(
        self, spec: TenantSpec, index: int, seed: int, lpa_base: int, shard_pages: int
    ) -> None:
        self.check(spec, shard_pages)
        super().__init__(spec, index, seed, lpa_base)
        self.shard_pages = shard_pages
        self.num_shards = spec.region_pages // shard_pages

    @staticmethod
    def check(spec: TenantSpec, shard_pages: int) -> None:
        """Raise :class:`FleetError` unless a fleet can serve ``spec``."""
        if spec.kind == "sql":
            raise FleetError(
                f"tenant {spec.name!r}: a fleet has no SQL session to drive a sql tenant"
            )
        if spec.overwrite:
            # The router keeps write LPAs in fleet space, so a rewrite in
            # place would remap another tenant's device-local pages.
            raise FleetError(f"tenant {spec.name!r}: a fleet cannot serve overwrite writes")
        if spec.pages_per_command > shard_pages:
            raise FleetError(
                f"tenant {spec.name!r}: {spec.pages_per_command} pages/command "
                f"exceed the {shard_pages}-page shard"
            )
        if spec.region_pages < shard_pages:
            raise FleetError(
                f"tenant {spec.name!r}: region smaller than one shard"
            )

    def _pick_lpas(self) -> List[int]:
        shard = self.rng.randrange(self.num_shards)
        span = self.shard_pages - self.spec.pages_per_command
        offset = self.rng.randrange(span + 1) if span else 0
        start = self.lpa_base + shard * self.shard_pages + offset
        return list(range(start, start + self.spec.pages_per_command))


class FleetCampaign:
    """One seeded multi-device run against one device configuration."""

    def __init__(
        self,
        config: SSDConfig,
        fleet_config: Optional[FleetConfig] = None,
        tenants: Optional[Sequence[TenantSpec]] = None,
        duration_ns: float = 400_000.0,
        seed: int = 0,
        verify_integrity: bool = True,
    ) -> None:
        if duration_ns <= 0:
            raise FleetError("fleet campaign duration must be positive")
        self.config = config
        self.fleet = fleet_config or FleetConfig()
        self.tenants = list(tenants) if tenants is not None else default_fleet_tenants()
        for spec in self.tenants:
            ShardedWorkloadGenerator.check(spec, self.fleet.shard_pages)
        self.duration_ns = duration_ns
        self.seed = seed
        self.verify_integrity = verify_integrity
        # Populated by run(), kept for white-box inspection in tests.
        self.devices: List = []
        self.services: List[DeviceService] = []
        self.generators: List[ShardedWorkloadGenerator] = []
        self.ring: Optional[HashRing] = None
        self.page_map: Dict[int, PageAddr] = {}
        self.raid_map: Optional[CrossDeviceRaidMap] = None
        self.golden: Dict[PageAddr, bytes] = {}
        self.router: Optional[FleetRouter] = None

    # -- build -----------------------------------------------------------------

    def _build(self) -> None:
        from repro.ssd.device import ComputationalSSD

        cfg = self.fleet
        self.devices = [ComputationalSSD(self.config) for _ in range(cfg.num_devices)]
        scomp_kernels = [spec.kernel for spec in self.tenants if spec.kind == "scomp"]
        self.services = [
            DeviceService(device, kernels=scomp_kernels, cores_name=f"fleet.d{index}.cores")
            for index, device in enumerate(self.devices)
        ]

        self.generators = []
        base = 0
        for index, spec in enumerate(self.tenants):
            self.generators.append(
                ShardedWorkloadGenerator(
                    spec, index, self.seed, base, cfg.shard_pages
                )
            )
            base += spec.region_pages

        self.ring = HashRing(
            list(range(cfg.num_devices)), virtual_nodes=cfg.virtual_nodes
        )

    # -- preload ---------------------------------------------------------------

    def _preload(self) -> None:
        """Place shards, program golden data + cross-device parity."""
        cfg = self.fleet
        page_bytes = self.config.flash.page_bytes
        next_local = [0] * cfg.num_devices

        def alloc(device: int) -> int:
            local = next_local[device]
            next_local[device] = local + 1
            return local

        # Shard → home device; every fleet page gets a local LPA there.
        fleet_order: List[int] = []
        per_device_locals: List[List[int]] = [[] for _ in range(cfg.num_devices)]
        for gen in self.generators:
            for shard in range(gen.num_shards):
                home = self.ring.lookup(f"{gen.spec.name}/{shard}")
                for offset in range(cfg.shard_pages):
                    fleet_lpa = gen.lpa_base + shard * cfg.shard_pages + offset
                    local = alloc(home)
                    self.page_map[fleet_lpa] = (home, local)
                    per_device_locals[home].append(local)
                    fleet_order.append(fleet_lpa)

        for device, locals_ in zip(self.devices, per_device_locals):
            device.ftl.populate(locals_)

        self.golden = {}
        for fleet_lpa in fleet_order:
            addr = self.page_map[fleet_lpa]
            data = golden_page(self.seed, fleet_lpa, page_bytes)
            self.golden[addr] = data
            self._program(addr, data)

        # Cross-device stripes: one parity page per group, on a device
        # disjoint from every member, allocated from that device's
        # continuing local-LPA counter.
        self.raid_map = CrossDeviceRaidMap.build(
            [self.page_map[fleet_lpa] for fleet_lpa in fleet_order],
            cfg.raid_k,
            list(range(cfg.num_devices)),
            alloc,
        )
        for group in range(len(self.raid_map)):
            members = self.raid_map.members(group)
            parity_addr = self.raid_map.parity(group)
            parity = xor_pages([self.golden[m] for m in members])
            self.golden[parity_addr] = parity
            self.devices[parity_addr[0]].ftl.write(parity_addr[1])
            self._program(parity_addr, parity)

    def _program(self, addr: PageAddr, data: bytes) -> None:
        device = self.devices[addr[0]]
        device.array.preload(device.ftl.lookup(addr[1]), data)

    # -- per-device fault shaping ----------------------------------------------

    def _attach_recoveries(self) -> Dict[int, object]:
        """Wire injector + within-device recovery onto faulted/slow devices.

        The per-device :class:`~repro.ssd.firmware.RecoveryController` runs
        with ``raid_map=None``: local media faults climb the inline-ECC →
        read-retry ladder, and anything that ladder cannot fix surfaces as
        a ``failed`` page, which the router escalates to *cross-device*
        reconstruction — the fleet generalisation of the RAID map.
        """
        from repro.faults.injector import FaultInjector
        from repro.ssd.firmware import RecoveryController

        cfg = self.fleet
        recoveries: Dict[int, object] = {}
        for index, device in enumerate(self.devices):
            fault = cfg.fault
            if index == cfg.slow_device and cfg.slow_read_rate > 0.0:
                fault = replace(
                    fault or FaultConfig(seed=self.seed),
                    slow_read_rate=cfg.slow_read_rate,
                    slow_read_extra_ns=cfg.slow_read_extra_ns,
                )
            if fault is None:
                continue
            # Decorrelate the peers: same profile, device-specific stream.
            fault = replace(fault, seed=(fault.seed + 1) * 101 + index)
            injector = FaultInjector(
                fault, device.config.flash, registry=device.telemetry.counters
            )
            golden_local = {
                local: data
                for (dev, local), data in self.golden.items()
                if dev == index
            }
            recovery = RecoveryController(
                device, fault, injector=injector, raid_map=None, golden=golden_local
            )
            self.services[index].recovery = recovery
            recoveries[index] = recovery
        return recoveries

    # -- run -------------------------------------------------------------------

    def prepare(self) -> Dict[int, object]:
        """Build + preload + fault wiring; returns the recovery map.

        :meth:`run` calls it first; it is public so a caller can do (and
        time) this set-up on its own — the preload dominates a short run.
        """
        self._build()
        self._preload()
        return self._attach_recoveries()

    def run(self) -> FleetReport:
        recoveries = self.prepare()
        self.router = FleetRouter(
            self.fleet,
            self.devices,
            self.services,
            self.ring,
            self.page_map,
            self.raid_map,
            self.golden,
            self.generators,
            recoveries=recoveries,
            seed=self.seed,
            config_name=self.config.name,
        )
        report = self.router.run(self.duration_ns)
        if self.verify_integrity and self.fleet.kill_device >= 0:
            checked, bad = self._sweep_dead_device()
            report.integrity_pages_checked = checked
            report.integrity_pages_bad = bad
        return report

    # -- integrity -------------------------------------------------------------

    def _sweep_dead_device(self):
        """Rebuild every page the killed device held and diff against golden.

        Functional (untimed) sweep: the stripe-mates' stored bytes are read
        straight off the surviving arrays and XORed — the recovery-goodput
        timing of in-run rebuilds is already measured by the router.
        """
        dead = self.fleet.kill_device
        checked = bad = 0
        for addr in sorted(self.raid_map.device_pages(dead)):
            mates = self.raid_map.stripe_mates(addr)
            pages: List[bytes] = []
            lost = False
            for mate in mates:
                data = self._read_stored(mate)
                if data is None:
                    lost = True
                    break
                pages.append(data)
            checked += 1
            if lost or xor_pages(pages) != self.golden[addr]:
                bad += 1
        return checked, bad

    def _read_stored(self, addr: PageAddr) -> Optional[bytes]:
        device = self.devices[addr[0]]
        return device.array.read_data(device.ftl.lookup(addr[1]))

