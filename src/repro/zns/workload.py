"""The ZNS LSM campaign: YCSB-ish tenants + compaction on one simulator.

Everything shares a single :class:`~repro.sim.Simulator` and one zoned
:class:`~repro.ssd.device.ComputationalSSD`:

* *tenants* issue puts (memtable inserts) and gets (spawned as their own
  processes, so a slow read never stalls the issue loop) at seeded
  exponential interarrivals;
* a *flush* process turns each ripe memtable into a sorted L0 run written
  through ``ZoneAppendCommand``s;
* a *compaction manager* polls the tree and runs leveled compactions either
  **host-side** (victim runs stream up the link, merge on the host, stream
  back down) or **device-side** (the ``merge`` kernel consumes the runs
  inside the SSD and only a completion crosses the link). ``auto`` asks
  the calibrated :class:`~repro.analytics.cost.StaticCostSource`.

The contended resources are real: zone appends/reads book flash-channel
and plane timelines, host-path compaction occupies the same link the
foreground gets complete over — which is exactly where device-side
compaction wins its tail-latency improvement.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Dict, List

from repro.analytics.cost import StaticCostSource
from repro.errors import ZnsError
from repro.ftl.zoned import ZoneState
from repro.sim import Simulator, as_ns
from repro.ssd.device import ComputationalSSD
from repro.ssd.host_interface import ReadCommand, ScompCommand, ZoneAppendCommand, ZoneResetCommand
from repro.utils.draws import below_draws, expovariate_draws
from repro.zns.config import ZnsConfig
from repro.zns.firmware import ZnsFirmware
from repro.zns.lsm import RECORD_BYTES, CompactionPick, LsmTree, Segment, SortedRun
from repro.zns.metrics import ZnsReport

#: Completion-queue entry shipped up the link by a device-side compaction.
COMPLETION_BYTES = 64


class ZnsCampaign:
    """One seeded run of the ZNS workload; :meth:`run` returns the report."""

    def __init__(self, config: ZnsConfig) -> None:
        self.cfg = config
        self.sim = Simulator()
        self.device = ComputationalSSD(
            config.ssd(), zoned=True, max_open_zones=config.max_open_zones
        )
        self.fw = ZnsFirmware(self.device, self.sim)
        self.ftl = self.device.ftl
        self.host = self.device.host
        self.page_bytes = self.device.config.flash.page_bytes
        self.records_per_page = self.page_bytes // RECORD_BYTES
        self.lsm = LsmTree(
            memtable_records=config.memtable_records,
            l0_runs_trigger=config.l0_runs_trigger,
            fanout=config.fanout,
            max_levels=config.max_levels,
            compaction_runs=config.compaction_runs,
            records_per_page=self.records_per_page,
        )
        #: Free zones as a min-heap keyed ``(block, chip, zone_id)``:
        #: consecutive allocations stripe across chips (a zone is one
        #: chip's block group, so same-chip zones serialise on tPROG).
        blocks = self.device.config.flash.blocks_per_plane
        self._free_zones: List[tuple] = [
            (zid % blocks, zid // blocks, zid) for zid in range(self.ftl.num_zones)
        ]
        heapq.heapify(self._free_zones)
        #: Memtable snapshots currently being flushed (still readable).
        self._flushing: List[Dict[int, int]] = []
        self._compacting = False
        self._seq = 0
        self._probe_ns = as_ns(config.probe_ns)
        #: Device rates sampled from the simulator itself (merge kernel).
        self.cost = StaticCostSource.calibrate(self.device, kernels=("merge",))
        self.report = ZnsReport(
            policy=config.compaction, seed=config.seed, duration_ns=config.duration_ns
        )

    # -- zone allocation ---------------------------------------------------------

    def _take_zone(self) -> int:
        if not self._free_zones:
            raise ZnsError("out of free zones; campaign overruns device capacity")
        return heapq.heappop(self._free_zones)[2]

    def _release_zone(self, zone_id: int) -> None:
        blocks = self.device.config.flash.blocks_per_plane
        heapq.heappush(self._free_zones, (zone_id % blocks, zone_id // blocks, zone_id))

    # -- run writing -------------------------------------------------------------

    def _append_run(self, run: SortedRun, from_host: bool):
        """Write a run's pages at fresh zone write pointers.

        Segments are issued back to back — they land on different chips
        thanks to striped allocation, so their programs overlap — and the
        generator waits once for the slowest one.
        """
        pages_left = math.ceil(run.records / self.records_per_page)
        segment_cap = min(self.cfg.run_segment_pages, self.ftl.zone_pages)
        done = self.sim.now
        while pages_left:
            zone_id = self._take_zone()
            npages = min(pages_left, segment_cap)
            if from_host:
                command = ZoneAppendCommand(
                    self.host.next_id(), zone_id=zone_id, npages=npages
                )
                self.fw.submit(command)
                lba, seg_done = self.fw.execute(command, self.sim.now)
            else:
                lba, seg_done = self.fw.zone_append(
                    zone_id, npages, self.sim.now, from_host=False
                )
            done = max(done, seg_done)
            run.segments.append(Segment(zone_id, lba, npages))
            if self.ftl.state(zone_id) is ZoneState.OPEN:
                self.ftl.close_zone(zone_id)  # free the open-zone slot
            pages_left -= npages
        yield self.sim.wait_until(done)

    def _retire_run_zones(self, run: SortedRun) -> None:
        """Zone reset is the GC: retire a victim's zones and recycle them.

        Books the erases and returns immediately — the plane timelines
        carry the reset cost, and any later append to a recycled zone
        queues behind its erase on the same plane resources.
        """
        for segment in run.segments:
            command = ZoneResetCommand(self.host.next_id(), zone_id=segment.zone_id)
            self.fw.submit(command)
            self.fw.execute(command, self.sim.now)
            self._release_zone(segment.zone_id)

    # -- foreground --------------------------------------------------------------

    def _tenant(self, index: int):
        """Open-loop arrivals: a gap, a key, then the put/get coin.

        The draws come from streams over the tenant's own generator, in the
        order ``expovariate``, ``randrange``, ``random`` would make them, and
        each gap is yielded as a bare int of at least 1 ns. A put goes
        straight into the memtable; a get runs as its own process.
        """
        cfg = self.cfg
        rng = random.Random((cfg.seed + 1) * 1_000_003 + index * 7_919)
        next_gap = expovariate_draws(rng, 1.0 / cfg.mean_interarrival_ns).__next__
        next_key = below_draws(rng, cfg.key_space).__next__
        coin = rng.random
        put_fraction = cfg.put_fraction
        label = f"get-{index}"
        lsm = self.lsm
        report = self.report
        spawn = self.sim.spawn
        get = self._get
        while True:
            gap = round(next_gap())
            yield gap if gap > 1 else 1
            key = next_key()
            if coin() < put_fraction:
                self._seq += 1
                report.puts += 1
                if lsm.put(key, self._seq):
                    entries = lsm.take_memtable()
                    snapshot = dict(entries)
                    self._flushing.append(snapshot)
                    spawn(self._flush(entries, snapshot), "flush")
            else:
                spawn(get(key), label)

    def _get(self, key: int):
        start = self.sim.now
        self.report.gets += 1
        kind, run = self.lsm.locate(key)
        if kind == "memtable" or any(key in snap for snap in self._flushing):
            self.report.get_memtable_hits += 1
            yield self._probe_ns
            self.report.get_latencies_ns.append(self.sim.now - start)
            return
        if run is None:
            self.report.get_misses += 1
            yield self._probe_ns
            self.report.get_latencies_ns.append(self.sim.now - start)
            return
        self.report.get_run_hits += 1
        lba = run.lba_for_key(key)
        command = ReadCommand(self.host.next_id(), lpas=[lba])
        self.fw.submit(command)
        _, done = self.fw.execute(command, start)
        yield self.sim.wait_until(done)
        self.report.get_latencies_ns.append(done - start)

    # -- background --------------------------------------------------------------

    def _flush(self, entries, snapshot) -> None:
        run = self.lsm.new_run(0, entries)
        yield from self._append_run(run, from_host=True)
        self.lsm.add_run(run, 0)
        self._flushing.remove(snapshot)
        self.report.flush_pages += run.pages

    def _compaction_manager(self):
        while True:
            yield self.sim.wait(self.cfg.compaction_check_ns)
            if self._compacting:
                continue
            pick = self.lsm.pick_compaction()
            if pick is not None:
                self._compacting = True
                self.sim.spawn(self._compact(pick), label="compaction")

    def _padded_pages(self, pick: CompactionPick) -> int:
        """Merge-kernel contract: equal-length runs, >=1 trailing sentinel."""
        pad = max(victim.pages for victim in pick.victims)
        if any(
            victim.pages == pad
            and victim.records == pad * self.records_per_page
            for victim in pick.victims
        ):
            pad += 1  # an exactly-full run needs a sentinel page
        return pad

    def _choose_site(self, pages_in: int, bytes_in: int, bytes_out: int) -> str:
        if self.cfg.compaction != "auto":
            return self.cfg.compaction
        link = self.cost.link_bytes_per_ns
        host_ns = (
            bytes_in / link
            + self.cost.ingest_binary_ns(bytes_in)
            + bytes_out / link
        )
        device_ns = (
            self.cost.device_scan_ns(pages_in, kernel="merge", at_ns=self.sim.now)
            + COMPLETION_BYTES / link
        )
        return "device" if device_ns <= host_ns else "host"

    def _compact(self, pick: CompactionPick):
        for victim in pick.victims:
            victim.compacting = True
        k = len(pick.victims)
        pad_pages = self._padded_pages(pick)
        lbas = [lba for victim in pick.victims for lba in victim.all_lbas()]
        data_in = len(lbas) * self.page_bytes
        kernel_bytes = k * pad_pages * self.page_bytes
        merged = self.lsm.merge_entries(pick.victims)
        new_run = self.lsm.new_run(pick.target, merged)
        data_out = math.ceil(len(merged) / self.records_per_page) * self.page_bytes
        site = self._choose_site(k * pad_pages, data_in, data_out)

        start = self.sim.now
        if site == "host":
            # Victim runs stream up the link, merge on the host, stream back.
            command = ReadCommand(self.host.next_id(), lpas=lbas)
            self.fw.submit(command)
            _, done = self.fw.execute(command, start)
            yield self.sim.wait_until(done)
            yield self.sim.wait(self.cost.ingest_binary_ns(kernel_bytes))
            yield from self._append_run(new_run, from_host=True)
            self.report.compactions_host += 1
            self.report.compaction_link_bytes += data_in + new_run.pages * self.page_bytes
        else:
            # Device-side: the merge kernel eats the runs in the SSD; only a
            # completion crosses the link.
            command = ScompCommand(
                self.host.next_id(),
                kernel="merge",
                lpa_lists=[victim.all_lbas() for victim in pick.victims],
            )
            self.fw.submit(command)
            done = self.fw.read_lbas(lbas, start, to_host=False)
            yield self.sim.wait_until(done)
            yield self.sim.wait(
                self.cost.device_scan_ns(k * pad_pages, kernel="merge")
            )
            yield from self._append_run(new_run, from_host=False)
            completion = self.host.transfer(COMPLETION_BYTES, self.sim.now, to_host=True)
            self.host.complete(command, start, completion, COMPLETION_BYTES)
            yield self.sim.wait_until(completion)
            self.report.compactions_device += 1
            self.report.compaction_link_bytes += COMPLETION_BYTES

        self.lsm.apply_compaction(pick, new_run)
        self.report.compaction_data_bytes += data_in + new_run.pages * self.page_bytes
        for victim in pick.victims:
            self._retire_run_zones(victim)
        self._compacting = False

    # -- entry point -------------------------------------------------------------

    def run(self) -> ZnsReport:
        for index in range(self.cfg.num_tenants):
            self.sim.spawn(self._tenant(index), label=f"tenant-{index}")
        self.sim.spawn(self._compaction_manager(), label="compaction-manager")
        self.sim.run(until_ns=self.cfg.duration_ns)
        report = self.report
        report.flushes = self.lsm.flushes
        report.compactions = self.lsm.compactions
        report.bytes_to_host = self.host.bytes_to_host
        report.bytes_from_host = self.host.bytes_from_host
        report.zone_resets = self.ftl.resets
        report.zone_appends = self.ftl.appends
        report.zones_in_use = self.ftl.num_zones - len(self._free_zones)
        report.wear_total = self.ftl.wear.total_erases
        report.levels_runs = [len(level) for level in self.lsm.levels]
        report.live_records = len(self.lsm.memtable) + sum(
            run.records for level in self.lsm.levels for run in level
        )
        report.sim_events = self.sim.processed
        report.horizon_ns = self.sim.now
        return report


def run_zns(config: ZnsConfig) -> ZnsReport:
    """Build and run one campaign (the ``python -m repro zns`` backend)."""
    return ZnsCampaign(config).run()
