"""The ZNS LSM campaign: YCSB-ish tenants + compaction on one simulator.

Everything shares a single :class:`~repro.sim.Simulator` and one zoned
:class:`~repro.ssd.device.ComputationalSSD`:

* *tenants* issue puts (memtable inserts) and gets (spawned as their own
  processes, so a slow read never stalls the issue loop) at seeded
  exponential interarrivals. One *arrival driver* merges their streams:
  it holds puts back until something can observe them and wakes only at
  a get or at a put that fills the memtable (see :meth:`ZnsCampaign._arrivals`);
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
from typing import Dict, List, Tuple

from repro.analytics.cost import StaticCostSource
from repro.errors import ZnsError
from repro.ftl.zoned import ZoneState
from repro.sim import Simulator, as_ns
from repro.ssd.device import ComputationalSSD
from repro.ssd.host_interface import ReadCommand, ScompCommand, ZoneAppendCommand, ZoneResetCommand
from repro.utils.draws import arrival_draws
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
        self._compacting = False
        #: Puts made so far; each put's seq is its number.
        self._seq = 0
        #: Puts the arrival driver holds until it next wakes (key -> seq).
        self._pending: Dict[int, int] = {}
        #: Spawns that come after this instant's compaction-manager tick.
        self._after_tick: List[Tuple[object, str]] = []
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

    def _arrivals(self):
        """The arrival driver: every tenant's open-loop stream, merged.

        Each tenant draws from its own generator, per arrival a gap, a key
        and then the put/get coin (one :func:`arrival_draws` triple); the
        gap is ``max(1, round(gap))`` ns. The streams merge in the order of
        a bucket of per-tenant processes: by instant, then by the order of
        the pushes that scheduled them. The compaction manager's ticks
        (every ``as_ns(compaction_check_ns)`` from t = 0, spawned after the
        tenants) take part in that order, as its pushes count too.

        Only a get's lookup and a memtable-filling put observe a put, so a
        put that neither fills the memtable nor shares an instant with a
        get is held in ``_pending``. The driver runs as a generator that
        yields once per wake, and wakes, through a priority -1 event, only
        at the instant of a get or of a filling put, ahead of every other
        entry of that instant. There it applies the held puts and then
        handles each arrival of the instant in order: a put goes into the
        memtable, a full memtable is taken and its flush spawned, a get is
        spawned. A spawn that comes after the manager's tick at that
        instant goes to ``_after_tick``; the manager spawns it after its
        own compaction. Puts held when the stream passes the horizon are
        applied by :meth:`run` once the simulator stops.
        """
        cfg = self.cfg
        lsm = self.lsm
        pending = self._pending
        after_tick = self._after_tick
        spawn = self.sim.spawn
        schedule_at = self.sim.schedule_at
        get = self._get
        flush = self._flush
        wake = self._wake
        heapreplace = heapq.heapreplace
        horizon = as_ns(cfg.duration_ns)
        check = as_ns(cfg.compaction_check_ns)
        capacity = lsm.memtable_records
        put_fraction = cfg.put_fraction
        tenants = range(cfg.num_tenants)
        labels = [f"get-{index}" for index in tenants]
        draws = [
            arrival_draws(
                random.Random((cfg.seed + 1) * 1_000_003 + index * 7_919),
                1.0 / cfg.mean_interarrival_ns,
                cfg.key_space,
            ).__next__
            for index in tenants
        ]
        # Entries are (instant, push order, tenant, key, is_put); the
        # manager's ticks are tenant -1. At t = 0 the tenants push first.
        heap = []
        for index in tenants:
            gap, key, coin = draws[index]()
            gap = round(gap)
            heap.append((gap if gap > 1 else 1, index, index, key, coin < put_fraction))
        order = len(heap)
        heap.append((check, order, -1, 0, False))
        order += 1
        heapq.heapify(heap)
        seq = self._seq
        memtable = lsm.memtable
        #: The memtable's size once the held puts are applied.
        size = len(memtable)
        tick = awake = -1
        while True:
            at, _, who, key, put = heap[0]
            if at > horizon:
                self._seq = self.report.puts = seq
                return
            if who < 0:
                tick = at
                heapreplace(heap, (at + check, order, -1, 0, False))
                order += 1
                continue
            if at == awake:
                # An arrival at the instant the driver is awake at.
                process = None
                if not put:
                    process = (get(key), labels[who])
                else:
                    seq += 1
                    if lsm.put(key, seq):
                        process = (flush(lsm.take_memtable()), "flush")
                        memtable = lsm.memtable
                if process is not None:
                    if tick == at:
                        after_tick.append(process)
                    else:
                        spawn(*process)
                size = len(memtable)
            else:
                fresh = put and key not in pending and key not in memtable
                if not put or fresh and size + 1 >= capacity:
                    # A get, or a put that fills the memtable by the rule
                    # of LsmTree.put: wake at its instant.
                    schedule_at(at, wake, "arrivals", -1)
                    yield
                    memtable.update(pending)
                    pending.clear()
                    awake = at
                    continue
                size += fresh
                seq += 1
                pending[key] = seq
            gap, key, coin = draws[who]()
            gap = round(gap)
            heapreplace(heap, (at + (gap if gap > 1 else 1), order, who, key, coin < put_fraction))
            order += 1

    def _wake(self) -> None:
        next(self._driver, None)

    def _get(self, key: int):
        start = self.sim.now
        self.report.gets += 1
        kind, run = self.lsm.locate(key)
        if kind == "memtable":
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

    def _flush(self, memtable: Dict[int, int]):
        run = self.lsm.new_run(0, memtable)
        yield from self._append_run(run, from_host=True)
        self.lsm.add_run(run, 0)
        self.report.flush_pages += run.pages

    def _compaction_manager(self):
        after_tick = self._after_tick
        while True:
            yield self.sim.wait(self.cfg.compaction_check_ns)
            if not self._compacting:
                pick = self.lsm.pick_compaction()
                if pick is not None:
                    self._compacting = True
                    self.sim.spawn(self._compact(pick), label="compaction")
            # Arrivals ordered after this tick spawn after its compaction.
            for process in after_tick:
                self.sim.spawn(*process)
            after_tick.clear()

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
        self._driver = self._arrivals()
        self._wake()
        self.sim.spawn(self._compaction_manager(), label="compaction-manager")
        self.sim.run(until_ns=self.cfg.duration_ns)
        # The puts held when the stream passed the horizon.
        self.lsm.memtable.update(self._pending)
        self._pending.clear()
        return self._report()

    def _report(self) -> ZnsReport:
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

