"""Firmware control plane: scomp scheduling and flash retiming (Figure 10/11).

The firmware knows every ``scomp`` command's full LPA lists upfront, so it
queues flash reads eagerly (a bounded number of pages ahead per core) and
feeds compute engines as pages arrive. This module implements the paper's
*retiming* step: the core phase produced a compute-only timeline (cycles
per page); here each page is pushed through the flash array + FTL +
crossbar, and whenever a page arrives later than the compute engine first
needs it, the engine's timeline shifts by the difference.

Each engine's command flow runs as a generator *process* on the unified
:class:`repro.sim.Simulator` kernel: the process wakes at each page's
issue instant, reserves the flash/FTL/crossbar resources for that page,
shifts its compute timeline by any flash-induced stall, and emits result
pages back onto the shared buses as compute progresses.  Background host
reads, result writes, and (optionally) garbage-collection passes are
sibling processes on the same kernel, so their interference is part of the
one coherent timeline rather than a post-hoc merge.

The result captures, mechanically:

* flash-bandwidth saturation (channels serialise transfers),
* layout-skew hotspots (a heavy channel delays everyone who needs it),
* the crossbar's compute pooling vs channel-local engines (Figure 7/19),
* the SSD-DRAM memory wall as a post-hoc bandwidth cap on the DRAM-staged
  data paths (Section III).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.config import DataSource, FaultConfig, SSDConfig
from repro.core.core import CoreRunResult
from repro.errors import DeviceError
from repro.flash.array import FlashArray
from repro.flash.ecc import ECCStatus
from repro.ftl.mapping import PageMapFTL
from repro.sim import FifoResource, Simulator
from repro.ssd.crossbar import Crossbar
from repro.ssd.dram_buffer import DRAMBuffer, TrafficBreakdown
from repro.telemetry.counters import Histogram

#: Pages of read-ahead the firmware keeps in flight per engine. The scomp
#: LPA lists are known upfront, so controllers can queue deeply; 32 pages
#: (128 KiB) is a realistic controller queue depth.
EAGER_WINDOW_PAGES = 32


@dataclass
class BackgroundIO:
    """Conventional host reads interleaved with an offload (Section V-A).

    The paper's generality argument: ASSASIN supports "flexible interleaving
    of read/write requests that do not exploit computational storage with
    computational storage operations". One page read is issued every
    ``interval_ns`` over ``lpas`` (cycling); measured service latencies land
    in the :attr:`latency` histogram.
    """

    lpas: List[int]
    interval_ns: float
    latency: Histogram = field(default_factory=lambda: Histogram("bg_latency_ns"))

    @property
    def latencies_ns(self) -> Sequence[float]:
        """Raw latency samples (the histogram's backing store)."""
        return self.latency.values

    @property
    def mean_latency_ns(self) -> float:
        return self.latency.mean

    @property
    def p99_latency_ns(self) -> float:
        return self.latency.percentile(99.0)


@dataclass
class _CoreTask:
    """Retiming state for one engine's slice of the request."""

    core_id: int
    lpas: List[int]
    cpp_ns: float  # compute time per input page
    out_ratio: float
    next_k: int = 0
    shift_ns: float = 0.0  # accumulated flash-induced stall
    pending_out_bytes: float = 0.0
    out_pages_written: int = 0
    last_write_done_ns: float = 0.0

    def issue_ns(self) -> int:
        """When the next page's read is issued, rounded to the nearest
        nanosecond as the kernel would round it (an int wait needs no
        decoding)."""
        k = self.next_k
        return round(max(0.0, (k - EAGER_WINDOW_PAGES) * self.cpp_ns) + self.shift_ns)

    def needed_ns(self, k: int) -> float:
        return k * self.cpp_ns + self.shift_ns

    @property
    def compute_ns(self) -> float:
        return len(self.lpas) * self.cpp_ns

    @property
    def completion_ns(self) -> float:
        if not self.lpas:
            return 0.0
        return max(self.compute_ns + self.shift_ns, self.last_write_done_ns)

    @property
    def utilisation(self) -> float:
        total = self.completion_ns
        return self.compute_ns / total if total > 0 else 1.0


@dataclass
class _Request:
    """One scomp request's engines, input bytes and SSD-DRAM traffic.

    ``flash_ratio`` is the result pages its engines program into flash per
    input page; a request with none returns its results over the host link.
    """

    kernel: object
    sample: CoreRunResult
    tasks: List[_CoreTask]
    bytes_in: int
    flash_ratio: float
    traffic: TrafficBreakdown

    @property
    def completion_ns(self) -> float:
        return max((t.completion_ns for t in self.tasks), default=0.0)


def _read_path_flash_ratio(kernel, sample: CoreRunResult) -> float:
    """Write-path kernels (erasure coding, encryption) put results back on
    flash, sharing channel bandwidth with the reads; read-path kernels
    return results to the host over PCIe (never binding at 8 GB/s)."""
    return sample.out_ratio if getattr(kernel, "output_to_flash", False) else 0.0


@dataclass
class OffloadResult:
    """Device-level outcome of one offloaded function (paper Figures 13-19)."""

    kernel_name: str
    config_name: str
    num_cores: int
    bytes_in: int
    bytes_out: int
    completion_ns: float
    limiter: str  # 'core' | 'flash' | 'dram' | 'host-link'
    per_core_utilisation: List[float]
    per_core_completion_ns: List[float]
    channel_bytes: List[int]
    dram_traffic: TrafficBreakdown
    dram_cap_bytes_per_ns: float
    core_sample: CoreRunResult
    flash_stall_ns: float = 0.0

    @property
    def throughput_bytes_per_ns(self) -> float:
        return self.bytes_in / self.completion_ns if self.completion_ns > 0 else 0.0

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bytes_per_ns  # 1 B/ns == 1 GB/s

    @property
    def mean_utilisation(self) -> float:
        cores = [u for u in self.per_core_utilisation if u > 0]
        return sum(cores) / len(cores) if cores else 0.0


class Firmware:
    """Schedules scomp work across engines and retimes against the flash.

    Every scomp goes through the same steps: :meth:`_request` builds one
    :class:`_CoreTask` per engine at the sample's page price
    (:meth:`CoreRunResult.page_ns`), :meth:`_run_tasks` retimes them against
    their input source, the SSD-DRAM wall caps the result (:meth:`_capped`
    for a request alone on the device, a shared pool for concurrent ones),
    and :meth:`_result` reports it. The entry points differ only in the
    engine split, the input source, the write path's staging-out and the
    concurrent path's shared DRAM pool.
    """

    def __init__(
        self,
        config: SSDConfig,
        array: FlashArray,
        ftl: PageMapFTL,
        crossbar: Crossbar,
        dram: DRAMBuffer,
    ) -> None:
        self.config = config
        self.array = array
        self.ftl = ftl
        self.crossbar = crossbar
        self.dram = dram
        self._out_lpa = itertools.count(1 << 40)  # result namespace

    # -- work decomposition --------------------------------------------------

    def assign_lpas(self, lpas: Sequence[int]) -> List[List[int]]:
        """Split a request's pages across engines.

        With the crossbar, pages interleave across cores (placement is
        irrelevant — any core reaches any channel). In channel-local mode
        each page *must* be processed by the core at its channel, so the
        split follows the FTL's physical placement; skewed layouts then
        produce unbalanced work (the Figure 19 effect).
        """
        n = self.config.num_cores
        if self.crossbar.enabled:
            # Interleave pages across engines. With the FTL's channel
            # striping this de-phases the engines' channel access patterns
            # (a contiguous split would march all engines across the same
            # channel in lockstep, creating transient hotspots).
            return [list(lpas[i::n]) for i in range(n)]
        groups: List[List[int]] = [[] for _ in range(n)]
        for lpa in lpas:
            groups[self.ftl.lookup(lpa).channel].append(lpa)
        return groups

    def _request(
        self,
        kernel,
        sample: CoreRunResult,
        slices: List[List[int]],
        flash_ratio: float,
        first_core: int = 0,
    ) -> _Request:
        """Engine ``first_core + i`` takes ``slices[i]`` at the sample's
        page price; the DRAM traffic follows the engine's data path."""
        page = self.config.flash.page_bytes
        cpp_ns = sample.page_ns(page, self.config.core.clock_period_ns)
        tasks = [
            _CoreTask(core_id=first_core + i, lpas=lpas, cpp_ns=cpp_ns, out_ratio=flash_ratio)
            for i, lpas in enumerate(slices)
        ]
        core_traffic = sample.dram_traffic.total / sample.bytes_in if sample.bytes_in else 0.0
        traffic = DRAMBuffer.traffic_per_input_byte(
            self.config.core, core_traffic, sample.out_ratio
        )
        bytes_in = sum(len(lpas) for lpas in slices) * page
        return _Request(kernel, sample, tasks, bytes_in, flash_ratio, traffic)

    # -- the retiming entry points -----------------------------------------------

    def run_offload(
        self,
        kernel,
        sample: CoreRunResult,
        lpas: Sequence[int],
        background: Optional[BackgroundIO] = None,
        sim: Optional[Simulator] = None,
    ) -> OffloadResult:
        """Retime the sampled compute against flash service for ``lpas``.

        ``background`` interleaves conventional host page reads with the
        offload on the same channels (the Section V-A generality property);
        their latencies are recorded on the BackgroundIO object.  ``sim``
        lets a caller share one kernel between the offload and other
        processes (e.g. a garbage-collection pass) so they contend on the
        same flash timelines.
        """
        request = self._request(
            kernel, sample, self.assign_lpas(list(lpas)), _read_path_flash_ratio(kernel, sample)
        )
        stall = self._run_tasks(request.tasks, background=background, sim=sim)
        return self._capped(request, stall, stall_limiter="flash")

    def run_write_offload(self, kernel, sample: CoreRunResult, total_pages: int) -> OffloadResult:
        """Write-path scomp (Section V-D): compute on data being ingested.

        Input pages stream from the host over the PCIe link (a shared FIFO
        timeline), the engines transform them inline (erasure coding,
        encryption, compression, ...), and the results — plus the source
        data itself for parity-style kernels (``writes_input_through``) —
        are programmed into the flash array. On ASSASIN the stream never
        touches the SSD DRAM; on DRAM-staged engines every byte crosses it
        twice before even reaching the flash.
        """
        if total_pages <= 0:
            raise DeviceError("write-path offload needs data")
        n = self.config.num_cores
        passthrough = 1.0 if getattr(kernel, "writes_input_through", False) else 0.0
        flash_ratio = sample.out_ratio + passthrough
        pseudo_lpas = list(range(total_pages))
        request = self._request(
            kernel, sample, [pseudo_lpas[i::n] for i in range(n)], flash_ratio
        )
        if self.config.core.data_source is DataSource.DRAM:
            # DRAM-staged engines stage host data in, read it back, write
            # results, and stage everything flash-bound out again.
            request.traffic = replace(request.traffic, staging_out=flash_ratio)

        # The PCIe ingress is its own FIFO timeline for this command's
        # stream (DMA bursts for one scomp are scheduled back-to-back);
        # the fixed link latency rides on top of the occupancy.
        page = self.config.flash.page_bytes
        link_bw = self.config.host.bandwidth_bytes_per_ns
        link_latency = self.config.host.latency_ns
        ingress = FifoResource("host-ingress")

        def serve_host_page(task: _CoreTask, k: int, when):
            grant = ingress.acquire(when, page / link_bw)
            return grant.done_ns + link_latency

        stall = self._run_tasks(request.tasks, serve_input=serve_host_page)
        return self._capped(request, stall, stall_limiter="host-link")

    def simulate_concurrent(self, requests: Sequence[tuple]) -> List[OffloadResult]:
        """Run several scomp requests concurrently on partitioned engines.

        ``requests`` is a sequence of ``(kernel, sample, lpas)``. Cores are
        partitioned across requests proportionally to their data sizes
        (at least one core each) — the task-level parallelism the paper's
        Section V-D decomposition enables. All requests' engine processes
        run on one :class:`~repro.sim.Simulator`, sharing the flash array,
        crossbar, and the SSD-DRAM pool.
        """
        if not requests:
            raise DeviceError("simulate_concurrent needs at least one request")
        if not self.crossbar.enabled:
            raise DeviceError("concurrent offloads require the crossbar architecture")
        n = self.config.num_cores
        if len(requests) > n:
            raise DeviceError(f"{len(requests)} requests exceed {n} engines")

        sizes = [max(1, len(lpas)) for _, _, lpas in requests]
        total_size = sum(sizes)
        core_counts = [max(1, round(n * s / total_size)) for s in sizes]
        while sum(core_counts) > n:
            core_counts[core_counts.index(max(core_counts))] -= 1
        while sum(core_counts) < n:
            core_counts[core_counts.index(min(core_counts))] += 1

        planned: List[_Request] = []
        next_core = 0
        for (kernel, sample, lpas), cores in zip(requests, core_counts):
            lpas = list(lpas)
            planned.append(
                self._request(
                    kernel,
                    sample,
                    [lpas[i::cores] for i in range(cores)],
                    _read_path_flash_ratio(kernel, sample),
                    first_core=next_core,
                )
            )
            next_core += cores

        stall = self._run_tasks([t for request in planned for t in request.tasks])

        # The shared SSD-DRAM pool: aggregate demand across requests.
        demand = 0.0
        for request in planned:
            completion = request.completion_ns
            if completion > 0:
                demand += (request.bytes_in / completion) * request.traffic.total
        bw = self.dram.model.config.bandwidth_bytes_per_ns
        slowdown = max(1.0, demand / bw) if demand else 1.0
        limiter = "dram" if slowdown > 1.0 else "flash"
        return [
            self._result(request, request.completion_ns * slowdown, limiter, slowdown, stall)
            for request in planned
        ]

    # -- the SSD-DRAM wall and the report ----------------------------------------

    def _capped(self, request: _Request, stall: float, stall_limiter: str) -> OffloadResult:
        """Cap a request that has the device to itself at the SSD-DRAM
        memory wall's input rate, then name what bound it."""
        completion = request.completion_ns
        bytes_in = request.bytes_in
        cap = self.dram.bandwidth_cap_bytes_per_ns(request.traffic)
        limiter = "core"
        slowdown = 1.0
        if completion > 0 and bytes_in / completion > cap:
            slowdown = (bytes_in / cap) / completion
            completion = bytes_in / cap
            limiter = "dram"
        elif stall > 0.02 * completion:
            limiter = stall_limiter
        return self._result(request, completion, limiter, slowdown, stall)

    def _result(
        self, request: _Request, completion: float, limiter: str, slowdown: float, stall: float
    ) -> OffloadResult:
        """Report a retimed request; ``slowdown`` is the DRAM wall's stretch
        of every engine's timeline."""
        tasks = request.tasks
        if request.flash_ratio:
            bytes_out = sum(t.out_pages_written for t in tasks) * self.config.flash.page_bytes
        else:
            bytes_out = int(request.bytes_in * request.sample.out_ratio)
        return OffloadResult(
            kernel_name=request.kernel.name,
            config_name=self.config.name,
            num_cores=len(tasks),
            bytes_in=request.bytes_in,
            bytes_out=bytes_out,
            completion_ns=completion,
            limiter=limiter,
            per_core_utilisation=[t.utilisation / slowdown for t in tasks if t.lpas],
            per_core_completion_ns=[t.completion_ns * slowdown for t in tasks],
            channel_bytes=self.array.channel_bytes(),
            dram_traffic=request.traffic,
            dram_cap_bytes_per_ns=self.dram.bandwidth_cap_bytes_per_ns(request.traffic),
            core_sample=request.sample,
            flash_stall_ns=stall,
        )

    # -- process-based command flows ------------------------------------------

    def _run_tasks(
        self,
        tasks: List[_CoreTask],
        background: Optional[BackgroundIO] = None,
        serve_input=None,
        sim: Optional[Simulator] = None,
    ) -> float:
        """Run every engine's command flow as a process on the kernel.

        ``serve_input(task, k, when) -> arrival_ns`` supplies input page
        ``k`` of a task; the default reads it from the flash array through
        the FTL and crossbar (read-path scomp). Write-path scomp passes a
        host-link source instead.

        Each :class:`_CoreTask` becomes a generator process: it sleeps
        until the next page's issue instant, pulls the page through
        ``serve_input``, shifts its compute timeline by any input-induced
        stall, and schedules result-page programs as compute progresses.
        Background host reads are a sibling process on the same kernel, so
        the greedy FIFO bus timelines see every reservation in global time
        order without any caller-side merging. Returns the total
        input-induced stall across tasks.
        """
        if serve_input is None:
            serve_input = self._serve_flash_read
        if sim is None:
            sim = Simulator()
        stall = [0.0]
        for task in tasks:
            if task.lpas:
                sim.spawn(
                    self._engine_flow(sim, task, serve_input, stall),
                    label=f"engine{task.core_id}",
                )
        if background is not None and background.lpas:
            # Bound for scheduling background reads: a bit past the compute span.
            nominal_span = max((t.compute_ns for t in tasks), default=0.0) * 1.25
            sim.spawn(self._background_flow(sim, background, nominal_span), label="bg-io")
        sim.run()
        return stall[0]

    def _engine_flow(self, sim: Simulator, task: _CoreTask, serve_input, stall):
        """One engine's command flow: issue, stall-shift, emit results."""
        page = self.config.flash.page_bytes
        write_label = f"engine{task.core_id}.write"
        while task.next_k < len(task.lpas):
            # Always yield, even when the issue instant is the current one:
            # the kernel's insertion-order tie-break then round-robins
            # same-instant issues across engines, keeping the greedy FIFO
            # buses fair exactly as a global merge would.
            yield sim.wait_until(task.issue_ns())
            k = task.next_k
            arrival = serve_input(task, k, sim.now)
            needed = task.needed_ns(k)
            if arrival > needed:
                task.shift_ns += arrival - needed
                stall[0] += arrival - needed
            # Result pages emerge as compute progresses and share the buses.
            task.pending_out_bytes += page * task.out_ratio
            while task.pending_out_bytes >= page:
                task.pending_out_bytes -= page
                ready = (k + 1) * task.cpp_ns + task.shift_ns
                sim.schedule_at(
                    ready,
                    lambda sim=sim, task=task: self._flush_result_page(sim, task),
                    label=write_label,
                )
            task.next_k += 1

    def _flush_result_page(self, sim: Simulator, task: _CoreTask) -> None:
        """Program one result page at the current instant."""
        out_ppa = self.ftl.write(next(self._out_lpa))
        record = self.array.service_write(out_ppa, sim.now)
        # Program latency is absorbed by plane parallelism and the write
        # cache; the engine only waits for the bus transfer.
        task.last_write_done_ns = max(task.last_write_done_ns, record.array_done_ns)
        task.out_pages_written += 1

    def _background_flow(self, sim: Simulator, background: BackgroundIO, span_ns: float):
        """Conventional host page reads every ``interval_ns`` until ``span_ns``."""
        index = 0
        when = 0.0
        while True:
            yield sim.wait_until(when)
            lpa = background.lpas[index % len(background.lpas)]
            record = self.array.service_read(self.ftl.lookup(lpa), sim.now)
            background.latency.observe(record.done_ns - sim.now)
            when += background.interval_ns
            if when > span_ns:
                return
            index += 1

    def _serve_flash_read(self, task: _CoreTask, k: int, when) -> int:
        """Default input source: the flash array through FTL + crossbar."""
        ppa = self.ftl.lookup(task.lpas[k])
        record = self.array.service_read(ppa, when)
        return record.done_ns + self.crossbar.route(task.core_id, ppa.channel)


# ---------------------------------------------------------------------------
# Device-side read recovery (fault campaigns, ``repro.faults``)
# ---------------------------------------------------------------------------


@dataclass
class PageReadOutcome:
    """What one logical-page read cost and how it ended.

    ``status`` is one of ``'clean'``, ``'corrected'`` (ECC repaired sparse
    noise inline), ``'retried'`` (read-retry with backoff recovered the
    page), ``'reconstructed'`` (RAID-group rebuild + remap), or
    ``'failed'`` (unrecoverable: no RAID group, or stripe-mates were lost
    too).
    """

    lpa: int
    data: Optional[bytes]
    done_ns: float
    status: str
    retries: int = 0


class RecoveryController:
    """The firmware's error path for reads: retry → RAID rebuild → remap.

    Sits between the serving layer / campaign driver and the raw flash
    array. Every read attempt is timed on the shared array timelines and
    run past the :class:`~repro.faults.injector.FaultInjector` (which may
    corrupt the page's stored bytes); decode goes through the chip's
    checked read path so ECC counters stay centralised.

    Escalation ladder per logical page:

    1. **Inline ECC** — sparse noise is corrected by SECDED; the page is
       scrubbed back to pristine afterwards (read-disturb noise does not
       accumulate).
    2. **Read-retry** — an uncorrectable page is re-read up to
       ``max_read_retries`` times with exponential backoff
       (``retry_backoff_ns * 2**attempt``); transient sense-threshold
       bursts clear here.
    3. **RAID reconstruction** — the page's stripe-mates (resolved through
       the FTL mapping via the campaign's RAID-group map) are read and
       XORed with the RAID-4 parity math of
       :class:`repro.kernels.raid.Raid4Kernel`; the rebuilt page is
       written to a fresh physical page (FTL remap) and the dead block is
       retired from the allocator (grown-bad-block bookkeeping).
    """

    def __init__(
        self,
        device,
        fault_config: FaultConfig,
        injector=None,
        raid_map=None,
        golden: Optional[Dict[int, bytes]] = None,
    ) -> None:
        self.device = device
        self.array: FlashArray = device.array
        self.ftl: PageMapFTL = device.ftl
        self.cfg = fault_config
        self.injector = injector
        self.raid = raid_map
        self.golden = golden or {}
        #: Dict-style facade over the device registry's ``recovery.*``
        #: counters; tally sites keep their ``counters[name] += 1`` shape.
        self.counters = device.telemetry.counters.group("recovery")
        self._reconstruction = device.telemetry.counters.histogram(
            "recovery.reconstruction_ns"
        )
        self._tracer = device.telemetry.tracer
        self.corruption_events = 0

    @property
    def reconstruction_ns(self) -> Sequence[float]:
        """Latency of every RAID rebuild (the histogram's backing store)."""
        return self._reconstruction.values

    # -- public entry ---------------------------------------------------------

    def read_lpa(self, lpa: int, now_ns: float) -> PageReadOutcome:
        """Read one logical page with the full recovery ladder."""
        data, ok, done, attempt, corrected = self._read_with_retries(lpa, now_ns)
        if not ok:
            return self._reconstruct(lpa, done, retries=attempt)
        if attempt == 0:
            status = "corrected" if corrected else "clean"
        else:
            self.counters["retry_recovered_pages"] += 1
            status = "retried"
        self._verify(lpa, data)
        return PageReadOutcome(lpa, data, done, status, retries=attempt)

    # -- single attempt -------------------------------------------------------

    def _attempt_read(self, lpa: int, issue_ns: float):
        """One timed read attempt; returns (data, ok, done_ns, corrected)."""
        ppa = self.ftl.lookup(lpa)
        array = self.array
        done = array.service_read(ppa, issue_ns).done_ns
        if self.injector is None:
            return array.read_data(ppa), True, done, False
        fault = self.injector.on_read(array, ppa, issue_ns)
        if fault.slow_extra_ns:
            self.counters["slow_reads"] += 1
            done += fault.slow_extra_ns
        if fault.kind == "hard":
            self.counters["hard_fault_reads"] += 1
            return None, False, done, False
        if fault.kind is None and not fault.touched:
            # Untouched media: skip the (expensive) full-page decode.
            return array.read_data(ppa), True, done, False
        data, status = array.read_data_checked(ppa)
        if status is ECCStatus.UNCORRECTABLE:
            self.counters["uncorrectable_reads"] += 1
            return None, False, done, False
        corrected = status is ECCStatus.CORRECTED
        if corrected:
            self.counters["corrected_pages"] += 1
            if fault.scrub is not None:
                # Correction succeeded: scrub the cells back to pristine.
                array.overwrite_raw(ppa, fault.scrub)
        return data, True, done, corrected

    # -- RAID escalation ------------------------------------------------------

    def _reconstruct(self, lpa: int, issue_ns: float, retries: int) -> PageReadOutcome:
        mates = self.raid.stripe_mates(lpa) if self.raid is not None else None
        if not mates:
            self.counters["unrecoverable_pages"] += 1
            self._tracer.instant("recovery", "unrecoverable", issue_ns)
            return PageReadOutcome(lpa, None, issue_ns, "failed", retries=retries)
        started = issue_ns
        pages: List[bytes] = []
        done = issue_ns
        for mate in mates:
            # Mates get the same retry ladder (a transient burst on a
            # surviving stripe member must not doom the rebuild), but not
            # recursive RAID: two simultaneous permanent faults in one
            # stripe are genuinely unrecoverable under single parity.
            data, ok, mate_done, _, _ = self._read_with_retries(mate, issue_ns)
            done = max(done, mate_done)
            if not ok or data is None:
                self.counters["reconstruction_failures"] += 1
                self.counters["unrecoverable_pages"] += 1
                self._tracer.instant("recovery", "unrecoverable", done)
                return PageReadOutcome(lpa, None, done, "failed", retries=retries)
            pages.append(data)
        rebuilt = self._parity_rebuild(pages)
        # One pass through the parity engine at channel speed.
        done += self.device.config.flash.page_transfer_ns
        self.counters["reconstructed_pages"] += 1
        self._reconstruction.observe(done - started)
        self._tracer.complete("recovery", "rebuild", started, done)
        self._verify(lpa, rebuilt)
        self._retire_and_remap(lpa, rebuilt, done)
        return PageReadOutcome(lpa, rebuilt, done, "reconstructed", retries=retries)

    def _read_with_retries(self, lpa: int, issue_ns: float):
        """The ECC-checked read → retry → exponential-backoff ladder, without
        RAID escalation; returns the last attempt's
        ``(data, ok, done_ns, attempt, corrected)``."""
        issue = issue_ns
        last = self.cfg.max_read_retries
        for attempt in range(last + 1):
            data, ok, done, corrected = self._attempt_read(lpa, issue)
            if ok or attempt == last:
                return data, ok, done, attempt, corrected
            self.counters["read_retries"] += 1
            self._tracer.instant("recovery", "retry", done)
            issue = done + self.cfg.retry_backoff_ns * (2 ** attempt)

    @staticmethod
    def _parity_rebuild(pages: List[bytes]) -> bytes:
        """XOR the surviving stripe members back into the missing page.

        A page programmed with fewer than ``page_bytes`` bytes reads back
        short, so members are zero-padded to the widest; a single-page
        remainder group's parity is a replica.
        """
        from repro.fleet.replication import xor_pages

        width = max(len(p) for p in pages)
        return xor_pages([p.ljust(width, b"\x00") for p in pages])

    def _retire_and_remap(self, lpa: int, data: bytes, now_ns: float) -> None:
        """Grown-bad-block bookkeeping after a successful rebuild."""
        dead = self.ftl.lookup(lpa)
        allocator = self.ftl.allocator
        if allocator.retire_block(dead):
            self.counters["retired_blocks"] += 1
        if self.injector is not None:
            self.injector.forget(dead)
        new_ppa = self.ftl.write(lpa)
        if self.injector is not None:
            # Avoid remapping straight into a dead zone: retire and retry.
            for _ in range(64):
                if not self.injector.hard_failed(new_ppa, now_ns):
                    break
                if allocator.retire_block(new_ppa):
                    self.counters["retired_blocks"] += 1
                new_ppa = self.ftl.write(lpa)
        self.array.service_write(new_ppa, now_ns, data=data)
        self.counters["remapped_pages"] += 1

    # -- integrity ------------------------------------------------------------

    def _verify(self, lpa: int, data: Optional[bytes]) -> None:
        """Compare served bytes against the campaign's golden copy."""
        expected = self.golden.get(lpa)
        if expected is not None and data is not None and data != expected:
            self.corruption_events += 1

    def fault_counters(self) -> Dict[str, int]:
        """Stable, render-ready snapshot of the per-fault-class counters."""
        merged = Counter(self.counters.as_dict())
        if self.injector is not None:
            merged.update(self.injector.counters)
        return dict(sorted(merged.items()))

