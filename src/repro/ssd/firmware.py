"""Firmware control plane: scomp scheduling and flash retiming (Figure 10/11).

The firmware knows every ``scomp`` command's full LPA lists upfront, so it
queues flash reads eagerly (a bounded number of pages ahead per core) and
feeds compute engines as pages arrive. This module implements the paper's
*retiming* step: the core phase produced a compute-only timeline (cycles
per page); here each page is pushed through the flash array + FTL +
crossbar, and whenever a page arrives later than the compute engine first
needs it, the engine's timeline shifts by the difference.

Every engine of a run is retimed in one loop (:class:`_Retiming`) over a
heap of ``(instant, push order, kind, state)`` entries: each engine's next
page issue, each pending result-page program and a background reader's
next read. An issue reserves the flash/FTL/crossbar resources for its
page and shifts its engine's compute timeline by any flash-induced stall;
result pages go back onto the shared buses as compute emits them. Entries
run in instant order and, at one instant, in push order, so every
consumer's reservations land on the flash timelines in global time order.
A request alone on the device builds no simulator; a caller that shares
its :class:`repro.sim.Simulator` (with a garbage-collection pass, say) gets
the loop as one process there, which wakes at each new instant of its
entries and runs all of them due then.

The result captures, mechanically:

* flash-bandwidth saturation (channels serialise transfers),
* layout-skew hotspots (a heavy channel delays everyone who needs it),
* the crossbar's compute pooling vs channel-local engines (Figure 7/19),
* the SSD-DRAM memory wall as a post-hoc bandwidth cap on the DRAM-staged
  data paths (Section III).
"""

from __future__ import annotations

import heapq
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
from repro.sim import FifoResource, Simulator, as_ns
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
    """Retiming state for one engine's slice of a request."""

    core_id: int
    lpas: List[int]
    cpp_ns: float  # compute time per input page
    next_k: int = 0
    shift_ns: float = 0.0  # accumulated flash-induced stall
    pending_out_bytes: float = 0.0
    out_pages_written: int = 0
    last_write_done_ns: float = 0.0

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
    ``stall_ns`` is its engines' input-induced stall, summed in the order
    the retiming loop ran their pages.
    """

    kernel: object
    sample: CoreRunResult
    tasks: List[_CoreTask]
    bytes_in: int
    flash_ratio: float
    traffic: TrafficBreakdown
    stall_ns: float = 0.0

    @property
    def completion_ns(self) -> float:
        return max((t.completion_ns for t in self.tasks), default=0.0)


def _read_path_flash_ratio(kernel, sample: CoreRunResult) -> float:
    """Write-path kernels (erasure coding, encryption) put results back on
    flash, sharing channel bandwidth with the reads; read-path kernels
    return results to the host over PCIe (never binding at 8 GB/s)."""
    return sample.out_ratio if getattr(kernel, "output_to_flash", False) else 0.0


def _limiter(request: _Request, completion: float, stretched: bool, stall_limiter: str) -> str:
    """What bound a request: ``dram`` if the SSD-DRAM wall stretched it,
    else ``stall_limiter`` if its input stalls exceed 2% of its
    completion, else ``core``."""
    if stretched:
        return "dram"
    if request.stall_ns > 0.02 * completion:
        return stall_limiter
    return "core"


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
        core_traffic = sample.dram_traffic.total / sample.bytes_in if sample.bytes_in else 0.0
        traffic = DRAMBuffer.traffic_per_input_byte(
            self.config.core, core_traffic, sample.out_ratio
        )
        bytes_in = sum(len(lpas) for lpas in slices) * page
        tasks = [_CoreTask(first_core + i, lpas, cpp_ns) for i, lpas in enumerate(slices)]
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
        self._run_tasks([request], background=background, sim=sim)
        return self._capped(request, stall_limiter="flash")

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

        self._run_tasks([request], serve_input=serve_host_page)
        return self._capped(request, stall_limiter="host-link")

    def simulate_concurrent(self, requests: Sequence[tuple]) -> List[OffloadResult]:
        """Run several scomp requests concurrently on partitioned engines.

        ``requests`` is a sequence of ``(kernel, sample, lpas)``. Cores are
        partitioned across requests proportionally to their data sizes
        (at least one core each) — the task-level parallelism the paper's
        Section V-D decomposition enables. All requests' engines run in one
        retiming loop, sharing the flash array, crossbar, and the SSD-DRAM
        pool; each result reports its own request's stall.
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

        self._run_tasks(planned)

        # The shared SSD-DRAM pool: aggregate demand across requests.
        demand = 0.0
        for request in planned:
            completion = request.completion_ns
            if completion > 0:
                demand += (request.bytes_in / completion) * request.traffic.total
        bw = self.dram.model.config.bandwidth_bytes_per_ns
        slowdown = max(1.0, demand / bw) if demand else 1.0
        return [
            self._result(
                request,
                request.completion_ns * slowdown,
                _limiter(request, request.completion_ns, slowdown > 1.0, "flash"),
                slowdown,
            )
            for request in planned
        ]

    # -- the SSD-DRAM wall and the report ----------------------------------------

    def _capped(self, request: _Request, stall_limiter: str) -> OffloadResult:
        """Cap a request that has the device to itself at the SSD-DRAM
        memory wall's input rate, then name what bound it."""
        completion = request.completion_ns
        bytes_in = request.bytes_in
        cap = self.dram.bandwidth_cap_bytes_per_ns(request.traffic)
        stretched = completion > 0 and bytes_in / completion > cap
        limiter = _limiter(request, completion, stretched, stall_limiter)
        slowdown = 1.0
        if stretched:
            slowdown = (bytes_in / cap) / completion
            completion = bytes_in / cap
        return self._result(request, completion, limiter, slowdown)

    def _result(
        self, request: _Request, completion: float, limiter: str, slowdown: float
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
            flash_stall_ns=request.stall_ns,
        )

    # -- the retiming loop ----------------------------------------------------

    def _run_tasks(
        self,
        requests: Sequence[_Request],
        background: Optional[BackgroundIO] = None,
        serve_input=None,
        sim: Optional[Simulator] = None,
    ) -> None:
        """Retime every engine of ``requests`` in one loop.

        ``serve_input(task, k, now) -> arrival_ns`` supplies input page
        ``k`` of a task; the default reads it from the flash array through
        the FTL and crossbar (read-path scomp). Write-path scomp passes a
        host-link source instead.

        The loop (:class:`_Retiming`) keeps each engine's next page issue,
        each pending result-page program and the background reader's next
        read as entries of one heap. Each engine shifts its compute
        timeline by any input-induced stall, and each request sums its
        engines' stalls into ``stall_ns``.

        Alone, the loop runs to its end with no simulator. With ``sim`` it
        runs as one process on that simulator, waking at each new instant
        of its entries and running all of them due then, so other
        processes there (a garbage-collection pass) contend on the same
        flash timelines. An error an entry raises (an unmapped LPA from
        the FTL) propagates as it is; on a caller's simulator it arrives
        as the loop process's :class:`~repro.sim.SimProcessError`.
        """
        if sim is None:
            _Retiming(self, requests, background, serve_input, 0).run()
            return
        retiming = _Retiming(self, requests, background, serve_input, sim.now)
        sim.spawn(_retiming_process(retiming, sim), label="retiming")
        sim.run()


#: What a retiming-loop entry does. Entries never compare by kind: their
#: push order is unique.
_ISSUE, _RESULT, _BACKGROUND = 0, 1, 2


class _Retiming:
    """One run of the retiming loop over the engines of some requests.

    Every entry is ``(instant, push order, kind, state)``: an engine's next
    page issue (its state the engine's task and request), a pending
    result-page program (the engine's task), or the background reader's
    next read. They run in instant order and, at one instant, in push
    order. An instant already past when its entry is pushed becomes the
    current one. An engine issues page ``k`` at
    ``round(max(0, (k - EAGER_WINDOW_PAGES) * cpp) + shift)``; a result
    page is programmed, and a background read issued, at its instant
    rounded by :func:`~repro.sim.as_ns`.
    """

    def __init__(self, firmware: Firmware, requests, background, serve_input, now: int) -> None:
        self.firmware = firmware
        self.serve_input = serve_input
        heap = self.heap = []
        for request in requests:
            for task in request.tasks:
                if task.lpas:
                    heap.append((now, len(heap), _ISSUE, (task, request)))
        if background is not None and background.lpas:
            # Bound for scheduling background reads: a bit past the compute span.
            spans = (task.compute_ns for request in requests for task in request.tasks)
            self.background_span_ns = max(spans, default=0.0) * 1.25
            self.background_index = 0
            self.background_ns = 0.0
            heap.append((now, len(heap), _BACKGROUND, background))
        self.pushed = len(heap)

    def run(self, until: Optional[int] = None) -> None:
        """Run every entry due at or before ``until`` (all of them when
        None), including those the entries push."""
        heap = self.heap
        pop, push = heapq.heappop, heapq.heappush
        firmware = self.firmware
        page = firmware.config.flash.page_bytes
        lookup, write = firmware.ftl.lookup, firmware.ftl.write
        read, program = firmware.array.service_read, firmware.array.service_write
        route = firmware.crossbar.route
        out_lpa = firmware._out_lpa
        serve_input = self.serve_input
        window = EAGER_WINDOW_PAGES
        seq = self.pushed
        while heap:
            if until is not None and heap[0][0] > until:
                break
            now, _, kind, state = pop(heap)
            if kind == _ISSUE:
                task, request = state
                k = task.next_k
                if serve_input is None:
                    ppa = lookup(task.lpas[k])
                    arrival = read(ppa, now).done_ns + route(task.core_id, ppa.channel)
                else:
                    arrival = serve_input(task, k, now)
                cpp, shift = task.cpp_ns, task.shift_ns
                needed = k * cpp + shift
                if arrival > needed:
                    late = arrival - needed
                    task.shift_ns = shift = shift + late
                    request.stall_ns += late
                # Result pages emerge as compute progresses and share the buses.
                pending = task.pending_out_bytes + page * request.flash_ratio
                while pending >= page:
                    pending -= page
                    at = as_ns((k + 1) * cpp + shift)
                    push(heap, (at if at > now else now, seq, _RESULT, task))
                    seq += 1
                task.pending_out_bytes = pending
                k += 1
                task.next_k = k
                if k < len(task.lpas):
                    ahead = (k - window) * cpp
                    at = round((ahead if ahead > 0.0 else 0.0) + shift)
                    push(heap, (at if at > now else now, seq, _ISSUE, state))
                    seq += 1
            elif kind == _RESULT:
                task = state
                # Program latency is absorbed by plane parallelism and the
                # write cache; the engine only waits for the bus transfer.
                done = program(write(next(out_lpa)), now).array_done_ns
                if done > task.last_write_done_ns:
                    task.last_write_done_ns = done
                task.out_pages_written += 1
            else:
                # Conventional host page reads every ``interval_ns`` until
                # a bit past the compute span.
                background = state
                lpa = background.lpas[self.background_index % len(background.lpas)]
                background.latency.observe(read(lookup(lpa), now).done_ns - now)
                self.background_ns += background.interval_ns
                if self.background_ns > self.background_span_ns:
                    continue
                self.background_index += 1
                at = as_ns(self.background_ns)
                push(heap, (at if at > now else now, seq, _BACKGROUND, background))
                seq += 1
        self.pushed = seq


def _retiming_process(retiming: _Retiming, sim: Simulator):
    """The retiming loop as one process on ``sim``: before the first entry
    of each new instant it waits until then, and then runs every entry due."""
    heap = retiming.heap
    while heap:
        yield sim.wait_until(heap[0][0])
        retiming.run(until=sim.now)


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

