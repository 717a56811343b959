"""The computational SSD device: glue for every subsystem, plus the
package-level :func:`simulate_offload` entry point.

A :class:`ComputationalSSD` instantiates the Table IV configuration it is
given: the flash array and FTL, the crossbar (or channel-local wiring), the
SSD DRAM buffer, the host interface, one compute-engine model (RISC-V
CoreModel or UDP lane), and the firmware. The two-phase methodology of
Figure 11 is visible in :meth:`offload`:

1. **Core phase** — the kernel runs on a sampled data window through the
   engine's memory-hierarchy timing model (the Gem5 role), giving
   cycles/byte, DRAM traffic, and functional outputs.
2. **Flash phase** — the firmware replays the full request's pages through
   the flash array + FTL + crossbar timelines (the MQSim role) and retimes
   compute against page arrivals; the SSD-DRAM bandwidth wall caps the
   aggregate rate.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.config import EngineKind, SSDConfig
from repro.core.core import CoreModel, CoreRunResult
from repro.core.udp import UDPLaneModel
from repro.errors import DeviceError
from repro.flash.array import FlashArray
from repro.ftl.mapping import PageMapFTL
from repro.kernels.pricing import PRICING_CACHE
from repro.ssd.crossbar import Crossbar
from repro.ssd.dram_buffer import DRAMBuffer
from repro.ssd.firmware import Firmware, OffloadResult
from repro.ssd.host_interface import HostInterface, ScompCommand
from repro.telemetry import Telemetry

DEFAULT_SAMPLE_BYTES = 64 * 1024
_SAMPLE_BYTES_BY_KERNEL = {
    # Heavier interpreted kernels get smaller (still representative) windows.
    "aes": 4 * 1024,
    "merge": 16 * 1024,
    "parse": 16 * 1024,
    "psf": 16 * 1024,
    "raid6": 32 * 1024,
}


class ComputationalSSD:
    """One computational SSD instance of a Table IV configuration."""

    def __init__(
        self,
        config: SSDConfig,
        layout_skew: float = 0.0,
        telemetry: Optional[Telemetry] = None,
        zoned: bool = False,
        max_open_zones: int = 8,
    ) -> None:
        self.config = config
        #: Tracer + counter registry shared by every component of this
        #: device; defaults to a NullTracer bundle (zero observable effect).
        self.telemetry = telemetry or Telemetry()
        self.array = FlashArray(config.flash, telemetry=self.telemetry)
        #: ZNS mode swaps the page-map FTL for the zoned variant: appends at
        #: per-zone write pointers, whole-zone resets instead of page GC
        #: (``repro.zns`` drives it through the zone commands).
        self.zoned = zoned
        if zoned:
            if layout_skew:
                raise DeviceError("layout skew applies to the page-map FTL only")
            from repro.ftl.zoned import ZonedFTL

            self.ftl = ZonedFTL(config.flash, max_open_zones=max_open_zones)
        else:
            self.ftl = PageMapFTL(config.flash, skew=layout_skew)
        self.crossbar = Crossbar(
            config.flash.channels, config.num_cores, enabled=config.crossbar
        )
        self.dram = DRAMBuffer(config.dram)
        self.host = HostInterface(config.host, telemetry=self.telemetry)
        self.firmware = Firmware(self.config, self.array, self.ftl, self.crossbar, self.dram)
        if config.core.engine is EngineKind.UDP:
            self.engine = UDPLaneModel(config.core)
        else:
            self.engine = CoreModel(config.core)

    # -- plain storage path ------------------------------------------------------

    def mount_dataset(self, total_bytes: int) -> List[int]:
        """Map a dataset's logical pages into the flash array (metadata only)."""
        pages = math.ceil(total_bytes / self.config.flash.page_bytes)
        if pages > self.config.flash.total_pages:
            raise DeviceError(
                f"dataset of {pages} pages exceeds array capacity "
                f"{self.config.flash.total_pages}"
            )
        lpas = list(range(pages))
        self.ftl.populate(lpas)
        return lpas

    def write_dataset(self, data: bytes, at_ns: float = 0.0) -> List[int]:
        """Write real bytes through the FTL into the flash array.

        Unlike :meth:`mount_dataset`, page contents are stored in the array,
        so they can be read back bit-exactly (and fed to the functional
        offload path).
        """
        page = self.config.flash.page_bytes
        lpas: List[int] = []
        for offset in range(0, len(data), page):
            lpa = offset // page
            ppa = self.ftl.write(lpa)
            self.array.service_write(ppa, at_ns, data=data[offset : offset + page])
            lpas.append(lpa)
        return lpas

    def read_dataset(self, lpas: Sequence[int]) -> bytes:
        """Functional read-back of page contents through the FTL mapping."""
        out = bytearray()
        for lpa in lpas:
            data = self.array.read_data(self.ftl.lookup(lpa))
            if data is None:
                raise DeviceError(f"LPA {lpa} has no stored contents")
            out += data
        return bytes(out)

    def read_pages(self, lpas: Sequence[int], at_ns: float = 0.0) -> float:
        """Conventional timed read path; returns completion time."""
        done = at_ns
        for lpa in lpas:
            record = self.array.service_read(self.ftl.lookup(lpa), at_ns)
            done = max(done, record.done_ns)
        return self.host.transfer(
            len(lpas) * self.config.flash.page_bytes, done, to_host=True
        )

    # -- computational path ------------------------------------------------------

    def sample_kernel(self, kernel, sample_bytes: Optional[int] = None) -> CoreRunResult:
        """Core phase: run the kernel on a representative window.

        The sampled run is deterministic per (config, kernel parameters,
        size), so the process-wide
        :data:`~repro.kernels.pricing.PRICING_CACHE` lets one run price
        every same-shape scomp; a config or kernel-parameter change misses
        by construction.
        """
        size = sample_bytes or _SAMPLE_BYTES_BY_KERNEL.get(kernel.name, DEFAULT_SAMPLE_BYTES)
        cached = PRICING_CACHE.get(self.config, kernel, size)
        if cached is not None:
            return cached
        sample = self.engine.run(kernel, kernel.make_inputs(size))
        PRICING_CACHE.put(self.config, kernel, size, sample)
        return sample

    def offload(
        self,
        kernel,
        data_bytes: int,
        sample_bytes: Optional[int] = None,
        sample: Optional[CoreRunResult] = None,
        background=None,
    ) -> OffloadResult:
        """Execute a read-path scomp of ``kernel`` over ``data_bytes``.

        ``background`` (a :class:`~repro.ssd.firmware.BackgroundIO`)
        interleaves conventional host reads with the offload.
        """
        if data_bytes <= 0:
            raise DeviceError("offload needs a positive data size")
        lpas = self.mount_dataset(data_bytes)
        command = ScompCommand(
            command_id=self.host.next_id(),
            kernel=kernel.name,
            lpa_lists=[lpas],
        )
        self.host.submit(command)
        core_sample = sample or self.sample_kernel(kernel, sample_bytes)
        result = self.firmware.run_offload(kernel, core_sample, lpas, background=background)
        # Results (or final state) return to the host over the link.
        done = self.host.transfer(max(result.bytes_out, 1), result.completion_ns, to_host=True)
        self.host.complete(command, 0.0, done, result.bytes_out)
        return result

    def offload_write_path(
        self,
        kernel,
        data_bytes: int,
        sample_bytes: Optional[int] = None,
        sample: Optional[CoreRunResult] = None,
    ) -> OffloadResult:
        """Write-path scomp: ingest host data through the compute engines.

        The classic write-path offloads are exactly the paper's standalone
        set: erasure coding on ingest (RAID4/6), inline encryption (AES),
        inline compression.
        """
        if data_bytes <= 0:
            raise DeviceError("write-path offload needs a positive data size")
        pages = math.ceil(data_bytes / self.config.flash.page_bytes)
        command = ScompCommand(
            command_id=self.host.next_id(),
            kernel=kernel.name,
            lpa_lists=[list(range(pages))],
            write_path=True,
        )
        self.host.submit(command)
        core_sample = sample or self.sample_kernel(kernel, sample_bytes)
        result = self.firmware.run_write_offload(kernel, core_sample, pages)
        self.host.transfer(result.bytes_in, 0.0, to_host=False)
        self.host.complete(command, 0.0, result.completion_ns, result.bytes_in)
        return result

    def offload_concurrent(self, kernel_sizes, sample_bytes: Optional[int] = None):
        """Run several kernels concurrently over disjoint datasets.

        ``kernel_sizes`` is a sequence of ``(kernel, data_bytes)``; cores
        are partitioned across the requests (paper Section V-D task-level
        parallelism). Returns one OffloadResult per request.
        """
        page = self.config.flash.page_bytes
        requests = []
        next_lpa = 0
        for kernel, data_bytes in kernel_sizes:
            pages = math.ceil(data_bytes / page)
            lpas = list(range(next_lpa, next_lpa + pages))
            next_lpa += pages
            self.ftl.populate(lpas)
            sample = self.sample_kernel(kernel, sample_bytes)
            requests.append((kernel, sample, lpas))
            self.host.submit(
                ScompCommand(
                    command_id=self.host.next_id(), kernel=kernel.name, lpa_lists=[lpas]
                )
            )
        return self.firmware.simulate_concurrent(requests)

    def offload_functional(self, kernel, data: bytes):
        """Full-fidelity scomp: real data through flash, compute, retiming.

        Writes ``data`` into the flash array, reads the pages back through
        the FTL, executes the kernel's program on those exact bytes (the
        core phase), and retimes against the array. Returns
        ``(OffloadResult, outputs, final_state)`` so callers can check the
        computation end to end against the kernel's reference.
        """
        if not data:
            raise DeviceError("offload_functional needs data")
        if kernel.num_inputs != 1:
            raise DeviceError(
                "offload_functional drives single-input kernels; multi-stream "
                "kernels are exercised through CoreModel in the tests"
            )
        page = self.config.flash.page_bytes
        padded = data + b"\x00" * (-len(data) % kernel.block_bytes)
        lpas = self.write_dataset(padded + b"\x00" * (-len(padded) % page))
        stored = self.read_dataset(lpas)[: len(padded)]
        sample = self.engine.run(kernel, [stored])
        command = ScompCommand(
            command_id=self.host.next_id(), kernel=kernel.name, lpa_lists=[lpas]
        )
        self.host.submit(command)
        result = self.firmware.run_offload(kernel, sample, lpas)
        done = self.host.transfer(max(result.bytes_out, 1), result.completion_ns, to_host=True)
        self.host.complete(command, 0.0, done, result.bytes_out)
        return result, sample.outputs, sample.final_state


def simulate_offload(
    config: SSDConfig,
    kernel,
    data_bytes: int = 256 << 20,
    sample_bytes: Optional[int] = None,
    layout_skew: float = 0.0,
    sample: Optional[CoreRunResult] = None,
) -> OffloadResult:
    """One-call offload simulation on a fresh device (the main entry point).

    ``data_bytes`` defaults to 256 MiB: large enough that startup transients
    vanish, small enough that the page-level retiming stays fast. The
    paper's 8 GiB arrays can be passed explicitly; throughput is
    size-invariant past ~64 MiB for these streaming kernels.
    """
    device = ComputationalSSD(config, layout_skew=layout_skew)
    return device.offload(kernel, data_bytes, sample_bytes=sample_bytes, sample=sample)
