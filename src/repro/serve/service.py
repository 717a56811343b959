"""Per-device analytic service paths shared by the serving layer and fleet.

:class:`DeviceService` owns the pieces of command service that belong to
*one* :class:`~repro.ssd.device.ComputationalSSD`: the core-phase samples
(cycles/byte and output ratio per scomp kernel), the stream-core pool as
unit timelines, the serve-path output-LPA allocator, and the read/write/
scomp service models that walk the device's flash, crossbar, and host-link
timelines. :class:`~repro.serve.scheduler.ServingLayer` delegates to one
instance; the fleet router (:mod:`repro.fleet.router`) builds one per
device so N peers can be serviced on a single shared simulation kernel.

The service models are exactly the ones documented on the serving layer:

* **read**: every page is fetched through the FTL + flash array (optionally
  through the recovery ladder), then the data crosses the host link.
* **write**: data crosses the link from the host, then each page takes a
  channel-bus slot; tPROG hides behind plane parallelism.
* **scomp**: pages stream through FTL + array + crossbar to the
  least-loaded stream core, which consumes them in order at the kernel's
  sampled cycles/byte; only the result crosses the link.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable

from repro.errors import ServeError
from repro.kernels import get_kernel
from repro.serve.queues import ServeCommand
from repro.sim import PooledResource
from repro.ssd.host_interface import ReadCommand, ScompCommand, WriteCommand

#: LPA namespace for serve-path result/write pages; disjoint from tenant
#: regions and from the firmware's offload-result namespace (1 << 40).
SERVE_OUT_LPA_BASE = 1 << 41


class DeviceService:
    """Analytic read/write/scomp service against one computational SSD."""

    def __init__(
        self,
        device,
        kernels: Iterable[str] = (),
        cores_name: str = "serve.cores",
        out_lpa_base: int = SERVE_OUT_LPA_BASE,
    ) -> None:
        self.device = device
        #: Optional :class:`~repro.ssd.firmware.RecoveryController`, set by
        #: a fault or fleet campaign; when set, every read/scomp page fetch
        #: runs the retry → RAID-rebuild ladder and commands complete with
        #: degraded/failed statuses.
        self.recovery = None
        self._tracer = device.telemetry.tracer
        self._tracing = self._tracer.enabled

        # Core-phase price per scomp kernel (compute ns per page, output
        # ratio); identical devices share one sampled run through the
        # process-wide pricing memo.
        self.page_bytes = device.config.flash.page_bytes
        self._cpp_page_ns: Dict[str, float] = {}
        self._out_ratio: Dict[str, float] = {}
        for kernel_name in kernels:
            self.ensure_sample(kernel_name)

        #: The stream-core pool as unit timelines on the simulation kernel;
        #: scomp service claims the least-loaded lane.
        self.cores = PooledResource(cores_name, device.config.num_cores)
        self._out_lpa = itertools.count(out_lpa_base)

    # -- sampling --------------------------------------------------------------

    def ensure_sample(self, kernel_name: str) -> None:
        """Sample ``kernel_name``'s core phase if not already cached."""
        if kernel_name in self._cpp_page_ns:
            return
        sample = self.device.sample_kernel(get_kernel(kernel_name))
        period_ns = self.device.config.core.clock_period_ns
        self._cpp_page_ns[kernel_name] = sample.cycles_per_byte * self.page_bytes * period_ns
        self._out_ratio[kernel_name] = (
            sample.bytes_out / sample.bytes_in if sample.bytes_in else 0.0
        )

    def compute_ns_per_page(self, kernel_name: str) -> float:
        """Sampled core time to stream one flash page through ``kernel_name``."""
        try:
            return self._cpp_page_ns[kernel_name]
        except KeyError:
            raise ServeError(
                f"no core-phase sample for kernel {kernel_name!r}"
            ) from None

    def out_ratio(self, kernel_name: str) -> float:
        return self._out_ratio.get(kernel_name, 0.0)

    # -- service models --------------------------------------------------------

    def service(self, cmd: ServeCommand, now: float) -> float:
        """Service one command starting at ``now``; returns completion time."""
        # Each attempt starts from a clean fault slate; only the attempt
        # that actually completes determines the command's final status.
        cmd.status = "ok"
        cmd.page_retries = 0
        cmd.reconstructions = 0
        if isinstance(cmd.command, ScompCommand):
            return self.service_scomp(cmd, now)
        if isinstance(cmd.command, ReadCommand):
            return self.service_read(cmd, now)
        if isinstance(cmd.command, WriteCommand):
            return self.service_write(cmd, now)
        raise ServeError(f"cannot service command {cmd.command!r}")

    def fetch_page(self, cmd: ServeCommand, lpa: int, now: float) -> float:
        """Fetch one page through the recovery ladder; returns its done time."""
        outcome = self.recovery.read_lpa(lpa, now)
        cmd.page_retries += outcome.retries
        if outcome.status == "reconstructed":
            cmd.reconstructions += 1
        if outcome.status == "failed":
            cmd.status = "failed"
        elif outcome.status in ("retried", "reconstructed") and cmd.status == "ok":
            # In-line ECC correction ('corrected') is the routine path and
            # stays 'ok'; only the retry ladder / RAID rebuild degrade.
            cmd.status = "recovered"
        return outcome.done_ns

    def service_read(self, cmd: ServeCommand, now: float) -> float:
        device = self.device
        flash_done = now
        for lpa in cmd.command.lpas:
            if self.recovery is not None:
                flash_done = max(flash_done, self.fetch_page(cmd, lpa, now))
            else:
                record = device.array.service_read(device.ftl.lookup(lpa), now)
                flash_done = max(flash_done, record.done_ns)
        nbytes = cmd.pages * self.page_bytes
        cmd.bytes_in = nbytes
        cmd.bytes_out = nbytes
        return device.host.transfer(nbytes, flash_done, to_host=True)

    def service_write(self, cmd: ServeCommand, now: float) -> float:
        device = self.device
        nbytes = cmd.pages * self.page_bytes
        cmd.bytes_in = nbytes
        landed = device.host.transfer(nbytes, now, to_host=False)
        done = landed
        # Overwriting tenants rewrite their own LPAs: the FTL remaps each
        # one and invalidates its old flash page, which is what feeds the
        # garbage collector. The default appends to the serve-output
        # namespace (fresh LPAs, no invalidation).
        lpas = cmd.command.lpas if cmd.overwrite else None
        for i in range(cmd.pages):
            ppa = device.ftl.write(lpas[i] if lpas else next(self._out_lpa))
            record = device.array.service_write(ppa, landed)
            # As in the firmware write path: the command acks once the data
            # is across the channel bus; tPROG hides behind plane
            # parallelism and the controller write cache.
            done = max(done, record.array_done_ns)
        return done

    def service_scomp(self, cmd: ServeCommand, now: float) -> float:
        device = self.device
        kernel_name = cmd.command.kernel
        cpp_page_ns = self.compute_ns_per_page(kernel_name)
        core = self.cores.least_loaded()
        first_page_ns = None
        flash_done = now
        for lpas in cmd.command.lpa_lists:
            for lpa in lpas:
                ppa = device.ftl.lookup(lpa)
                if self.recovery is not None:
                    page_done = self.fetch_page(cmd, lpa, now)
                else:
                    page_done = device.array.service_read(ppa, now).done_ns
                hop = (
                    device.crossbar.route(core, ppa.channel, self.page_bytes)
                    if device.crossbar.enabled
                    else 0
                )
                arrival = page_done + hop
                flash_done = max(flash_done, arrival)
                if first_page_ns is None or arrival < first_page_ns:
                    first_page_ns = arrival
        compute_ns = cmd.pages * cpp_page_ns
        start = max(now, self.cores.free_at(core), first_page_ns or now)
        # The core consumes pages in order, so it can neither start before
        # the first page lands nor finish before the last one does; the
        # lane is held to the command's completion but only the compute
        # span counts toward the core's utilisation.
        done = max(start + compute_ns, flash_done)
        if self._tracing:
            self._tracer.complete(f"core/{core}", f"scomp:{kernel_name}", start, done)
        self.cores.occupy(core, start, done, busy_ns=compute_ns)
        cmd.bytes_in = cmd.pages * self.page_bytes
        cmd.bytes_out = int(cmd.bytes_in * self.out_ratio(kernel_name))
        return device.host.transfer(max(cmd.bytes_out, 1), done, to_host=True)
