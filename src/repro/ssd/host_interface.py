"""NVMe-style host interface with the ``scomp`` command extension.

Regular reads/writes move data over the host link; the ``scomp`` command
(paper Section V-D, Figure 9) carries ``(compute, pData,
List[List[LPA]])`` — a kernel name, a host buffer handle, and the logical
page lists forming the input (read-path) or output (write-path) streams.
Only *results* cross the link on a read-path scomp, which is where
computational storage's traffic reduction comes from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List

from repro.config import HostInterfaceConfig
from repro.errors import DeviceError
from repro.sim import FifoResource, as_ns


@dataclass(frozen=True)
class NVMeCommand:
    """Base class for commands in the submission queue."""

    command_id: int


@dataclass(frozen=True)
class ReadCommand(NVMeCommand):
    lpas: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class WriteCommand(NVMeCommand):
    lpas: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class ScompCommand(NVMeCommand):
    """Computational storage request: (compute, pData, List[List[LPA]])."""

    kernel: str = ""
    p_data: int = 0  # host buffer handle (opaque in the model)
    lpa_lists: List[List[int]] = field(default_factory=list)
    write_path: bool = False

    def num_streams(self) -> int:
        return len(self.lpa_lists)

    def total_pages(self) -> int:
        return sum(len(lst) for lst in self.lpa_lists)


@dataclass(frozen=True)
class ZoneAppendCommand(NVMeCommand):
    """ZNS Zone Append: sequential-write ``npages`` at the zone's write
    pointer; the completion carries the assigned LBA (``repro.zns``)."""

    zone_id: int = 0
    npages: int = 1


@dataclass(frozen=True)
class ZoneResetCommand(NVMeCommand):
    """ZNS Zone Reset: rewind the write pointer, erase the block group."""

    zone_id: int = 0


@dataclass(frozen=True)
class ZoneReportCommand(NVMeCommand):
    """ZNS Zone Management Receive: report zone descriptors to the host."""

    first_zone: int = 0
    count: int = 0  # 0 = all zones


@dataclass(frozen=True)
class Completion:
    """Completion-queue entry."""

    command_id: int
    submitted_ns: float
    completed_ns: float
    bytes_transferred: int

    @property
    def latency_ns(self) -> float:
        return self.completed_ns - self.submitted_ns


class HostInterface:
    """Submission/completion queues plus link-transfer timing.

    Link occupancy is traced as spans on the ``host-link`` track and the
    directional byte totals publish into the device's counter registry
    (no-ops under the default :class:`~repro.telemetry.tracer.NullTracer`).
    """

    def __init__(self, config: HostInterfaceConfig, telemetry=None) -> None:
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.config = config
        self._ids = itertools.count(1)
        self._issued_ids: set = set()
        self.submissions: List[NVMeCommand] = []
        self.completions: List[Completion] = []
        #: The PCIe link as a FIFO reservation timeline on the unified
        #: integer-ns simulation kernel (shared by both directions).
        self._link = FifoResource("host-link", backfill=True)
        self._tracer = telemetry.tracer
        self._to_host = telemetry.counters.counter("host.bytes_to_host")
        self._from_host = telemetry.counters.counter("host.bytes_from_host")

    @property
    def bytes_to_host(self) -> int:
        return int(self._to_host.value)

    @property
    def bytes_from_host(self) -> int:
        return int(self._from_host.value)

    def next_id(self) -> int:
        return next(self._ids)

    def submit(self, command: NVMeCommand) -> None:
        if command.command_id in self._issued_ids:
            raise DeviceError(f"duplicate command id {command.command_id}")
        self._issued_ids.add(command.command_id)
        self.submissions.append(command)

    def transfer(self, nbytes: int, ready_ns, to_host: bool) -> int:
        """Move ``nbytes`` over the link; returns completion time."""
        if nbytes < 0:
            raise DeviceError("negative transfer")
        ready = as_ns(ready_ns + self.config.latency_ns)
        duration = as_ns(nbytes / self.config.bandwidth_bytes_per_ns)
        grant = self._link.acquire(ready, duration)
        if to_host:
            self._to_host.inc(nbytes)
            self._tracer.complete("host-link", "to-host", grant.start_ns, grant.done_ns)
        else:
            self._from_host.inc(nbytes)
            self._tracer.complete("host-link", "from-host", grant.start_ns, grant.done_ns)
        return grant.done_ns

    def complete(self, command: NVMeCommand, submitted_ns: float, completed_ns: float,
                 bytes_transferred: int) -> Completion:
        completion = Completion(command.command_id, submitted_ns, completed_ns, bytes_transferred)
        self.completions.append(completion)
        return completion

    def transfer_time_ns(self, nbytes: int) -> float:
        """Pure link occupancy for ``nbytes`` (no queueing)."""
        return nbytes / self.config.bandwidth_bytes_per_ns
