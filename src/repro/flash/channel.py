"""Channel bus: the shared link between one flash controller and its chips.

Chips on a channel operate independently, but their page transfers
serialise on the bus (paper Section II-A) — the FIFO arbitration here is
what bounds a channel to its 1 GB/s and creates the hot-spot when data
layout is skewed (Section VI-E).

The bus is a :class:`repro.sim.FifoResource`: a greedy FIFO reservation
timeline on the unified integer-nanosecond simulation kernel.  Transfers
are granted in call order, busy intervals are tracked exactly, and
utilisation over a window counts only the overlap that falls inside it
(a transfer straddling the window's end contributes its clipped part, not
its full duration).

Each bus publishes its byte/occupancy totals into the device's
:class:`~repro.telemetry.counters.CounterRegistry` and emits one span per
transfer on its ``flash/ch<n>`` trace track; with the default
:class:`~repro.telemetry.tracer.NullTracer` the span call is a no-op and
timing is unchanged.  The integer transfer time of each transfer size is
computed once and memoised.
"""

from __future__ import annotations

from typing import Dict

from repro.config import FlashConfig
from repro.errors import FlashError
from repro.sim import FifoResource, as_ns


class ChannelBus:
    """FIFO transfer-slot resource for one channel."""

    def __init__(self, config: FlashConfig, channel: int, telemetry=None) -> None:
        if telemetry is None:
            from repro.telemetry import Telemetry

            telemetry = Telemetry()
        self.config = config
        self.channel = channel
        self._track = f"flash/ch{channel}"
        # Backfill: the controller's DMA engine serves transfers in
        # readiness order, so a transfer whose data is ready early may use
        # an idle gap left by one booked further in the future.
        self._bus = FifoResource(self._track, backfill=True)
        self._durations: Dict[int, int] = {}
        self._tracer = telemetry.tracer
        self._bytes = telemetry.counters.counter(f"flash.ch{channel}.bytes")
        self._busy = telemetry.counters.counter(f"flash.ch{channel}.busy_ns")
        self._transfers = telemetry.counters.counter(f"flash.ch{channel}.transfers")

    @property
    def free_at_ns(self) -> int:
        """When the bus next frees (integer ns on the unified clock)."""
        return self._bus.free_at_ns

    @property
    def bytes_transferred(self) -> int:
        return int(self._bytes.value)

    @property
    def busy_ns(self) -> int:
        return self._bus.busy_ns

    def transfer(self, nbytes: int, ready_ns) -> int:
        """Schedule a transfer of ``nbytes`` that can start at ``ready_ns``.

        Returns the completion time. Transfers are granted in call order
        (FIFO arbitration at the flash controller).
        """
        duration = self._durations.get(nbytes)
        if duration is None:
            if nbytes <= 0:
                raise FlashError("transfer size must be positive")
            duration = as_ns(nbytes / self.config.channel_bandwidth_bytes_per_ns)
            self._durations[nbytes] = duration
        grant = self._bus.acquire(ready_ns, duration)
        self._bytes.inc(nbytes)
        self._busy.inc(duration)
        self._transfers.inc()
        self._tracer.complete(self._track, "xfer", grant.start_ns, grant.done_ns)
        return grant.done_ns

    def utilisation(self, until_ns) -> float:
        """Exact fraction of ``[0, until_ns]`` the bus spent transferring."""
        return self._bus.utilisation(until_ns)

    def reset_timeline(self) -> None:
        """Rewind the bus (manufacturing-state preloads)."""
        self._bus.reset()
