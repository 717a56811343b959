"""All-to-all interconnect between flash controllers and compute engines.

The crossbar (paper Section V-A/C) is what lets any ASSASIN core consume
pages from any channel, keeping FTL placement fully independent and
performance robust under layout skew. It is non-blocking at flash aggregate
bandwidth; each traversal adds a small fixed latency. With ``enabled=False``
it degenerates to the Figure 7 alternative — channel-local compute — used
as the comparison point in the skew study (Figure 19).
"""

from __future__ import annotations

from typing import List

from repro.errors import DeviceError

CROSSBAR_LATENCY_NS = 120  # one traversal: arbitration + wires (integer ns)


class Crossbar:
    """Routes page transfers between channels and cores.

    The fabric is non-blocking at flash aggregate bandwidth, so a
    traversal costs a fixed latency rather than a queued slot: no port
    keeps a reservation timeline. The crossbar counts the bytes each core
    and each channel moved, and the traversals.
    """

    def __init__(self, num_channels: int, num_cores: int, enabled: bool = True) -> None:
        if num_channels <= 0 or num_cores <= 0:
            raise DeviceError("crossbar needs positive port counts")
        if not enabled and num_cores != num_channels:
            raise DeviceError(
                "channel-local mode requires one core per channel "
                f"(cores={num_cores}, channels={num_channels})"
            )
        self.num_channels = num_channels
        self.num_cores = num_cores
        self.enabled = enabled
        self.core_bytes: List[int] = [0] * num_cores
        self.channel_bytes: List[int] = [0] * num_channels
        self.traversals = 0

    def allowed(self, core: int, channel: int) -> bool:
        """May ``core`` consume data from ``channel``?"""
        self._check(core, channel)
        return self.enabled or core == channel

    def route(self, core: int, channel: int, nbytes: int) -> int:
        """Account one transfer and return the added latency (ns)."""
        if not (0 <= core < self.num_cores and 0 <= channel < self.num_channels):
            self._check(core, channel)
        if not (self.enabled or core == channel):
            raise DeviceError(
                f"channel-local architecture: core {core} cannot reach channel {channel}"
            )
        self.core_bytes[core] += nbytes
        self.channel_bytes[channel] += nbytes
        self.traversals += 1
        return CROSSBAR_LATENCY_NS if self.enabled else 0

    def _check(self, core: int, channel: int) -> None:
        if not 0 <= core < self.num_cores:
            raise DeviceError(f"core port {core} out of range")
        if not 0 <= channel < self.num_channels:
            raise DeviceError(f"channel port {channel} out of range")
