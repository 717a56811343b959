"""All-to-all interconnect between flash controllers and compute engines.

The crossbar (paper Section V-A/C) is what lets any ASSASIN core consume
pages from any channel, keeping FTL placement fully independent and
performance robust under layout skew. It is non-blocking at flash aggregate
bandwidth; each traversal adds a small fixed latency. With ``enabled=False``
it degenerates to the Figure 7 alternative — channel-local compute — used
as the comparison point in the skew study (Figure 19); ``SSDConfig`` then
guarantees one core per channel.
"""

from __future__ import annotations

from repro.errors import DeviceError

CROSSBAR_LATENCY_NS = 120  # one traversal: arbitration + wires (integer ns)


class Crossbar:
    """Routes page transfers between channels and cores.

    The fabric is non-blocking at flash aggregate bandwidth, so a
    traversal costs a fixed latency rather than a queued slot: no port
    keeps a reservation timeline.
    """

    def __init__(self, num_channels: int, num_cores: int, enabled: bool = True) -> None:
        if num_channels <= 0 or num_cores <= 0:
            raise DeviceError("crossbar needs positive port counts")
        self.num_channels = num_channels
        self.num_cores = num_cores
        self.enabled = enabled

    def route(self, core: int, channel: int) -> int:
        """Check one page transfer and return the added latency (ns)."""
        if not 0 <= core < self.num_cores:
            raise DeviceError(f"core port {core} out of range")
        if not 0 <= channel < self.num_channels:
            raise DeviceError(f"channel port {channel} out of range")
        if not (self.enabled or core == channel):
            raise DeviceError(
                f"channel-local architecture: core {core} cannot reach channel {channel}"
            )
        return CROSSBAR_LATENCY_NS if self.enabled else 0
