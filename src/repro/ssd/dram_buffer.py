"""SSD DRAM buffer: the shared-bandwidth memory wall.

Wraps :class:`~repro.mem.dram.DRAMModel` with device-level concerns: how
many bytes of DRAM traffic each input byte generates on a given data path,
and the resulting throughput cap (the paper's Section III memory wall).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CoreConfig, DRAMConfig, DataSource, EngineKind
from repro.mem.dram import DRAMModel


@dataclass(frozen=True)
class TrafficBreakdown:
    """DRAM bytes moved per input byte, by cause."""

    staging_in: float  # flash controller -> DRAM page staging
    core_reads: float  # engine fills from DRAM (incl. UDP scratchpad copies)
    core_writes: float  # engine writebacks / results into DRAM
    staging_out: float  # result pages DRAM -> flash or host

    @property
    def total(self) -> float:
        return self.staging_in + self.core_reads + self.core_writes + self.staging_out


class DRAMBuffer:
    """The SSD-internal DRAM's shared bandwidth pool: the memory wall."""

    def __init__(self, config: DRAMConfig) -> None:
        self.model = DRAMModel(config)

    @staticmethod
    def traffic_per_input_byte(
        core: CoreConfig, measured_core_traffic_per_byte: float, output_ratio: float
    ) -> TrafficBreakdown:
        """DRAM bytes per input byte for one engine's data path.

        * DRAM-sourced engines stage every input byte into DRAM and read it
          back (the blue arrows of Figure 4); results are staged on the way
          out. The UDP lane additionally write-copies into its scratchpad,
          which is included in the measured core traffic.
        * Flash-stream engines (ASSASIN) bypass DRAM for storage data; only
          whatever the cache hierarchy spills (measured) plus none of the
          staging shows up (Figure 6).
        """
        if core.data_source is DataSource.DRAM:
            staging_in = 1.0
            staging_out = output_ratio
            reads = max(measured_core_traffic_per_byte, 1.0 if core.engine is EngineKind.UDP else 0.0)
            return TrafficBreakdown(staging_in, reads, output_ratio, staging_out)
        return TrafficBreakdown(0.0, measured_core_traffic_per_byte, 0.0, 0.0)

    def bandwidth_cap_bytes_per_ns(self, traffic: TrafficBreakdown) -> float:
        """Max sustainable input rate given the DRAM bandwidth pool."""
        if traffic.total <= 0:
            return float("inf")
        return self.model.config.bandwidth_bytes_per_ns / traffic.total
