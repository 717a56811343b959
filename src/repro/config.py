"""Device and core configurations (paper Table IV plus SSD-level parameters).

The paper compares six computational SSDs that share the SSD substrate
(8-channel flash array at 1 GB/s per channel, 2 GB LPDDR5 DRAM at 8 GB/s
effective, PCIe Gen4 x4 host link) and differ only in the compute engines and
their integration:

====================  ==========  =======================================
Name                  Data source  Per-core memory architecture
====================  ==========  =======================================
``Baseline``          SSD DRAM    32 KiB 8-way L1D + 256 KiB 16-way L2
``UDP``               SSD DRAM    256 KiB scratchpad (accelerator lanes)
``Prefetch``          SSD DRAM    L1D + L2 + DCPT prefetcher
``AssasinSp``         flash       64 KiB scratchpad + 64+64 KiB ping-pong
``AssasinSb``         flash       64 KiB scratchpad + 64+64 KiB streambuffer
                                  (S=8, P=2) + stream ISA
``AssasinSb$``        flash       AssasinSb + 32 KiB 8-way L1D fallback
====================  ==========  =======================================

Everything here is a frozen dataclass; simulators never mutate configs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.utils.units import GIB, KIB


def check_count(
    value,
    name: str,
    minimum: int = 1,
    maximum: Optional[int] = None,
    error: type = ConfigError,
) -> None:
    """Raise ``error`` unless ``value`` is an integer in ``minimum..maximum``.

    The campaign configs check every count field here, so a fractional
    count fails at construction with a typed error instead of a bare
    ``TypeError`` mid-run, or a run with fractional queue slots.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < minimum
        or (maximum is not None and value > maximum)
    ):
        bound = f"within {minimum}..{maximum}" if maximum is not None else f">= {minimum}"
        raise error(f"{name} must be an integer {bound}, got {value!r}")


class DataSource(enum.Enum):
    """Where a compute engine sources storage data from (Table IV column 2)."""

    DRAM = "dram"
    FLASH_STREAM = "flash_stream"


class PrefetcherKind(enum.Enum):
    """Hardware prefetcher attached to the L1D, if any."""

    NONE = "none"
    STRIDE = "stride"
    DCPT = "dcpt"


class EngineKind(enum.Enum):
    """Compute-engine family: general-purpose RISC-V core or UDP lane."""

    RISCV = "riscv"
    UDP = "udp"


#: Cycle-costing timing models for the core pipeline (``repro.core.coster``).
#: ``"static"`` is the historical fixed-latency model and the default;
#: ``"predictive"`` adds BTB + tournament branch prediction, load-use hazard
#: bubbles and operand-dependent multi-cycle mul/div. Architectural results
#: are identical across models — only cycle accounting changes.
PIPELINE_MODELS: Tuple[str, ...] = ("static", "predictive")


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative write-back cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64
    hit_latency_cycles: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError("cache dimensions must be positive")
        if self.size_bytes % (self.ways * self.line_bytes) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible into "
                f"{self.ways} ways of {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class ScratchpadConfig:
    """A software-managed SRAM scratchpad tightly coupled to the pipeline."""

    size_bytes: int
    access_latency_cycles: int = 1
    port_width_bytes: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("scratchpad size must be positive")
        if self.access_latency_cycles < 1:
            raise ConfigError("scratchpad access latency must be >= 1 cycle")


@dataclass(frozen=True)
class StreamBufferConfig:
    """Input/output stream buffers (Section V-B).

    Each direction holds up to ``num_streams`` (S) circular buffers of
    ``pages_per_stream`` (P) flash pages; the core accesses only the stream
    head through a small prefetched FIFO, which is what makes the structure
    fast (Figure 20).
    """

    num_streams: int = 8
    pages_per_stream: int = 2
    page_bytes: int = 4096
    head_latency_cycles: int = 1
    max_access_bytes: int = 64

    def __post_init__(self) -> None:
        if self.num_streams <= 0 or self.pages_per_stream <= 0:
            raise ConfigError("stream buffer S and P must be positive")
        if self.page_bytes <= 0 or self.page_bytes % 64 != 0:
            raise ConfigError("stream buffer page size must be a positive multiple of 64")

    @property
    def capacity_bytes(self) -> int:
        """Total capacity of one direction (S * P * page)."""
        return self.num_streams * self.pages_per_stream * self.page_bytes


@dataclass(frozen=True)
class CoreConfig:
    """One in-SSD compute engine (a row of Table IV)."""

    name: str
    engine: EngineKind = EngineKind.RISCV
    frequency_ghz: float = 1.0
    data_source: DataSource = DataSource.DRAM
    l1d: Optional[CacheConfig] = None
    l2: Optional[CacheConfig] = None
    prefetcher: PrefetcherKind = PrefetcherKind.NONE
    scratchpad: Optional[ScratchpadConfig] = None
    pingpong: Optional[ScratchpadConfig] = None
    streambuffer: Optional[StreamBufferConfig] = None
    stream_isa: bool = False
    #: Cycle-costing timing model: "static" (fixed latencies) or
    #: "predictive" (branch predictor + hazards + operand-dependent mul/div).
    #: See docs/ARCHITECTURE.md "Core timing models".
    pipeline_model: str = "static"

    def __post_init__(self) -> None:
        if self.frequency_ghz <= 0:
            raise ConfigError("core frequency must be positive")
        if self.pipeline_model not in PIPELINE_MODELS:
            raise ConfigError(
                f"unknown pipeline model {self.pipeline_model!r}; known: {PIPELINE_MODELS}"
            )
        if self.stream_isa and self.streambuffer is None:
            raise ConfigError("stream ISA requires a stream buffer")
        if self.data_source is DataSource.FLASH_STREAM:
            if self.streambuffer is None and self.pingpong is None:
                raise ConfigError(
                    "flash-stream data source needs a stream buffer or ping-pong scratchpad"
                )
        if self.prefetcher is not PrefetcherKind.NONE and self.l1d is None:
            raise ConfigError("a prefetcher requires an L1D cache")

    @property
    def clock_period_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    @property
    def bypasses_dram(self) -> bool:
        """True when storage data never transits the SSD DRAM (ASSASIN path)."""
        return self.data_source is DataSource.FLASH_STREAM


@dataclass(frozen=True)
class FlashConfig:
    """NAND flash array geometry and ONFI-style timing."""

    channels: int = 8
    chips_per_channel: int = 8
    dies_per_chip: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 256
    pages_per_block: int = 256
    page_bytes: int = 4096
    # Timing: array read into the page register, program, erase, and the
    # channel transfer rate. Table IV specifies 1 GB/s read AND write per
    # channel: with 32 planes per channel operating independently
    # (multi-plane + cache program), 120 us tPROG sustains
    # 32 * 4 KiB / 120 us = 1.09 GB/s of programming per channel, so the
    # channel bus is the binding write constraint, as the paper assumes.
    read_latency_ns: float = 12_000.0
    program_latency_ns: float = 120_000.0
    erase_latency_ns: float = 1_500_000.0
    channel_bandwidth_bytes_per_ns: float = 1.0  # 1 GB/s

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "chips_per_channel",
            "dies_per_chip",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"flash geometry field {name} must be positive")

    @property
    def pages_per_chip(self) -> int:
        return self.dies_per_chip * self.planes_per_die * self.blocks_per_plane * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.channels * self.chips_per_channel * self.pages_per_chip

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_bytes

    @property
    def page_transfer_ns(self) -> float:
        """Time to move one page across the channel bus."""
        return self.page_bytes / self.channel_bandwidth_bytes_per_ns

    @property
    def array_bandwidth_bytes_per_ns(self) -> float:
        """Aggregate sequential-read bandwidth of all channels (8 GB/s here)."""
        return self.channels * self.channel_bandwidth_bytes_per_ns


@dataclass(frozen=True)
class DRAMConfig:
    """SSD-internal DRAM: a shared bandwidth pool plus a fixed access latency.

    The 60 ns effective latency (LPDDR5 row-hit dominated streaming access,
    as seen by an in-order core past its L2) reproduces the paper's Section
    III-A anchor: a single baseline core running Filter lands at ~0.63 GB/s.
    """

    capacity_bytes: int = 2 * GIB
    bandwidth_bytes_per_ns: float = 8.0  # 8 GB/s effective LPDDR5
    latency_ns: float = 60.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_bytes_per_ns <= 0:
            raise ConfigError("DRAM capacity and bandwidth must be positive")


@dataclass(frozen=True)
class HostInterfaceConfig:
    """Host link (PCIe Gen4 x4 by default: 8 GB/s each direction)."""

    bandwidth_bytes_per_ns: float = 8.0
    latency_ns: float = 1_000.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_ns <= 0:
            raise ConfigError("host interface bandwidth must be positive")


#: Fault scopes a :class:`HardFault` can take out at once.
HARD_FAULT_KINDS: Tuple[str, ...] = ("channel", "chip", "plane")


@dataclass(frozen=True)
class HardFault:
    """A permanent hardware failure with an onset time.

    From ``onset_ns`` on, every read landing inside the failed scope
    returns no data: a ``"channel"`` fault kills all chips behind one
    channel, a ``"chip"`` fault one chip, and a ``"plane"`` fault one
    (die, plane) pair of one chip. Pages in the dead zone are only
    recoverable through RAID-group reconstruction.
    """

    kind: str
    channel: int
    chip: int = -1
    die: int = -1
    plane: int = -1
    onset_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in HARD_FAULT_KINDS:
            raise ConfigError(
                f"unknown hard-fault kind {self.kind!r}; known: {HARD_FAULT_KINDS}"
            )
        if self.channel < 0:
            raise ConfigError("hard fault needs a channel")
        if self.kind in ("chip", "plane") and self.chip < 0:
            raise ConfigError(f"{self.kind} fault needs a chip index")
        if self.kind == "plane" and (self.die < 0 or self.plane < 0):
            raise ConfigError("plane fault needs die and plane indices")
        if self.onset_ns < 0:
            raise ConfigError("hard-fault onset cannot be negative")


@dataclass(frozen=True)
class FaultConfig:
    """Seeded fault-campaign parameters (``repro.faults``).

    Media faults are sampled per page-read attempt from an RNG keyed by
    ``(seed, physical page, per-page read count)``, so a campaign is a pure
    function of its seed: same seed, same corrupted bits, same recovery
    report.

    * ``page_error_rate`` — probability a read picks up sparse raw-NAND
      noise (``noisy_bits`` flips spread over distinct ECC codewords;
      always correctable by SECDED, scrubbed after correction).
    * ``uncorrectable_rate`` — probability a read picks up a dense burst
      (multiple flips in one codeword; uncorrectable). A fraction
      ``transient_fraction`` of bursts clears on a read-retry (shifted
      sense threshold); the rest are permanent media faults that need
      RAID reconstruction plus block retirement.
    * ``slow_read_rate`` — probability of a latency outlier ("slow die")
      adding ``slow_read_extra_ns`` to the read.
    * ``failures`` — scheduled :class:`HardFault` whole-unit failures.
    * Read-retry: up to ``max_read_retries`` re-reads with exponential
      backoff (``retry_backoff_ns * 2**attempt``).
    * ``raid_k`` — data stripes per RAID-4 recovery group (parity page per
      ``raid_k`` data pages).
    """

    seed: int = 1
    page_error_rate: float = 0.0
    noisy_bits: int = 3
    uncorrectable_rate: float = 0.0
    transient_fraction: float = 0.5
    slow_read_rate: float = 0.0
    slow_read_extra_ns: float = 150_000.0
    failures: Tuple[HardFault, ...] = ()
    max_read_retries: int = 3
    retry_backoff_ns: float = 4_000.0
    raid_k: int = 4

    def __post_init__(self) -> None:
        for name in (
            "page_error_rate",
            "uncorrectable_rate",
            "transient_fraction",
            "slow_read_rate",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be within [0, 1], got {value}")
        if self.page_error_rate + self.uncorrectable_rate > 1.0:
            raise ConfigError("page_error_rate + uncorrectable_rate cannot exceed 1")
        check_count(self.noisy_bits, "noisy_bits")
        if self.slow_read_extra_ns < 0:
            raise ConfigError("slow_read_extra_ns cannot be negative")
        check_count(self.max_read_retries, "max_read_retries", 0)
        if self.retry_backoff_ns < 0:
            raise ConfigError("retry_backoff_ns cannot be negative")
        check_count(self.raid_k, "raid_k", 2, 6)  # RAID-4 stripe math


#: Arbitration policies understood by the serving layer (``repro.serve``).
ARBITRATION_POLICIES: Tuple[str, ...] = ("rr", "wrr", "drr")


@dataclass(frozen=True)
class ServeConfig:
    """Multi-tenant serving-layer parameters (``repro.serve``).

    Each tenant owns an NVMe submission/completion queue pair of
    ``queue_depth`` entries. The device-side scheduler keeps at most
    ``max_inflight`` commands dispatched onto the engines/channels at once,
    picking the next queue with the ``arbitration`` policy:

    * ``"rr"``  — plain round-robin over non-empty queues,
    * ``"wrr"`` — smooth weighted round-robin (dispatch *count* proportional
      to tenant weight),
    * ``"drr"`` — deficit round-robin with a per-visit quantum of
      ``quantum_pages * weight`` pages (dispatch *pages* proportional to
      weight, fair under unequal command sizes).

    ``weights`` optionally overrides the per-tenant weights positionally; an
    empty tuple keeps each :class:`~repro.serve.workload.TenantSpec` weight.

    ``command_timeout_ns`` (0 disables) bounds one service attempt: an
    attempt that overruns the deadline is aborted and re-issued, up to
    ``max_command_retries`` times; the final attempt always runs to
    completion and is flagged as timed out if it too overruns.
    """

    queue_depth: int = 64
    arbitration: str = "wrr"
    max_inflight: int = 8
    quantum_pages: int = 8
    weights: Tuple[float, ...] = ()
    command_timeout_ns: float = 0.0
    max_command_retries: int = 1

    def __post_init__(self) -> None:
        check_count(self.queue_depth, "queue_depth")
        check_count(self.max_inflight, "max_inflight")
        check_count(self.quantum_pages, "quantum_pages")
        if self.command_timeout_ns < 0:
            raise ConfigError("command_timeout_ns cannot be negative")
        check_count(self.max_command_retries, "max_command_retries", 0)
        if self.arbitration not in ARBITRATION_POLICIES:
            raise ConfigError(
                f"unknown arbitration policy {self.arbitration!r}; "
                f"known: {ARBITRATION_POLICIES}"
            )
        if any(w <= 0 for w in self.weights):
            raise ConfigError("serve weights must be positive")


@dataclass(frozen=True)
class SSDConfig:
    """A complete computational SSD (Table IV row + shared substrate)."""

    name: str
    core: CoreConfig
    num_cores: int = 8
    flash: FlashConfig = field(default_factory=FlashConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    host: HostInterfaceConfig = field(default_factory=HostInterfaceConfig)
    crossbar: bool = True

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError("SSD needs at least one compute engine")
        if self.core.bypasses_dram and not self.crossbar:
            # Channel-local compute (Figure 7 alternative): legal, used by the
            # skew study, but each core then binds to one channel.
            if self.num_cores != self.flash.channels:
                raise ConfigError(
                    "channel-local compute requires one core per channel "
                    f"(cores={self.num_cores}, channels={self.flash.channels})"
                )

    def with_cores(self, num_cores: int) -> "SSDConfig":
        """A copy with a different engine count (used by the scaling study)."""
        return replace(self, num_cores=num_cores)

    def with_pipeline_model(self, pipeline_model: str) -> "SSDConfig":
        """A copy whose cores use the given cycle-costing timing model."""
        return replace(self, core=replace(self.core, pipeline_model=pipeline_model))


# ---------------------------------------------------------------------------
# Named Table IV configurations
# ---------------------------------------------------------------------------

_L1D = CacheConfig(size_bytes=32 * KIB, ways=8, line_bytes=64, hit_latency_cycles=2)
_L2 = CacheConfig(size_bytes=256 * KIB, ways=16, line_bytes=64, hit_latency_cycles=12)
_SP64 = ScratchpadConfig(size_bytes=64 * KIB, access_latency_cycles=1, port_width_bytes=8)
# Table IV: "64KB I + 64KB O ping-pong scratchpads" — 64 KB per direction
# total, i.e. two 32 KiB halves that swap roles.
_PINGPONG = ScratchpadConfig(size_bytes=32 * KIB, access_latency_cycles=1, port_width_bytes=8)
_SB = StreamBufferConfig(num_streams=8, pages_per_stream=2, page_bytes=4096)


def baseline_core() -> CoreConfig:
    """State-of-the-art general-purpose computational SSD engine (Figure 4)."""
    return CoreConfig(
        name="Baseline",
        data_source=DataSource.DRAM,
        l1d=_L1D,
        l2=_L2,
    )


def udp_core() -> CoreConfig:
    """UDP accelerator lane: DRAM-fed 256 KiB private scratchpad."""
    return CoreConfig(
        name="UDP",
        engine=EngineKind.UDP,
        data_source=DataSource.DRAM,
        scratchpad=ScratchpadConfig(size_bytes=256 * KIB, access_latency_cycles=1),
    )


def prefetch_core() -> CoreConfig:
    """Baseline plus the best Gem5 prefetcher (DCPT) on the L1D."""
    return CoreConfig(
        name="Prefetch",
        data_source=DataSource.DRAM,
        l1d=_L1D,
        l2=_L2,
        prefetcher=PrefetcherKind.DCPT,
    )


def assasin_sp_core() -> CoreConfig:
    """ASSASIN with ping-pong scratchpads double-buffering flash data."""
    return CoreConfig(
        name="AssasinSp",
        data_source=DataSource.FLASH_STREAM,
        scratchpad=_SP64,
        pingpong=_PINGPONG,
    )


def assasin_sb_core() -> CoreConfig:
    """ASSASIN with stream buffers and the stream ISA extension."""
    return CoreConfig(
        name="AssasinSb",
        data_source=DataSource.FLASH_STREAM,
        scratchpad=_SP64,
        streambuffer=_SB,
        stream_isa=True,
    )


def assasin_sb_cache_core() -> CoreConfig:
    """AssasinSb plus a 32 KiB L1D fallback cache backed by SSD DRAM."""
    return CoreConfig(
        name="AssasinSb$",
        data_source=DataSource.FLASH_STREAM,
        scratchpad=_SP64,
        streambuffer=_SB,
        stream_isa=True,
        l1d=_L1D,
    )


def _ssd(core: CoreConfig, **kwargs) -> SSDConfig:
    return SSDConfig(name=core.name, core=core, **kwargs)


def baseline_config(**kwargs) -> SSDConfig:
    """Full SSD with the Baseline engines (Figure 4 architecture)."""
    return _ssd(baseline_core(), **kwargs)


def udp_config(**kwargs) -> SSDConfig:
    """Full SSD with UDP accelerator lanes."""
    return _ssd(udp_core(), **kwargs)


def prefetch_config(**kwargs) -> SSDConfig:
    """Full SSD with DCPT-prefetching cache engines."""
    return _ssd(prefetch_core(), **kwargs)


def assasin_sp_config(**kwargs) -> SSDConfig:
    """Full ASSASIN SSD with ping-pong scratchpad engines."""
    return _ssd(assasin_sp_core(), **kwargs)


def assasin_sb_config(**kwargs) -> SSDConfig:
    """Full ASSASIN SSD with stream-buffer engines (the paper's pick)."""
    return _ssd(assasin_sb_core(), **kwargs)


def assasin_sb_cache_config(**kwargs) -> SSDConfig:
    """Full ASSASIN SSD with stream buffers plus a fallback L1D."""
    return _ssd(assasin_sb_cache_core(), **kwargs)


CONFIG_FACTORIES = {
    "Baseline": baseline_config,
    "UDP": udp_config,
    "Prefetch": prefetch_config,
    "AssasinSp": assasin_sp_config,
    "AssasinSb": assasin_sb_config,
    "AssasinSb$": assasin_sb_cache_config,
}

CONFIG_NAMES: Tuple[str, ...] = tuple(CONFIG_FACTORIES)


def named_config(name: str, **kwargs) -> SSDConfig:
    """Look up a Table IV configuration by its paper name."""
    try:
        factory = CONFIG_FACTORIES[name]
    except KeyError:
        raise ConfigError(f"unknown configuration {name!r}; known: {CONFIG_NAMES}") from None
    return factory(**kwargs)


def all_configs(**kwargs) -> Dict[str, SSDConfig]:
    """All six Table IV configurations, keyed by name."""
    return {name: factory(**kwargs) for name, factory in CONFIG_FACTORIES.items()}
