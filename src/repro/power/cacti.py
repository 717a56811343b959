"""Analytical SRAM timing/power/area model (Cacti stand-in, 14 nm-class).

The paper evaluates its memory structures with Cacti and a SAED 14 nm
library (Section VI-F/G). We reproduce the *trends* those tools report with
a logarithmic decoder + wire-delay model calibrated to the paper's anchor
points:

* a stream buffer (small prefetched FIFO, 64 B interface) reaches ~0.5 ns,
* a 64 KiB scratchpad with an 8 B port takes > 1 ns (2 cycles at 1 GHz),
* wider (64 B SIMD) scratchpad ports are slower still,
* an SRAM of L1-cache size is on the same order of magnitude in area and
  power as a small in-order core's logic (Table V observation).

Access time grows with log2(capacity) (decoder depth + longer bitlines and
word lines) and with log2(port width) (wider output muxes); energy and area
grow roughly linearly with capacity with a fixed overhead per structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.units import KIB

# Calibration constants (14 nm-class, single read/write port).
_T_FIXED_NS = 0.25  # sense amp + drivers + latch overhead
_T_PER_DOUBLING_NS = 0.12  # decoder level + bitline growth per 2x capacity
_T_WIDTH_NS = 0.15  # output mux growth per log2(width/8 + 1)
_REF_SIZE = 1 * KIB

_AREA_PER_KIB_MM2 = 0.0018  # dense 14nm SRAM macro
_AREA_FIXED_MM2 = 0.0006  # periphery per structure
_AREA_PER_WAY_MM2 = 0.00025  # tag + comparator overhead per way (caches)

_LEAK_PER_KIB_MW = 0.04  # leakage scales with capacity
_DYN_BASE_PJ = 2.0  # energy per access at 1 KiB
_DYN_PER_DOUBLING_PJ = 0.5  # longer lines/decoders per 2x capacity
_DYN_PER_WAY_PJ = 0.35  # parallel way read (set-assoc caches)


@dataclass(frozen=True)
class SRAMSpec:
    """One SRAM structure: capacity, port width, and associativity.

    ``ways > 1`` models a set-associative cache (parallel tag+data way
    lookup); scratchpads and FIFOs use ``ways=1``.
    """

    size_bytes: int
    port_width_bytes: int = 8
    ways: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.port_width_bytes <= 0 or self.ways <= 0:
            raise ConfigError("SRAM spec fields must be positive")


def _log2(value: float) -> float:
    from math import log2

    return log2(value)


def sram_access_time_ns(spec: SRAMSpec) -> float:
    """Random-access time of the structure in nanoseconds."""
    size_term = _T_PER_DOUBLING_NS * _log2(max(spec.size_bytes, 64) / _REF_SIZE)
    width_term = _T_WIDTH_NS * _log2(spec.port_width_bytes / 8 + 1)
    way_term = 0.03 * _log2(spec.ways) if spec.ways > 1 else 0.0
    return max(0.2, _T_FIXED_NS + size_term + width_term + way_term)


def sram_area_mm2(spec: SRAMSpec) -> float:
    """Silicon area of the structure in mm^2."""
    kib = spec.size_bytes / KIB
    return _AREA_FIXED_MM2 + kib * _AREA_PER_KIB_MM2 + (spec.ways - 1) * _AREA_PER_WAY_MM2


def sram_energy_per_access_pj(spec: SRAMSpec) -> float:
    """Dynamic energy of one access in picojoules."""
    size_term = _DYN_PER_DOUBLING_PJ * _log2(max(spec.size_bytes, 64) / _REF_SIZE)
    way_term = (spec.ways - 1) * _DYN_PER_WAY_PJ
    width_term = 0.3 * _log2(spec.port_width_bytes / 8 + 1)
    return max(0.5, _DYN_BASE_PJ + size_term + way_term + width_term)


def sram_power_mw(spec: SRAMSpec, utilisation: float = 1.0, clock_ghz: float = 1.0) -> float:
    """Power under load: leakage (capacity) + dynamic (access rate).

    ``utilisation`` is the fraction of cycles the structure is accessed;
    1 pJ per access at 1 GHz full utilisation is 1 mW.
    """
    if not 0.0 <= utilisation <= 1.0:
        raise ConfigError("utilisation must be within [0, 1]")
    kib = spec.size_bytes / KIB
    leakage = kib * _LEAK_PER_KIB_MW
    dynamic = sram_energy_per_access_pj(spec) * utilisation * clock_ghz
    return leakage + dynamic


# Convenience specs used across the evaluation ------------------------------

def l1_cache_spec() -> SRAMSpec:
    return SRAMSpec(size_bytes=32 * KIB, port_width_bytes=8, ways=8, name="L1D 32KB 8w")


def scratchpad_spec(size_bytes: int, width: int = 8) -> SRAMSpec:
    return SRAMSpec(size_bytes=size_bytes, port_width_bytes=width, name=f"SP {size_bytes // KIB}KB")


def streambuffer_head_fifo_spec(width: int = 64) -> SRAMSpec:
    """The core-facing prefetched FIFO: 2 x 128 B of head storage.

    The backing S x P page store is accessed at coarse (128 B-aligned)
    granularity off the critical path; only this small FIFO sits in MEM.
    """
    return SRAMSpec(size_bytes=256, port_width_bytes=width, name="SB head FIFO")


def streambuffer_backing_spec(capacity_bytes: int) -> SRAMSpec:
    return SRAMSpec(size_bytes=capacity_bytes, port_width_bytes=128, name="SB backing")
