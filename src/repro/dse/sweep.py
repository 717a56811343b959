"""Design-space exploration sweep driver (ROADMAP item 4).

Enumerates a grid of device design points — engine count × data-path
geometry (stream-buffer S/P shapes or ping-pong scratchpads) × pipeline
timing model × arbitration policy — and prices every point on three axes:

* **perf**: geometric-mean device-level offload throughput (GB/s) over a
  kernel suite drawn from the fig13/fig14 workloads, run with the fast
  execution engine at the point's Figure 20 clock (``adjusted_config`` +
  ``ClockModel``);
* **power**: total device power from the ``repro.power`` component model;
* **area**: total silicon area from the same model.

Every sampled kernel run is seeded, so a sweep is deterministic end to
end: two runs of the same :class:`SweepSpec` produce byte-identical
reports (CI double-runs and compares them). Optionally, a short serving
probe per point records a tail-latency (p99) figure so arbitration
policies differentiate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.config import (
    ARBITRATION_POLICIES,
    PIPELINE_MODELS,
    CoreConfig,
    DataSource,
    SSDConfig,
    ScratchpadConfig,
    StreamBufferConfig,
)
from repro.core.timing import ClockModel
from repro.errors import ConfigError
from repro.experiments.common import adjusted_config
from repro.kernels import get_kernel
from repro.power.models import config_cost
from repro.ssd.device import ComputationalSSD

KIB = 1024

#: Default kernel suite: the fig13 streaming kernels that exercise distinct
#: instruction mixes (stat: mul/branch; raid4: xor-dense; psf: the fig14
#: branch-heavy predicate filter).
DEFAULT_KERNELS: Tuple[str, ...] = ("stat", "raid4", "psf")

#: The full fig13/fig14 suite for ``python -m repro dse --full-suite``.
FULL_KERNELS: Tuple[str, ...] = ("stat", "raid4", "raid6", "aes", "psf")

_SB_GEOMETRY = re.compile(r"sb-S(\d+)P(\d+)\Z")

#: Data-path geometry axis. ``sb-S{S}P{P}`` is an AssasinSb-class core with
#: an S-stream × P-page stream buffer; ``sp`` is the AssasinSp-class
#: ping-pong scratchpad core.
GEOMETRY_NAMES: Tuple[str, ...] = ("sb-S8P2", "sb-S8P4", "sb-S4P2", "sp")


@dataclass(frozen=True)
class SweepSpec:
    """One design-space sweep: axes plus measurement parameters."""

    cores: Tuple[int, ...] = (4, 8)
    geometries: Tuple[str, ...] = ("sb-S8P2", "sb-S8P4", "sp")
    pipeline_models: Tuple[str, ...] = PIPELINE_MODELS
    arbitrations: Tuple[str, ...] = ("wrr",)
    kernels: Tuple[str, ...] = DEFAULT_KERNELS
    data_bytes: int = 8 << 20
    sample_bytes: int = 16 * KIB
    seed: int = 7
    #: Serving-probe duration per point in ns; 0 disables the probe (it is
    #: forced on when more than one arbitration policy is swept, otherwise
    #: the policy axis would not differentiate points).
    serve_probe_ns: float = 0.0

    def __post_init__(self) -> None:
        if not (self.cores and self.geometries and self.pipeline_models
                and self.arbitrations and self.kernels):
            raise ConfigError("every sweep axis needs at least one value")
        for geometry in self.geometries:
            point_core(geometry, "static")  # validates the geometry name
        for model in self.pipeline_models:
            if model not in PIPELINE_MODELS:
                raise ConfigError(
                    f"unknown pipeline model {model!r}; known: {PIPELINE_MODELS}"
                )
        for policy in self.arbitrations:
            if policy not in ARBITRATION_POLICIES:
                raise ConfigError(
                    f"unknown arbitration {policy!r}; known: {ARBITRATION_POLICIES}"
                )
        if self.data_bytes <= 0 or self.sample_bytes <= 0:
            raise ConfigError("data_bytes and sample_bytes must be positive")

    @property
    def num_points(self) -> int:
        return (len(self.cores) * len(self.geometries)
                * len(self.pipeline_models) * len(self.arbitrations))


@dataclass
class PointResult:
    """One priced design point."""

    label: str
    num_cores: int
    geometry: str
    pipeline_model: str
    arbitration: str
    period_ns: float
    frequency_ghz: float
    throughput_gbps: Dict[str, float] = field(default_factory=dict)
    perf_gbps: float = 0.0
    power_mw: float = 0.0
    area_mm2: float = 0.0
    instructions: int = 0
    sample_cycles: float = 0.0
    branch_mispredicts: int = 0
    hazard_stall_cycles: float = 0.0
    serve_p99_us: Optional[float] = None
    pareto: bool = False


@dataclass
class SweepResult:
    """All points of one sweep plus the Pareto labels."""

    spec: SweepSpec
    points: List[PointResult] = field(default_factory=list)

    @property
    def pareto_points(self) -> List[PointResult]:
        return [p for p in self.points if p.pareto]


def point_core(geometry: str, pipeline_model: str) -> CoreConfig:
    """The core config of one geometry axis value (mirrors Table IV shapes)."""
    match = _SB_GEOMETRY.match(geometry)
    if match:
        streams, pages = int(match.group(1)), int(match.group(2))
        return CoreConfig(
            name=geometry,
            data_source=DataSource.FLASH_STREAM,
            scratchpad=ScratchpadConfig(size_bytes=64 * KIB),
            streambuffer=StreamBufferConfig(
                num_streams=streams, pages_per_stream=pages, page_bytes=4096
            ),
            stream_isa=True,
            pipeline_model=pipeline_model,
        )
    if geometry == "sp":
        return CoreConfig(
            name=geometry,
            data_source=DataSource.FLASH_STREAM,
            scratchpad=ScratchpadConfig(size_bytes=64 * KIB),
            pingpong=ScratchpadConfig(size_bytes=32 * KIB),
            pipeline_model=pipeline_model,
        )
    raise ConfigError(
        f"unknown geometry {geometry!r}; expected 'sp' or 'sb-S<n>P<n>'"
    )


def point_config(
    geometry: str, num_cores: int, pipeline_model: str, label: str
) -> SSDConfig:
    """The full (unadjusted) device config of one design point."""
    core = replace(point_core(geometry, pipeline_model), name=label)
    return SSDConfig(name=label, core=core, num_cores=num_cores)


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def evaluate_point(
    spec: SweepSpec,
    num_cores: int,
    geometry: str,
    pipeline_model: str,
    arbitration: str,
    clock: Optional[ClockModel] = None,
) -> PointResult:
    """Price one design point on perf, power, area (and optionally QoS)."""
    label = f"c{num_cores}-{geometry}-{pipeline_model}-{arbitration}"
    raw = point_config(geometry, num_cores, pipeline_model, label)
    clock = clock or ClockModel()
    clock_result = clock.result(raw.core)
    config = adjusted_config(raw)
    cost = config_cost(config)
    point = PointResult(
        label=label,
        num_cores=num_cores,
        geometry=geometry,
        pipeline_model=pipeline_model,
        arbitration=arbitration,
        period_ns=clock_result.period_ns,
        frequency_ghz=config.core.frequency_ghz,
        power_mw=cost.total_power_mw,
        area_mm2=cost.total_area_mm2,
    )
    for kernel_name in spec.kernels:
        kernel = get_kernel(kernel_name)
        device = ComputationalSSD(config)
        inputs = kernel.make_inputs(spec.sample_bytes, seed=spec.seed)
        sample = device.engine.run(kernel, inputs)
        result = device.offload(kernel, spec.data_bytes, sample=sample)
        point.throughput_gbps[kernel_name] = result.throughput_gbps
        point.instructions += sample.instructions
        point.sample_cycles += sample.cycles
        point.branch_mispredicts += sample.pipeline.branch_mispredicts
        point.hazard_stall_cycles += sample.pipeline.hazard_stall_cycles
    point.perf_gbps = _geomean(list(point.throughput_gbps.values()))
    probe_ns = spec.serve_probe_ns
    if probe_ns <= 0 and len(spec.arbitrations) > 1:
        probe_ns = 150_000.0
    if probe_ns > 0:
        from repro.serve import ServeConfig, default_tenants, simulate_serve

        report = simulate_serve(
            config,
            default_tenants(),
            ServeConfig(arbitration=arbitration),
            duration_ns=probe_ns,
            seed=spec.seed,
        )
        point.serve_p99_us = max(
            (tm.p99_latency_ns for tm in report.tenants.values()), default=0.0
        ) / 1000.0
    return point


def run_sweep(spec: SweepSpec = SweepSpec()) -> SweepResult:
    """Evaluate every point of the grid and mark the Pareto frontier."""
    from repro.dse.pareto import mark_pareto

    clock = ClockModel()
    result = SweepResult(spec=spec)
    for num_cores in spec.cores:
        for geometry in spec.geometries:
            for pipeline_model in spec.pipeline_models:
                for arbitration in spec.arbitrations:
                    result.points.append(
                        evaluate_point(
                            spec, num_cores, geometry, pipeline_model,
                            arbitration, clock=clock,
                        )
                    )
    mark_pareto(result.points)
    return result
