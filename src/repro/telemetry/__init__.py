"""Unified telemetry: event tracing, counter registry, ISA profiler.

The measurement substrate for every layer of the simulated stack (the
paper's §VI lives on cycle decomposition and utilisation breakdowns, and a
serving system needs the same numbers continuously, not per-experiment):

* :mod:`repro.telemetry.tracer` — nestable spans and instant events on
  named component tracks against simulated nanoseconds, exported as
  Chrome/Perfetto ``trace_event`` JSON (``python -m repro trace``).
* :mod:`repro.telemetry.counters` — the :class:`CounterRegistry` of
  counters/gauges/histograms the serve metrics, firmware recovery path,
  and flash channels publish into.
* :mod:`repro.telemetry.profiler` — per-PC / per-basic-block cycle
  attribution (compute vs mem-stall vs stream-stall) for kernels on the
  stream cores (``python -m repro profile``).

A :class:`Telemetry` bundle (tracer + registry) threads through
:class:`~repro.ssd.device.ComputationalSSD` into every component. The
default bundle carries the :data:`~repro.telemetry.tracer.NULL_TRACER`, so
instrumentation on hot paths is an allocation-free no-op and simulation
results are bit-identical with telemetry on or off.
"""

from __future__ import annotations

from repro.telemetry.counters import (
    Counter,
    CounterGroup,
    CounterRegistry,
    CounterView,
    Gauge,
    Histogram,
)
from repro.telemetry.profiler import (
    IsaProfiler,
    KernelProfile,
    basic_block_ranges,
    profile_kernel,
)
from repro.telemetry.schema import span_tracks, validate_chrome_trace
from repro.telemetry.tracer import NULL_TRACER, NullTracer, TraceError, Tracer, make_tracer

__all__ = [
    "Counter",
    "CounterGroup",
    "CounterRegistry",
    "CounterView",
    "Gauge",
    "Histogram",
    "IsaProfiler",
    "KernelProfile",
    "NullTracer",
    "NULL_TRACER",
    "Telemetry",
    "TraceError",
    "Tracer",
    "basic_block_ranges",
    "make_tracer",
    "profile_kernel",
    "span_tracks",
    "validate_chrome_trace",
]


class Telemetry:
    """One device's telemetry bundle: a tracer plus a counter registry.

    Every :class:`~repro.ssd.device.ComputationalSSD` owns one (a fresh
    registry per device, so concurrent devices never share counters); the
    tracer defaults to the shared :data:`NULL_TRACER`.
    """

    __slots__ = ("tracer", "counters")

    def __init__(self, tracer: NullTracer = None, counters: CounterRegistry = None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.counters = counters if counters is not None else CounterRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @classmethod
    def tracing(cls, process_name: str = "repro") -> "Telemetry":
        """A bundle with a recording tracer attached."""
        return cls(tracer=Tracer(process_name))
