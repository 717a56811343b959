"""Cycle-approximate core timing: pipeline model, kernel runner, UDP lane.

This package plays the role of Gem5 in the paper's hybrid methodology
(Figure 11): it executes kernels instruction by instruction, charges cycles
through the per-config memory hierarchy, and emits the timed page-level I/O
trace that the flash simulator retimes. ``CoreConfig.pipeline_model``
selects the timing: the ``"static"`` model keeps the historical fixed
latencies, the constants of :mod:`repro.core.pipeline`; ``"predictive"``
adds branch prediction, hazard bubbles and operand-dependent mul/div
timing through the stateful coster of :mod:`repro.core.coster`.
"""

from repro.core.coster import (
    PredictiveCoster,
    div_latency,
    instr_reads,
    make_coster,
)
from repro.core.pipeline import PipelineModel, PipelineStats
from repro.core.core import CoreModel, CoreRunResult, PageTouch
from repro.core.udp import UDPLaneModel, UDP_ISA_FACTORS
from repro.core.timing import ClockModel, clock_period_ns, cycles_for_access

__all__ = [
    "PipelineModel",
    "PipelineStats",
    "PredictiveCoster",
    "make_coster",
    "div_latency",
    "instr_reads",
    "CoreModel",
    "CoreRunResult",
    "PageTouch",
    "UDPLaneModel",
    "UDP_ISA_FACTORS",
    "ClockModel",
    "clock_period_ns",
    "cycles_for_access",
]
