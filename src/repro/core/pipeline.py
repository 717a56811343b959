"""In-order 5-stage pipeline timing model (ibex-class RV32IM core).

Every instruction costs one base cycle; extras come from the pluggable
:mod:`repro.core.coster` timing model selected by
``CoreConfig.pipeline_model``:

* ``"static"`` — the historical fixed-latency model: multiplier/divider
  occupancy for M-extension ops, a flat taken-branch redirect penalty
  (branch resolved in EX), data-side stalls from the memory hierarchy for
  loads/stores, and stream-head FIFO latency for stream instructions
  (0 extra when the prefetched head FIFO has the data, the common case).
* ``"predictive"`` — realistic microarchitectural timing: BTB + tournament
  branch prediction, load-use hazard bubbles with forwarding, and
  operand-dependent multi-cycle mul/div (see ``coster.PredictiveCoster``).

The fast engine (:mod:`repro.isa.fastpath`) does the charging against a
:class:`PipelineModel`; this module holds the knobs and the per-run state.
The model is deliberately scalar and in-order: that is the compute-engine
class every configuration in Table IV uses (8x in-order RISC-V @ 1 GHz).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

from repro.core.coster import BRANCH_PREDICTORS, make_coster
from repro.errors import ConfigError
from repro.isa.instructions import InstrKind
from repro.mem.hierarchy import MemoryHierarchy

#: Table sizes and the divider's radix: zero would divide by zero.
_POSITIVE_KNOBS = (
    "btb_entries",
    "bimodal_entries",
    "gshare_entries",
    "chooser_entries",
    "div_bits_per_cycle",
)


@dataclass(frozen=True)
class PipelineParams:
    """Latency knobs of the in-order pipeline.

    The first block parameterises the ``"static"`` timing model (and the
    predictive model's fallbacks); the second block only takes effect under
    ``pipeline_model="predictive"``, one knob per feature so ablations
    compose (e.g. predictor on / hazards off).
    """

    mul_extra_cycles: int = 2  # 3-cycle multiplier
    div_extra_cycles: int = 11  # 12-cycle iterative divider
    taken_branch_penalty: int = 1  # redirect bubble
    jump_penalty: int = 1
    stream_head_extra: int = 0  # prefetched head FIFO: no stall when ready

    # -- predictive-model knobs ----------------------------------------------
    branch_predictor: str = "tournament"  # "tournament" | "none" (flat penalty)
    mispredict_penalty: int = 2  # redirect on a wrong fetch direction/target
    btb_entries: int = 64
    bimodal_entries: int = 256
    gshare_entries: int = 256
    chooser_entries: int = 256
    history_bits: int = 8
    hazard_detection: bool = True
    load_use_bubble: int = 1  # dependent op right after a load (forwarded)
    mul_cycles: int = 1  # 2-cycle pipelined Wallace-tree multiplier
    div_base_cycles: int = 2  # divider pre/post-processing
    div_bits_per_cycle: int = 4  # radix-16 iterative quotient retirement
    div_early_exit: bool = True  # operand-dependent early termination

    def __post_init__(self) -> None:
        # Integer cycles keep the fast engine's batched sums exact, and a
        # negative latency would silently run kernels faster.
        for f in fields(self):
            if f.type not in ("int", int):
                continue
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"pipeline parameter {f.name} must be an integer, got {value!r}"
                )
            if f.name in _POSITIVE_KNOBS and value <= 0:
                raise ConfigError(f"pipeline parameter {f.name} must be positive")
            if value < 0:
                raise ConfigError(f"pipeline parameter {f.name} cannot be negative")
        if self.branch_predictor not in BRANCH_PREDICTORS:
            raise ConfigError(
                f"unknown branch predictor {self.branch_predictor!r}; "
                f"known: {BRANCH_PREDICTORS}"
            )


@dataclass
class PipelineStats:
    """Where cycles went, by instruction kind."""

    cycles_by_kind: Dict[InstrKind, float] = field(default_factory=dict)
    branch_penalty_cycles: float = 0.0
    muldiv_extra_cycles: float = 0.0
    hazard_stall_cycles: float = 0.0
    branch_mispredicts: int = 0


class PipelineModel:
    """Per-run timing state the fast engine charges cycles against.

    Holds the memory hierarchy, the coster of the selected timing model and
    the stats. The coster carries any per-run microarchitectural state
    (predictor tables, hazard latch) and lives exactly as long as the stats,
    so retimed chunked runs keep warm predictor state.
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        params: PipelineParams = PipelineParams(),
        model: str = "static",
    ) -> None:
        self.hierarchy = hierarchy
        self.params = params
        self.model = model
        self.coster = make_coster(model, params)
        self.stats = PipelineStats()
