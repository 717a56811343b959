"""In-order 5-stage pipeline timing model (ibex-class RV32IM core).

Every instruction costs one base cycle; extras come from the timing model
selected by ``CoreConfig.pipeline_model``:

* ``"static"`` — the historical fixed-latency model: multiplier/divider
  occupancy for M-extension ops, a flat taken-branch redirect penalty
  (branch resolved in EX), and data-side stalls from the memory hierarchy
  for loads/stores. Stream instructions read a prefetched head FIFO and
  pay nothing beyond the base cycle.
* ``"predictive"`` — realistic microarchitectural timing: BTB + tournament
  branch prediction, load-use hazard bubbles with forwarding, and
  operand-dependent multi-cycle mul/div (see ``coster.PredictiveCoster``).

The latencies below are properties of the design, not run-time options:
one fixed core is what every configuration in Table IV uses (8x in-order
RISC-V @ 1 GHz). They are integers, which keeps the fast engine's batched
cycle sums exact. The fast engine (:mod:`repro.isa.fastpath`) does the
charging against a :class:`PipelineModel`, which holds the per-run state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.instructions import InstrKind
from repro.mem.hierarchy import MemoryHierarchy

# -- static model -------------------------------------------------------------

#: Occupancy beyond the base cycle of the 3-cycle multiplier.
MUL_EXTRA_CYCLES = 2
#: Occupancy beyond the base cycle of the 12-cycle iterative divider.
DIV_EXTRA_CYCLES = 11
#: Redirect bubble of a taken branch.
TAKEN_BRANCH_PENALTY = 1
#: Redirect bubble of a jump (the predictive model's BTB miss, too).
JUMP_PENALTY = 1

# -- predictive model ---------------------------------------------------------

#: Redirect on a wrong fetch direction or target.
MISPREDICT_PENALTY = 2
#: Entries of the direct-mapped BTB and of the tournament predictor's
#: bimodal, gshare and chooser tables of 2-bit counters.
BTB_ENTRIES = 64
BIMODAL_ENTRIES = 256
GSHARE_ENTRIES = 256
CHOOSER_ENTRIES = 256
#: Global branch-history bits folded into the gshare index.
HISTORY_BITS = 8
#: Bubble of an op that reads the destination of the load just before it.
LOAD_USE_BUBBLE = 1
#: Occupancy beyond the base cycle of the 2-cycle pipelined Wallace tree.
MUL_CYCLES = 1
#: The divider's pre/post-processing cycles.
DIV_BASE_CYCLES = 2
#: Quotient bits the radix-16 iterative divider retires per cycle.
DIV_BITS_PER_CYCLE = 4


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

    Holds the memory hierarchy, the stats and, under the predictive model,
    the coster. The coster carries the per-run microarchitectural state
    (predictor tables, hazard latch) and lives exactly as long as the
    stats, so retimed chunked runs keep warm predictor state.
    """

    def __init__(self, hierarchy: MemoryHierarchy, model: str = "static") -> None:
        # The coster reads this module's constants, so it imports this
        # module: it is imported here, not at the top.
        from repro.core.coster import make_coster

        self.hierarchy = hierarchy
        self.model = model
        self.coster = make_coster(model)
        self.stats = PipelineStats()
