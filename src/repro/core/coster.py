"""The predictive timing model's stateful cycle coster.

Under ``CoreConfig.pipeline_model="static"`` every cost is a compile-time
constant of :mod:`repro.core.pipeline`, which the fast engine folds into
its decoded program (and batches across whole superblocks); there is no
run-time state, so there is no coster. Under ``"predictive"`` every
retired instruction is priced by one :class:`PredictiveCoster`, realistic
in-order RV32IM timing: a BTB + tournament (bimodal/gshare with chooser)
branch predictor replaces the flat taken-branch penalty, a load-use
hazard latch inserts a 1-cycle bubble only when a dependent op
immediately follows a load (full forwarding otherwise), the multiplier is
a pipelined Wallace tree, and the divider is a radix-16 iterative unit
with operand-dependent early exit. Costs depend on run-time state, so the
fast engine and the per-step timing oracle of the test suite call the
*same* coster object once per retired instruction in program order —
bit-identity holds by construction.

The coster is per-run state (it lives on the ``PipelineModel``); decoded
programs stay stateless and shareable. Costers are never consulted for
aborted steps (stream stalls, EOS, traps): nothing retires those, so
predictor/hazard state cannot diverge from the oracle's.

All returned latencies are small integers; summed with the base cycle
they stay exactly representable, so batched float accumulation remains
bit-identical regardless of grouping (the same exactness argument the
fast path has always relied on).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import PIPELINE_MODELS
from repro.core.pipeline import (
    BIMODAL_ENTRIES,
    BTB_ENTRIES,
    CHOOSER_ENTRIES,
    DIV_BASE_CYCLES,
    DIV_BITS_PER_CYCLE,
    GSHARE_ENTRIES,
    HISTORY_BITS,
    JUMP_PENALTY,
    LOAD_USE_BUBBLE,
    MISPREDICT_PENALTY,
    MUL_CYCLES,
)
from repro.errors import ConfigError
from repro.isa.instructions import instr_reads  # noqa: F401  (re-export)

_SIGN_BIT = 0x80000000
_WRAP = 0x100000000
_HISTORY_MASK = (1 << HISTORY_BITS) - 1


def div_latency(a: int, b: int, signed: bool) -> int:
    """Occupancy of the radix-16 iterative divider beyond the base cycle.

    ``a``/``b`` are the architectural 32-bit operand values. The unit
    retires ``DIV_BITS_PER_CYCLE`` quotient bits per cycle and exits as
    soon as the remaining quotient bits are known: division by zero and
    ``|a| < |b|`` (quotient 0) resolve in the fixed ``DIV_BASE_CYCLES``
    pre/post-processing alone.
    """
    if signed:
        if a & _SIGN_BIT:
            a = _WRAP - a
        if b & _SIGN_BIT:
            b = _WRAP - b
    if b == 0 or a < b:
        return DIV_BASE_CYCLES
    qbits = a.bit_length() - b.bit_length() + 1
    return DIV_BASE_CYCLES + -(-qbits // DIV_BITS_PER_CYCLE)


class PredictiveCoster:
    """Realistic in-order RV32IM timing: predictor + hazards + iterative units.

    One method per call-site shape; each returns integer extra cycles (and
    bucket attributions) beyond the 1-cycle base, mutating predictor and
    hazard-latch state as a side effect. Callers must invoke exactly one
    method per retired instruction, in program order.
    """

    def __init__(self) -> None:
        # Load-use latch: destination of the immediately-preceding load.
        self._latch = 0
        # Tournament predictor state: 2-bit counters initialised weakly
        # not-taken / weakly-bimodal, empty BTB, cleared global history.
        self._bimodal = [1] * BIMODAL_ENTRIES
        self._gshare = [1] * GSHARE_ENTRIES
        self._chooser = [1] * CHOOSER_ENTRIES
        self._btb = [(-1, -1)] * BTB_ENTRIES
        self._history = 0

    # -- hazard latch ---------------------------------------------------------

    def _hazard(self, reads: Tuple[int, ...]) -> int:
        latch = self._latch
        if latch and latch in reads:
            return LOAD_USE_BUBBLE
        return 0

    # -- per-shape costing ----------------------------------------------------

    def simple(self, reads: Tuple[int, ...]) -> int:
        """ALU / stream-store / stream-ctrl / system op: hazard bubble only."""
        hz = self._hazard(reads)
        self._latch = 0
        return hz

    def mul(self, reads: Tuple[int, ...]) -> Tuple[int, int]:
        """Wallace-tree multiplier: ``(occupancy extra, hazard bubble)``."""
        hz = self._hazard(reads)
        self._latch = 0
        return MUL_CYCLES, hz

    def div(self, reads: Tuple[int, ...], a: int, b: int, signed: bool) -> Tuple[int, int]:
        """Iterative divider: operand-dependent ``(extra, hazard bubble)``."""
        hz = self._hazard(reads)
        self._latch = 0
        return div_latency(a, b, signed), hz

    def mem(self, reads: Tuple[int, ...], load_rd: int) -> int:
        """Load/store: hazard bubble; a load latches its destination."""
        hz = self._hazard(reads)
        self._latch = load_rd
        return hz

    def stream_load(self, reads: Tuple[int, ...], rd: int) -> int:
        """sload/sskip: the stream-head FIFO read latches like a load."""
        hz = self._hazard(reads)
        self._latch = rd
        return hz

    def branch(self, pc: int, reads: Tuple[int, ...], taken: bool,
               target: int) -> Tuple[int, int, bool]:
        """Conditional branch: ``(redirect penalty, hazard, mispredicted)``.

        A branch redirects for free only when the tournament predictor
        says taken *and* the BTB supplies the correct target at fetch;
        every other disagreement with the actual outcome pays the
        ``MISPREDICT_PENALTY`` redirect.
        """
        hz = self._hazard(reads)
        self._latch = 0
        bi = pc % BIMODAL_ENTRIES
        gi = (pc ^ self._history) % GSHARE_ENTRIES
        ci = pc % CHOOSER_ENTRIES
        ti = pc % BTB_ENTRIES
        bim_taken = self._bimodal[bi] >= 2
        gsh_taken = self._gshare[gi] >= 2
        pred_taken = gsh_taken if self._chooser[ci] >= 2 else bim_taken
        btb_hit = self._btb[ti] == (pc, target)
        if taken:
            mispredicted = not (pred_taken and btb_hit)
        else:
            mispredicted = pred_taken
        # Train: direction counters toward the outcome, the chooser toward
        # whichever component was right when they disagreed, history shifts
        # in the outcome, and taken branches install their BTB entry.
        if taken:
            if self._bimodal[bi] < 3:
                self._bimodal[bi] += 1
            if self._gshare[gi] < 3:
                self._gshare[gi] += 1
            self._btb[ti] = (pc, target)
        else:
            if self._bimodal[bi] > 0:
                self._bimodal[bi] -= 1
            if self._gshare[gi] > 0:
                self._gshare[gi] -= 1
        if bim_taken != gsh_taken:
            if gsh_taken == taken:
                if self._chooser[ci] < 3:
                    self._chooser[ci] += 1
            elif self._chooser[ci] > 0:
                self._chooser[ci] -= 1
        self._history = ((self._history << 1) | int(taken)) & _HISTORY_MASK
        return (MISPREDICT_PENALTY if mispredicted else 0), hz, mispredicted

    def jump(self, pc: int, reads: Tuple[int, ...], target: int) -> Tuple[int, int]:
        """jal/jalr: ``(redirect penalty, hazard)``; BTB hits redirect free."""
        hz = self._hazard(reads)
        self._latch = 0
        ti = pc % BTB_ENTRIES
        hit = self._btb[ti] == (pc, target)
        self._btb[ti] = (pc, target)
        return (0 if hit else JUMP_PENALTY), hz


def make_coster(model: str) -> Optional[PredictiveCoster]:
    """The coster of a ``CoreConfig.pipeline_model`` value: ``None`` for
    the static model, whose costs are all compile-time constants."""
    if model == "static":
        return None
    if model == "predictive":
        return PredictiveCoster()
    raise ConfigError(f"unknown pipeline model {model!r}; known: {PIPELINE_MODELS}")
