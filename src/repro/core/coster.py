"""Pluggable cycle-costing models: the ``CycleCoster`` protocol.

Every cycle charged to an executed instruction — by the fast engine's
static superblock batching or by its dynamic-op closures (and, in the test
suite, by the per-step timing oracle) — is priced by exactly one coster
object selected through ``CoreConfig.pipeline_model``:

* ``"static"`` (:class:`StaticCoster`) — the historical fixed-latency
  model: per-kind integer extras, a flat taken-branch redirect penalty,
  constant multiplier/divider occupancy. Costs are compile-time constants,
  which is what lets the fast engine batch whole superblocks into a single
  clock update.
* ``"predictive"`` (:class:`PredictiveCoster`) — realistic in-order RV32IM
  timing: a BTB + tournament (bimodal/gshare with chooser) branch
  predictor replaces the flat taken-branch penalty, a load-use hazard
  latch inserts a 1-cycle bubble only when a dependent op immediately
  follows a load (full forwarding otherwise), the multiplier is a
  pipelined Wallace tree, and the divider is a radix-16 iterative unit
  with operand-dependent early exit. Costs depend on run-time state, so
  the fast engine and the oracle call the *same* coster object once per
  retired instruction in program order — bit-identity holds by
  construction.

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

from typing import Tuple

from repro.config import PIPELINE_MODELS
from repro.errors import ConfigError
from repro.isa.instructions import instr_reads  # noqa: F401  (re-export)

#: Branch-direction predictors of the predictive model. ``"none"`` keeps
#: the static flat taken-branch penalty (hazards and mul/div timing still
#: apply), so predictor/hazard/latency ablations compose independently.
BRANCH_PREDICTORS: Tuple[str, ...] = ("tournament", "none")

_SIGN_BIT = 0x80000000
_WRAP = 0x100000000


def div_latency(a: int, b: int, signed: bool, params) -> int:
    """Occupancy of the radix-16 iterative divider beyond the base cycle.

    ``a``/``b`` are the architectural 32-bit operand values. The unit
    retires ``div_bits_per_cycle`` quotient bits per cycle and exits as
    soon as the remaining quotient bits are known: division by zero and
    ``|a| < |b|`` (quotient 0) resolve in the fixed ``div_base_cycles``
    pre/post-processing alone. With ``div_early_exit`` off the divider
    always runs the full ``div_extra_cycles`` (the static worst case).
    """
    if not params.div_early_exit:
        return params.div_extra_cycles
    if signed:
        if a & _SIGN_BIT:
            a = _WRAP - a
        if b & _SIGN_BIT:
            b = _WRAP - b
    if b == 0 or a < b:
        return params.div_base_cycles
    qbits = a.bit_length() - b.bit_length() + 1
    return params.div_base_cycles + -(-qbits // params.div_bits_per_cycle)


class StaticCoster:
    """Fixed per-kind latencies (the historical timing model).

    Carries the parameter values the static costing reads; the arithmetic
    itself lives in the fast engine's compile-time cost tables
    (``FastEngine._cost``, folded into the stats by ``FastEngine._sync``),
    which reproduce the golden fingerprints' cycles exactly.
    """

    is_static = True

    def __init__(self, params) -> None:
        self.params = params


class PredictiveCoster:
    """Realistic in-order RV32IM timing: predictor + hazards + iterative units.

    One method per call-site shape; each returns integer extra cycles (and
    bucket attributions) beyond the 1-cycle base, mutating predictor and
    hazard-latch state as a side effect. Callers must invoke exactly one
    method per retired instruction, in program order.
    """

    is_static = False

    def __init__(self, params) -> None:
        self.params = params
        self._predict = params.branch_predictor == "tournament"
        self._hazards = params.hazard_detection
        self._bubble = params.load_use_bubble
        self._mul_extra = params.mul_cycles
        self._mispredict = params.mispredict_penalty
        self._taken_pen = params.taken_branch_penalty
        self._jump_pen = params.jump_penalty
        # Load-use latch: destination of the immediately-preceding load.
        self._latch = 0
        # Tournament predictor state: 2-bit counters initialised weakly
        # not-taken / weakly-bimodal, empty BTB, cleared global history.
        self._bn = params.bimodal_entries
        self._gn = params.gshare_entries
        self._cn = params.chooser_entries
        self._tn = params.btb_entries
        self._bimodal = [1] * self._bn
        self._gshare = [1] * self._gn
        self._chooser = [1] * self._cn
        self._btb = [(-1, -1)] * self._tn
        self._history = 0
        self._hmask = (1 << params.history_bits) - 1

    # -- hazard latch ---------------------------------------------------------

    def _hazard(self, reads: Tuple[int, ...]) -> int:
        latch = self._latch
        if latch and self._hazards and latch in reads:
            return self._bubble
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
        return self._mul_extra, hz

    def div(self, reads: Tuple[int, ...], a: int, b: int, signed: bool) -> Tuple[int, int]:
        """Iterative divider: operand-dependent ``(extra, hazard bubble)``."""
        hz = self._hazard(reads)
        self._latch = 0
        return div_latency(a, b, signed, self.params), hz

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
        ``mispredict_penalty`` redirect.
        """
        hz = self._hazard(reads)
        self._latch = 0
        if not self._predict:
            return (self._taken_pen if taken else 0), hz, False
        bi = pc % self._bn
        gi = (pc ^ self._history) % self._gn
        ci = pc % self._cn
        ti = pc % self._tn
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
        self._history = ((self._history << 1) | int(taken)) & self._hmask
        return (self._mispredict if mispredicted else 0), hz, mispredicted

    def jump(self, pc: int, reads: Tuple[int, ...], target: int) -> Tuple[int, int]:
        """jal/jalr: ``(redirect penalty, hazard)``; BTB hits redirect free."""
        hz = self._hazard(reads)
        self._latch = 0
        if not self._predict:
            return self._jump_pen, hz
        ti = pc % self._tn
        hit = self._btb[ti] == (pc, target)
        self._btb[ti] = (pc, target)
        return (0 if hit else self._jump_pen), hz


def make_coster(model: str, params):
    """The :class:`CycleCoster` for a ``CoreConfig.pipeline_model`` value."""
    if model == "static":
        return StaticCoster(params)
    if model == "predictive":
        return PredictiveCoster(params)
    raise ConfigError(f"unknown pipeline model {model!r}; known: {PIPELINE_MODELS}")
