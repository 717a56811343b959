"""Unit tests for the pluggable cycle costers (``repro.core.coster``).

The differential suite proves the costers behave identically across
engines; these tests pin the *intended* microarchitectural semantics —
divider early exit, the load-use latch, predictor warm-up and training,
BTB tag/target matching — so a refactor cannot silently change the model
while staying self-consistent.
"""

import pytest

from repro.core.coster import (
    PredictiveCoster,
    div_latency,
    instr_reads,
    make_coster,
)
from repro.core.pipeline import (
    BIMODAL_ENTRIES,
    BTB_ENTRIES,
    CHOOSER_ENTRIES,
    DIV_BASE_CYCLES,
    JUMP_PENALTY,
    LOAD_USE_BUBBLE,
    MISPREDICT_PENALTY,
    MUL_CYCLES,
)
from repro.errors import ConfigError
from repro.isa.instructions import Instr


def _coster() -> PredictiveCoster:
    return PredictiveCoster()


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------

def test_make_coster_dispatch():
    assert isinstance(make_coster("predictive"), PredictiveCoster)
    with pytest.raises(ConfigError, match="unknown pipeline model"):
        make_coster("oracle")


# ---------------------------------------------------------------------------
# Divider latency
# ---------------------------------------------------------------------------

def test_div_latency_early_exit_cases():
    base = DIV_BASE_CYCLES
    # Division by zero and |a| < |b| resolve in pre/post-processing alone.
    assert div_latency(0, 5, False) == base
    assert div_latency(7, 0, False) == base
    assert div_latency(3, 4, False) == base
    # One quotient bit still costs one iteration cycle.
    assert div_latency(1, 1, False) == base + 1
    # Full-width quotient: 32 bits at 4 bits/cycle = 8 iteration cycles.
    assert div_latency(0xFFFFFFFF, 1, False) == base + 8


def test_div_latency_signed_magnitudes():
    # -8 / 2 signed: |a|=8 (4 bits), |b|=2 (2 bits) -> 3 quotient bits.
    neg8 = 0x100000000 - 8
    assert div_latency(neg8, 2, True) == DIV_BASE_CYCLES + 1
    # The same bit patterns unsigned: huge |a| -> near-full quotient.
    assert div_latency(neg8, 2, False) > div_latency(neg8, 2, True)
    # INT_MIN / -1 (the classic overflow case): |quotient| is full-width,
    # so the divider runs all 32/4 iteration cycles.
    assert div_latency(0x80000000, 0xFFFFFFFF, True) == DIV_BASE_CYCLES + 8


def test_div_latency_monotone_in_quotient_width():
    latencies = [div_latency((1 << n) - 1, 1, False) for n in range(1, 33)]
    assert latencies == sorted(latencies)


# ---------------------------------------------------------------------------
# Load-use hazard latch
# ---------------------------------------------------------------------------

def test_load_use_bubble_only_when_dependent():
    c = _coster()
    assert c.mem((0,), load_rd=5) == 0       # the load itself
    assert c.simple((5,)) == LOAD_USE_BUBBLE  # dependent consumer: bubble
    assert c.simple((5,)) == 0               # latch cleared by the consumer


def test_independent_op_clears_latch_without_bubble():
    c = _coster()
    c.mem((), load_rd=5)
    assert c.simple((3,)) == 0   # independent op: forwarding covers it
    assert c.simple((5,)) == 0   # one cycle later the value is in the regfile


def test_store_does_not_latch():
    c = _coster()
    c.mem((2, 3), load_rd=0)     # store: load_rd=0 means no latch
    assert c.simple((2, 3)) == 0


def test_stream_load_latches_like_a_load():
    c = _coster()
    assert c.stream_load((), rd=7) == 0
    extra, hz = c.mul((7, 7))
    assert (extra, hz) == (MUL_CYCLES, LOAD_USE_BUBBLE)


def test_div_and_branch_see_hazards_too():
    c = _coster()
    c.mem((), load_rd=4)
    extra, hz = c.div((4,), 8, 2, False)
    assert hz == LOAD_USE_BUBBLE
    c.mem((), load_rd=4)
    _, hz, _ = c.branch(0, (4,), taken=False, target=3)
    assert hz == LOAD_USE_BUBBLE


# ---------------------------------------------------------------------------
# Branch prediction
# ---------------------------------------------------------------------------

def test_cold_taken_branch_mispredicts_then_learns():
    c = _coster()
    pen, _, miss = c.branch(4, (), taken=True, target=1)
    assert (pen, miss) == (MISPREDICT_PENALTY, True)   # cold: counters weak
    pen, _, miss = c.branch(4, (), taken=True, target=1)
    assert (pen, miss) == (0, False)  # counters trained, BTB installed


def test_cold_not_taken_branch_predicts_correctly():
    c = _coster()
    pen, _, miss = c.branch(4, (), taken=False, target=1)
    assert (pen, miss) == (0, False)  # weakly-not-taken init matches


def test_btb_target_mismatch_counts_as_mispredict():
    c = _coster()
    c.branch(4, (), taken=True, target=1)   # warm up the direction counters
    c.branch(4, (), taken=True, target=1)
    # Same slot, different target (aliasing pc + btb_entries): direction says
    # taken but the BTB redirects to the wrong place -> mispredict.
    alias = 4 + BTB_ENTRIES * BIMODAL_ENTRIES * CHOOSER_ENTRIES
    pen, _, miss = c.branch(alias, (), taken=True, target=9)
    assert miss and pen == MISPREDICT_PENALTY


def test_loop_branch_converges_to_zero_penalty():
    c = _coster()
    total = 0
    for _ in range(64):
        pen, _, _ = c.branch(8, (), taken=True, target=2)
        total += pen
    # Only the cold iteration pays; a learned loop branch is free.
    assert total == MISPREDICT_PENALTY


def test_jump_btb_miss_then_hit():
    c = _coster()
    pen, _ = c.jump(6, (), target=0)
    assert pen == JUMP_PENALTY          # cold BTB
    pen, _ = c.jump(6, (), target=0)
    assert pen == 0                       # installed on the miss
    pen, _ = c.jump(6, (), target=3)      # same pc, new target (jalr)
    assert pen == JUMP_PENALTY


def test_gshare_distinguishes_history_contexts():
    """An alternating branch defeats bimodal but is gshare-predictable;
    the tournament must converge to (near) zero steady-state penalty."""
    c = _coster()
    outcomes = [True, False] * 64
    penalties = [c.branch(12, (), taken=t, target=5)[0] for t in outcomes]
    assert sum(penalties[-32:]) == 0


# ---------------------------------------------------------------------------
# instr_reads
# ---------------------------------------------------------------------------

def test_instr_reads_shapes():
    assert instr_reads(Instr("add", rd=3, rs1=1, rs2=2)) == (1, 2)
    assert instr_reads(Instr("addi", rd=3, rs1=4, imm=1)) == (4,)
    assert instr_reads(Instr("sw", rs1=1, rs2=2, imm=0)) == (1, 2)
    assert instr_reads(Instr("beq", rs1=5, rs2=5, imm=0)) == (5,)  # dedup
    assert instr_reads(Instr("jalr", rd=1, rs1=6, imm=0)) == (6,)
    assert instr_reads(Instr("sstore", rs2=7, sid=0, width=4)) == (7,)
    # x0 is hardwired zero: never a hazard source.
    assert instr_reads(Instr("add", rd=3, rs1=0, rs2=0)) == ()
    for op in ("lui", "jal", "halt", "sload", "savail", "seos"):
        kwargs = {"sid": 0} if op in ("sload", "savail", "seos") else {}
        assert instr_reads(Instr(op, rd=1, imm=0, **kwargs)) == ()
