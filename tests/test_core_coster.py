"""Unit tests for the pluggable cycle costers (``repro.core.coster``).

The differential suite proves the costers behave identically across
engines; these tests pin the *intended* microarchitectural semantics —
divider early exit, the load-use latch, predictor warm-up and training,
BTB tag/target matching — so a refactor cannot silently change the model
while staying self-consistent.
"""

import pytest

from repro.core.coster import (
    BRANCH_PREDICTORS,
    PredictiveCoster,
    StaticCoster,
    div_latency,
    instr_reads,
    make_coster,
)
from repro.core.pipeline import PipelineParams
from repro.errors import ConfigError
from repro.isa.instructions import Instr

P = PipelineParams()


def _coster(**overrides) -> PredictiveCoster:
    return PredictiveCoster(PipelineParams(**overrides))


# ---------------------------------------------------------------------------
# Model registry
# ---------------------------------------------------------------------------

def test_make_coster_dispatch():
    assert isinstance(make_coster("static", P), StaticCoster)
    assert isinstance(make_coster("predictive", P), PredictiveCoster)
    assert make_coster("static", P).is_static
    assert not make_coster("predictive", P).is_static
    with pytest.raises(ConfigError, match="unknown pipeline model"):
        make_coster("oracle", P)


#: (knob, bad value, expected error) for PipelineParams construction.
BAD_PIPELINE_PARAMS = [
    # Fractional or boolean latencies would break exact batched cycle sums.
    ("mul_extra_cycles", 2.5, "must be an integer"),
    ("taken_branch_penalty", 1.0, "must be an integer"),
    ("jump_penalty", True, "must be an integer"),
    ("history_bits", "8", "must be an integer"),
    # A negative latency would make every kernel run faster.
    ("jump_penalty", -1, "cannot be negative"),
    ("mul_extra_cycles", -2, "cannot be negative"),
    ("div_extra_cycles", -1, "cannot be negative"),
    ("stream_head_extra", -1, "cannot be negative"),
    ("mispredict_penalty", -1, "cannot be negative"),
    ("load_use_bubble", -1, "cannot be negative"),
    ("mul_cycles", -1, "cannot be negative"),
    ("div_base_cycles", -1, "cannot be negative"),
    ("history_bits", -1, "cannot be negative"),
    # Table sizes and the divider radix divide: zero is rejected too.
    ("btb_entries", 0, "must be positive"),
    ("bimodal_entries", 0, "must be positive"),
    ("gshare_entries", 0, "must be positive"),
    ("chooser_entries", 0, "must be positive"),
    ("div_bits_per_cycle", 0, "must be positive"),
    ("btb_entries", -4, "must be positive"),
    ("branch_predictor", "gshare", "unknown branch predictor"),
    ("branch_predictor", "perceptron", "unknown branch predictor"),
]


def test_knob_validation():
    """Bad knobs fail at construction, whatever the timing model."""
    for knob, value, message in BAD_PIPELINE_PARAMS:
        try:
            PipelineParams(**{knob: value})
        except ConfigError as err:
            assert message in str(err), (knob, value, str(err))
            if knob != "branch_predictor":
                assert knob in str(err), (knob, value, str(err))
        else:
            pytest.fail(f"PipelineParams({knob}={value!r}) was accepted")


def test_edge_pipeline_params_are_accepted():
    PipelineParams(mul_extra_cycles=0, taken_branch_penalty=0, jump_penalty=0,
                   history_bits=0, load_use_bubble=0, btb_entries=1,
                   div_bits_per_cycle=1, branch_predictor="none")
    assert BRANCH_PREDICTORS == ("tournament", "none")


# ---------------------------------------------------------------------------
# Divider latency
# ---------------------------------------------------------------------------

def test_div_latency_early_exit_cases():
    base = P.div_base_cycles
    # Division by zero and |a| < |b| resolve in pre/post-processing alone.
    assert div_latency(0, 5, False, P) == base
    assert div_latency(7, 0, False, P) == base
    assert div_latency(3, 4, False, P) == base
    # One quotient bit still costs one iteration cycle.
    assert div_latency(1, 1, False, P) == base + 1
    # Full-width quotient: 32 bits at 4 bits/cycle = 8 iteration cycles.
    assert div_latency(0xFFFFFFFF, 1, False, P) == base + 8


def test_div_latency_signed_magnitudes():
    # -8 / 2 signed: |a|=8 (4 bits), |b|=2 (2 bits) -> 3 quotient bits.
    neg8 = 0x100000000 - 8
    assert div_latency(neg8, 2, True, P) == P.div_base_cycles + 1
    # The same bit patterns unsigned: huge |a| -> near-full quotient.
    assert div_latency(neg8, 2, False, P) > div_latency(neg8, 2, True, P)
    # INT_MIN / -1 (the classic overflow case): |quotient| is full-width,
    # so the divider runs all 32/4 iteration cycles.
    assert div_latency(0x80000000, 0xFFFFFFFF, True, P) == P.div_base_cycles + 8


def test_div_latency_early_exit_disabled_is_static_worst_case():
    fixed = PipelineParams(div_early_exit=False)
    for a, b in ((0, 5), (7, 0), (1, 1), (0xFFFFFFFF, 1)):
        assert div_latency(a, b, False, fixed) == fixed.div_extra_cycles


def test_div_latency_monotone_in_quotient_width():
    latencies = [div_latency((1 << n) - 1, 1, False, P) for n in range(1, 33)]
    assert latencies == sorted(latencies)


# ---------------------------------------------------------------------------
# Load-use hazard latch
# ---------------------------------------------------------------------------

def test_load_use_bubble_only_when_dependent():
    c = _coster()
    assert c.mem((0,), load_rd=5) == 0       # the load itself
    assert c.simple((5,)) == P.load_use_bubble  # dependent consumer: bubble
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
    assert (extra, hz) == (P.mul_cycles, P.load_use_bubble)


def test_hazard_detection_knob_disables_bubbles():
    c = _coster(hazard_detection=False)
    c.mem((), load_rd=5)
    assert c.simple((5,)) == 0


def test_div_and_branch_see_hazards_too():
    c = _coster()
    c.mem((), load_rd=4)
    extra, hz = c.div((4,), 8, 2, False)
    assert hz == P.load_use_bubble
    c.mem((), load_rd=4)
    _, hz, _ = c.branch(0, (4,), taken=False, target=3)
    assert hz == P.load_use_bubble


# ---------------------------------------------------------------------------
# Branch prediction
# ---------------------------------------------------------------------------

def test_cold_taken_branch_mispredicts_then_learns():
    c = _coster()
    pen, _, miss = c.branch(4, (), taken=True, target=1)
    assert (pen, miss) == (P.mispredict_penalty, True)   # cold: counters weak
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
    alias = 4 + P.btb_entries * P.bimodal_entries * P.chooser_entries
    pen, _, miss = c.branch(alias, (), taken=True, target=9)
    assert miss and pen == P.mispredict_penalty


def test_loop_branch_converges_to_zero_penalty():
    c = _coster()
    total = 0
    for _ in range(64):
        pen, _, _ = c.branch(8, (), taken=True, target=2)
        total += pen
    # Only the cold iteration pays; a learned loop branch is free.
    assert total == P.mispredict_penalty


def test_predictor_none_restores_flat_taken_penalty():
    c = _coster(branch_predictor="none")
    for _ in range(3):
        pen, _, miss = c.branch(8, (), taken=True, target=2)
        assert (pen, miss) == (P.taken_branch_penalty, False)
    pen, _, miss = c.branch(8, (), taken=False, target=2)
    assert (pen, miss) == (0, False)


def test_jump_btb_miss_then_hit():
    c = _coster()
    pen, _ = c.jump(6, (), target=0)
    assert pen == P.jump_penalty          # cold BTB
    pen, _ = c.jump(6, (), target=0)
    assert pen == 0                       # installed on the miss
    pen, _ = c.jump(6, (), target=3)      # same pc, new target (jalr)
    assert pen == P.jump_penalty


def test_jump_with_predictor_none_always_pays():
    c = _coster(branch_predictor="none")
    for _ in range(2):
        pen, _ = c.jump(6, (), target=0)
        assert pen == P.jump_penalty


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
