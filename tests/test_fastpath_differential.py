"""Differential conformance suite: the fast engine vs its two oracles.

The fast engine (:mod:`repro.isa.fastpath`) must be *bit-identical* to the
reference interpreter (the functional spec) — same register files, memory,
stream-buffer head/tail CSRs, retired-instruction counts, and the same
exceptions at trap boundaries — and to the per-step timing oracle
(``tests/core_oracle.py``) in every cycle it charges. Three layers of
evidence:

1. every registered kernel, run through :class:`CoreModel` and the timing
   oracle across the stream, ping-pong, and cache data paths, comparing the
   full :class:`CoreRunResult` (cycles, stall buckets, pipeline stats, DRAM
   traffic, page-touch trace, outputs, final regs/state), the per-PC
   :class:`IsaProfiler` attribution and the pads' and caches' counters;
   plus loads and stores of every width at every pad edge on six
   configurations, straddling accesses and memory faults included;
2. a deterministic corpus of >=500 seeded random RV32IM+stream programs
   (loops, faults, stalls, EOS) compared on full architectural state, and
   the same programs timed on the stream and DRAM-cache hierarchies under
   both timing models against the timing oracle (clock, pipeline stats,
   stall buckets, per-PC profile);
3. hypothesis-generated programs for adversarial edge discovery.

The CI ``fastpath-differential`` job runs the whole file. Run the seeded
corpus alone with::

    pytest tests/test_fastpath_differential.py -k seeded
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import StreamBufferConfig, named_config
from repro.core.core import MEMORY_BYTES, CoreModel
from repro.core.pipeline import PipelineModel
from repro.errors import ExecutionError, MemoryError_
from repro.isa.fastpath import FastEngine
from repro.isa.instructions import Instr
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program
from repro.kernels.registry import KERNEL_NAMES, get_kernel
from repro.mem.hierarchy import PINGPONG_BASE, SCRATCHPAD_BASE, build_hierarchy
from repro.mem.memory import FlatMemory
from repro.mem.streambuffer import StreamBufferSet
from repro.telemetry.profiler import IsaProfiler

from tests.core_oracle import OracleCoreModel, run_steps

# ---------------------------------------------------------------------------
# Shared machinery: run one program on both engines, capture full state.
# ---------------------------------------------------------------------------

MEM_BYTES = 512
SB_CFG = StreamBufferConfig(num_streams=4, pages_per_stream=2, page_bytes=256)
MAX_STEPS = 3000

_ALU_R = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt", "sltu",
          "mul", "mulh", "mulhu", "mulhsu", "div", "divu", "rem", "remu"]
_ALU_I = ["addi", "andi", "ori", "xori", "slti", "sltiu"]
_SHIFT_I = ["slli", "srli", "srai"]
_LOADS = ["lb", "lbu", "lh", "lhu", "lw"]
_STORES = ["sb", "sh", "sw"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]

REGS = list(range(1, 16))


def _interp(program, seeds, mem_image, stream_data, open_streams=()):
    """A fresh interpreter over ``program``; returns (interp, in_set, out_set)."""
    mem = FlatMemory(MEM_BYTES)
    if mem_image:
        mem.store_bytes(0, mem_image)
    ins = StreamBufferSet(SB_CFG, "input")
    outs = StreamBufferSet(SB_CFG, "output")
    for sid, data in enumerate(stream_data):
        if data:
            ins[sid].push(data)
        if sid not in open_streams:
            ins[sid].finish_producing()
    interp = Interpreter(program, mem, in_streams=ins, out_streams=outs)
    for reg, value in seeds:
        interp.regs.write(reg, value)
    return interp, ins, outs


def _execute(program, fast, seeds, mem_image, stream_data, open_streams=()):
    """Run on one engine; return (interp, in_set, out_set, error-or-None)."""
    interp, ins, outs = _interp(program, seeds, mem_image, stream_data,
                                open_streams)
    err = None
    try:
        if fast:
            FastEngine(program).run(interp, max_steps=MAX_STEPS)
        else:
            interp.run(max_steps=MAX_STEPS)
    except Exception as exc:  # compared across engines below
        err = (type(exc).__name__, str(exc))
    return interp, ins, outs, err


def _state(interp, ins, outs, err):
    streams = []
    for sset in (ins, outs):
        for s in sset.streams:
            streams.append((s.head, s.tail, s.head_csr, s.tail_csr,
                            s.underflows, s.overflow_rejects, s.state.value))
    return {
        "err": err,
        "regs": interp.regs.snapshot(),
        "mem": interp.memory.load_bytes(0, MEM_BYTES),
        "pc": interp.pc,
        "steps": interp.steps,
        "finished": interp.finished,
        "halted": interp.halted,
        "counts": {k.value: v for k, v in interp.instr_counts.items() if v},
        "bytes_in": interp.stream_bytes_in,
        "bytes_out": interp.stream_bytes_out,
        "streams": streams,
    }


def assert_engines_agree(program, seeds=(), mem_image=b"", stream_data=(),
                         open_streams=()):
    ref = _state(*_execute(program, False, seeds, mem_image, stream_data,
                           open_streams))
    fast = _state(*_execute(program, True, seeds, mem_image, stream_data,
                            open_streams))
    if (ref["err"] and ref["err"][1].startswith("exceeded max_steps")
            and fast["err"] == ref["err"]):
        # Runaway-loop backstop: the fast engine checks the budget per
        # superblock dispatch, not per instruction, so mid-run state at the
        # trap may differ by part of one straight-line run. The trap itself
        # (type and message) must still be identical.
        return
    assert fast == ref, f"\nfast={fast}\nref={ref}\nprogram={program.instrs}"


# ---------------------------------------------------------------------------
# Layer 1: every registered kernel through CoreModel, all data paths.
# ---------------------------------------------------------------------------

# Stream path (AssasinSb), ping-pong memory path (AssasinSp), DRAM cache
# path (Baseline). Other configs reuse these three execution shapes.
_KERNEL_CONFIGS = ("AssasinSb", "AssasinSp", "Baseline")
_KERNEL_BYTES = 12 * 1024  # 3 flash pages per stream: exercises refill/wrap


def _profile(profiler):
    return [
        (s.pc, s.count, s.cycles, s.compute, s.mem_stall, s.stream_stall)
        for s in profiler.pc_stats()
    ]


def _level_stats(h):
    """Every pad's and cache level's counters (None for a level it lacks)."""
    pads = {"scratchpad": h.scratchpad}
    for name, pair in (("in", h.pingpong), ("out", h.pingpong_out)):
        pads[f"{name}_ping"] = pair and pair.ping
        pads[f"{name}_pong"] = pair and pair.pong
    levels = {name: pad and pad.stats for name, pad in pads.items()}
    levels.update(l1=h.l1 and h.l1.stats, l2=h.l2 and h.l2.stats)
    return levels


def _profiled_run(config_name, kernel_name, model="static", oracle=False):
    """One profiled kernel run: ``(result, per-PC profile, level stats)``."""
    cfg = named_config(config_name).with_pipeline_model(model)
    kernel = get_kernel(kernel_name)
    inputs = kernel.make_inputs(_KERNEL_BYTES, seed=23)
    core = (OracleCoreModel if oracle else CoreModel)(cfg.core)
    core.profiler = IsaProfiler()
    result = core.run(kernel, inputs)
    return result, _profile(core.profiler), _level_stats(core.hierarchy)


@pytest.mark.parametrize("config_name", _KERNEL_CONFIGS)
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_kernel_runs_identical(config_name, kernel_name):
    fast, fast_profile, fast_levels = _profiled_run(config_name, kernel_name)
    ref, ref_profile, ref_levels = _profiled_run(config_name, kernel_name, oracle=True)
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert fast.bytes_in == ref.bytes_in
    assert fast.bytes_out == ref.bytes_out
    assert fast.outputs == ref.outputs
    assert fast.final_state == ref.final_state
    assert fast.final_regs == ref.final_regs
    assert fast.buckets == ref.buckets
    assert fast.pipeline == ref.pipeline
    assert fast.dram_traffic == ref.dram_traffic
    assert fast.page_touches == ref.page_touches
    assert fast.chunks == ref.chunks
    assert fast_profile == ref_profile
    assert fast_levels == ref_levels


# ---------------------------------------------------------------------------
# Layer 1b: pluggable timing models — both costers, engine vs oracle.
#
# The predictive coster is stateful (predictor tables, hazard latch), so
# equivalence is a much stronger claim than for the static model: the
# engine and the oracle must consult the coster for exactly the same
# instructions in exactly the same order. Any divergence (e.g. costing an
# aborted sload) desynchronises the predictor and shows up as a cycle
# mismatch here.
# ---------------------------------------------------------------------------


def _model_result(config_name, kernel_name, model):
    return _profiled_run(config_name, kernel_name, model)[0]


@pytest.mark.parametrize("config_name", _KERNEL_CONFIGS)
@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_predictive_kernel_runs_identical(config_name, kernel_name):
    fast, fast_profile, fast_levels = _profiled_run(config_name, kernel_name, "predictive")
    ref, ref_profile, ref_levels = _profiled_run(
        config_name, kernel_name, "predictive", oracle=True
    )
    assert fast.cycles == ref.cycles
    assert fast.instructions == ref.instructions
    assert fast.outputs == ref.outputs
    assert fast.final_state == ref.final_state
    assert fast.final_regs == ref.final_regs
    assert fast.buckets == ref.buckets
    assert fast.pipeline == ref.pipeline  # incl. hazard stalls + mispredicts
    assert fast.dram_traffic == ref.dram_traffic
    assert fast.page_touches == ref.page_touches
    assert fast_profile == ref_profile
    assert fast_levels == ref_levels


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
def test_predictive_changes_cpi_not_architecture(kernel_name):
    """The predictive model reprices cycles but must not perturb execution:
    identical outputs, registers, and retired-instruction counts, with a
    different cycle total whenever the kernel has any priced work."""
    static = _model_result("AssasinSb", kernel_name, "static")
    pred = _model_result("AssasinSb", kernel_name, "predictive")
    assert pred.outputs == static.outputs
    assert pred.final_state == static.final_state
    assert pred.final_regs == static.final_regs
    assert pred.instructions == static.instructions
    assert pred.bytes_in == static.bytes_in
    assert pred.bytes_out == static.bytes_out
    if pred.pipeline.hazard_stall_cycles or pred.pipeline.branch_mispredicts:
        assert pred.cycles != static.cycles


def test_predictive_prices_branch_heavy_kernel_differently():
    """Acceptance pin: at least one kernel must actually exercise the
    predictor and hazard logic (otherwise the model proves nothing)."""
    pred = _model_result("AssasinSb", "stat", "predictive")
    static = _model_result("AssasinSb", "stat", "static")
    assert pred.cycles != static.cycles
    assert pred.pipeline.hazard_stall_cycles > 0


# ---------------------------------------------------------------------------
# Layer 1c: loads and stores at every pad edge, on every data path.
#
# The engine times scratchpad and ping-pong accesses with its own range
# check and hands only DRAM-space accesses to the hierarchy; an access that
# straddles a pad boundary belongs to no pad and must take the DRAM-space
# path, exactly as the hierarchy spec classifies it.
# ---------------------------------------------------------------------------

_EDGE_CONFIGS = ("AssasinSb", "AssasinSp", "Baseline", "AssasinSb$", "UDP", "Prefetch")
#: AssasinSp with slow, narrow pads: a 2-cycle SRAM behind a 2-byte port
#: stalls 1 cycle per 1- or 2-byte access and 3 per 4-byte access.
_SLOW_PADS = "AssasinSp-slow-pads"
_SLOW_PAD = dict(access_latency_cycles=2, port_width_bytes=2)


def _edge_core(config_name, model):
    if config_name == _SLOW_PADS:
        core = named_config("AssasinSp").core
        core = replace(
            core,
            scratchpad=replace(core.scratchpad, **_SLOW_PAD),
            pingpong=replace(core.pingpong, **_SLOW_PAD),
        )
        return replace(core, pipeline_model=model)
    return named_config(config_name).with_pipeline_model(model).core


def _pad_edges():
    """Every pad boundary of any configuration, lowest first."""
    cores = [named_config(name).core for name in _EDGE_CONFIGS]
    edges = {SCRATCHPAD_BASE}
    edges.update(SCRATCHPAD_BASE + c.scratchpad.size_bytes for c in cores if c.scratchpad)
    for core in cores:
        if core.pingpong:  # input ping, pong, output ping, pong
            edges.update(PINGPONG_BASE + k * core.pingpong.size_bytes for k in range(5))
    return sorted(edges)


def _point_at(addr):
    """``lui x5`` so that ``x5 + offset`` is ``addr``; returns (instr, offset)."""
    hi = (addr + 0x800) >> 12
    return Instr("lui", rd=5, imm=hi), addr - (hi << 12)


def _edge_accesses(addr, ops):
    """Each op of ``ops`` at ``addr``; loads fold into x8 so values count."""
    point, offset = _point_at(addr)
    instrs = [point]
    for op in ops:
        if op in _STORES:
            instrs.append(Instr(op, rs1=5, rs2=7, imm=offset))
        else:
            instrs += [Instr(op, rd=6, rs1=5, imm=offset),
                       Instr("add", rd=8, rs1=8, rs2=6)]
    return instrs


def _edge_program(trap_op=None):
    """Every width, loaded and stored, from 4 bytes below each pad edge to
    1 above it, then the last in-bounds bytes of memory; ``trap_op`` ends
    the program with one access that runs 1 byte past the end."""
    instrs = [Instr("lui", rd=7, imm=0x81A5C), Instr("addi", rd=7, rs1=7, imm=-0x35B)]
    for edge in _pad_edges():
        for addr in range(edge - 4, edge + 2):
            instrs += _edge_accesses(addr, _LOADS + _STORES)
    for width, ops in ((1, ("lb", "lbu", "sb")), (2, ("lh", "lhu", "sh")), (4, ("lw", "sw"))):
        instrs += _edge_accesses(MEMORY_BYTES - width, ops)
    if trap_op is not None:
        width = {"lw": 4, "sw": 4, "lh": 2, "sh": 2}[trap_op]
        instrs += _edge_accesses(MEMORY_BYTES - width + 1, (trap_op,))
    return Program("edges", tuple(instrs) + (Instr("halt"),))


def _edge_run(config_name, model, program, oracle):
    """Run ``program`` timed; everything the engine and the oracle charge."""
    h = build_hierarchy(_edge_core(config_name, model))
    pipeline = PipelineModel(h, model=model)
    memory = FlatMemory(MEMORY_BYTES)
    interp = Interpreter(program, memory)
    clock = SimpleNamespace(cycle=0.0)
    profiler = IsaProfiler()
    profiler.set_program(program)
    # First-touch pages of a DRAM-staged input that runs into the scratchpad.
    region = range(SCRATCHPAD_BASE - 8192, SCRATCHPAD_BASE + 8192)
    touches = err = None
    try:
        if oracle:
            touches = run_steps(interp, pipeline, clock, region, profiler)
        else:
            touches = FastEngine(program, model=model).run(
                interp, pipeline=pipeline, clock=clock, input_region=region,
                strict_stalls=True, profiler=profiler,
            )
    except MemoryError_ as exc:
        err = str(exc)
    return {
        "err": err,
        "touches": touches,
        "cycles": clock.cycle,
        "pc": interp.pc,
        "steps": interp.steps,
        "regs": interp.regs.snapshot(),
        "memory": [memory.load_bytes(edge - 8, 16) for edge in _pad_edges()]
        + [memory.load_bytes(MEMORY_BYTES - 8, 8)],
        "pipeline": pipeline.stats,
        "buckets": h.buckets,
        "traffic": h.dram.traffic,
        "levels": _level_stats(h),
        "profile": _profile(profiler),
    }


@pytest.mark.parametrize("model", ("static", "predictive"))
@pytest.mark.parametrize("config_name", _EDGE_CONFIGS + (_SLOW_PADS,))
@pytest.mark.parametrize("trap_op", (None, "lw", "sh"))
def test_pad_edge_accesses_identical(config_name, model, trap_op):
    program = _edge_program(trap_op)
    fast = _edge_run(config_name, model, program, oracle=False)
    ref = _edge_run(config_name, model, program, oracle=True)
    assert (fast["err"] is None) == (trap_op is None)
    for key in ref:
        assert fast[key] == ref[key], key


def test_pad_edges_cover_every_region():
    """The edge program really reaches each pad and the DRAM-space path
    on the configurations that have them, with straddles in between."""
    program = _edge_program()
    sp = _edge_run("AssasinSp", "static", program, oracle=False)["levels"]
    assert sp["scratchpad"].reads and sp["scratchpad"].writes
    assert sp["in_ping"].reads and sp["in_ping"].writes
    assert sp["in_pong"].reads == 0  # every ping-pong access counts as ping
    udp = _edge_run("UDP", "static", program, oracle=False)
    assert udp["levels"]["scratchpad"].reads and udp["traffic"].core_fill
    cached = _edge_run("AssasinSb$", "static", program, oracle=False)["levels"]
    assert cached["scratchpad"].reads and cached["l1"].misses and cached["l1"].hits
    slow = _edge_run(_SLOW_PADS, "static", program, oracle=False)
    assert slow["buckets"].scratchpad_stall > 0


def test_engine_pipeline_model_mismatch_guard():
    program = Program("g", (Instr("halt"),))
    interp = Interpreter(program, FlatMemory(64))
    static_engine = FastEngine(program)
    predictive_pipeline = PipelineModel(None, model="predictive")
    with pytest.raises(ExecutionError, match="other timing model"):
        static_engine.run(interp, pipeline=predictive_pipeline)

    predictive_engine = FastEngine(program, model="predictive")
    static_pipeline = PipelineModel(None, model="static")
    with pytest.raises(ExecutionError, match="other timing model"):
        predictive_engine.run(interp, pipeline=static_pipeline)


def test_predictive_engine_needs_a_pipeline():
    """A run without a pipeline is functional only; the predictive model
    prices every op through the pipeline's coster, so it has no such run."""
    program = Program("p", (Instr("halt"),))
    interp = Interpreter(program, FlatMemory(64))
    with pytest.raises(ExecutionError, match="needs a pipeline"):
        FastEngine(program, model="predictive").run(interp)
    assert interp.steps == 0 and not interp.finished


def test_unknown_pipeline_model_rejected():
    with pytest.raises(ExecutionError, match="unknown pipeline model"):
        FastEngine(Program("u", (Instr("halt"),)), model="oracle")


# ---------------------------------------------------------------------------
# Layer 2: deterministic seeded corpus (>=500 random RV32IM+stream programs).
# ---------------------------------------------------------------------------

N_SEEDED_PROGRAMS = 500


def _random_instr(rng, n_hint):
    roll = rng.random()
    if roll < 0.40:  # register/imm ALU, all RV32IM ops incl. MULH*/SRA edges
        sub = rng.random()
        if sub < 0.5:
            return Instr(rng.choice(_ALU_R), rd=rng.choice(REGS),
                         rs1=rng.choice(REGS), rs2=rng.choice(REGS))
        if sub < 0.8:
            return Instr(rng.choice(_ALU_I), rd=rng.choice(REGS),
                         rs1=rng.choice(REGS), imm=rng.randint(-2048, 2047))
        if sub < 0.95:
            return Instr(rng.choice(_SHIFT_I), rd=rng.choice(REGS),
                         rs1=rng.choice(REGS), imm=rng.randint(0, 31))
        return Instr("lui", rd=rng.choice(REGS), imm=rng.randint(0, 0xFFFFF))
    if roll < 0.58:  # loads/stores; occasionally a wild base -> memory fault
        wild = rng.random() < 0.05
        rs1 = rng.choice(REGS) if wild else 0
        imm = rng.randint(0, MEM_BYTES - 8)
        if rng.random() < 0.5:
            return Instr(rng.choice(_LOADS), rd=rng.choice(REGS), rs1=rs1,
                         imm=imm)
        return Instr(rng.choice(_STORES), rs2=rng.choice(REGS), rs1=rs1,
                     imm=imm)
    if roll < 0.80:  # stream extension
        sid = rng.randint(0, SB_CFG.num_streams - 1)
        sub = rng.random()
        if sub < 0.40:
            return Instr("sload", rd=rng.choice(REGS), sid=sid,
                         width=rng.choice((1, 2, 4)))
        if sub < 0.55:
            return Instr("sskip", sid=sid, imm=rng.randint(1, 8))
        if sub < 0.80:
            return Instr("sstore", rs2=rng.choice(REGS), sid=sid,
                         width=rng.choice((1, 2, 4)))
        if sub < 0.90:
            return Instr("savail", rd=rng.choice(REGS), sid=sid)
        return Instr("seos", rd=rng.choice(REGS), sid=sid)
    if roll < 0.95:  # control flow, targets fixed up after assembly
        if rng.random() < 0.8:
            return Instr(rng.choice(_BRANCHES), rs1=rng.choice(REGS),
                         rs2=rng.choice(REGS), imm=-1)
        return Instr("jal", rd=rng.choice(REGS), imm=-1)
    # jalr: register-indirect jump; usually traps on a wild PC, which both
    # engines must report (and leave state) identically.
    return Instr("jalr", rd=rng.choice(REGS), rs1=rng.choice(REGS),
                 imm=rng.randint(0, n_hint))


def _random_program(rng):
    body = [_random_instr(rng, 32) for _ in range(rng.randint(1, 24))]
    if rng.random() < 0.5:
        # Wrap in a guaranteed-bounded counter loop: superblock re-entry from
        # a backward branch is the fast path's bread and butter.
        count = rng.randint(1, 5)
        body = ([Instr("addi", rd=30, rs1=0, imm=count)] + body
                + [Instr("addi", rd=30, rs1=30, imm=-1),
                   Instr("bne", rs1=30, rs2=0, imm=1)])
    body.append(Instr("halt"))
    for pos, instr in enumerate(body):
        if instr.imm == -1 and (instr.op in _BRANCHES or instr.op == "jal"):
            body[pos] = Instr(instr.op, rd=instr.rd, rs1=instr.rs1,
                              rs2=instr.rs2, imm=rng.randint(0, len(body) - 1))
    return Program("seeded", tuple(body))


def _random_environment(rng):
    seeds = [(r, rng.randint(0, 0xFFFFFFFF)) for r in rng.sample(REGS, 6)]
    mem_image = bytes(rng.getrandbits(8) for _ in range(64))
    stream_data = []
    for _ in range(SB_CFG.num_streams):
        n = rng.choice((0, rng.randint(1, 40), rng.randint(200, 512)))
        stream_data.append(bytes(rng.getrandbits(8) for _ in range(n)))
    # Occasionally leave one empty stream producing: sloads on it stall
    # forever and both engines must raise the same unresolvable-stall trap.
    open_streams = (0,) if rng.random() < 0.1 and not stream_data[0] else ()
    return seeds, mem_image, stream_data, open_streams


def _seeded_corpus():
    """The seeded programs, each with its environment."""
    rng = random.Random(0xA55A51)
    corpus = []
    for _ in range(N_SEEDED_PROGRAMS):
        program = _random_program(rng)
        corpus.append((program, _random_environment(rng)))
    return corpus


def test_seeded_corpus_bit_identical():
    for program, env in _seeded_corpus():
        assert_engines_agree(program, *env)


# ---------------------------------------------------------------------------
# Layer 2b: the seeded corpus timed, under both timing models.
#
# The same random programs (every branch, jal and jalr shape, stream
# stalls, EOS and traps) run through the engine and the per-step timing
# oracle on the stream and DRAM-cache hierarchies. A run compares its
# error, architectural end state, clock, pipeline stats, stall buckets
# and per-PC profile.
# ---------------------------------------------------------------------------

_TIMED_CONFIGS = ("AssasinSb", "Baseline")


def _timed_corpus_run(program, env, config_name, model, oracle):
    """One strict timed run of a seeded program: everything it charges."""
    interp, _, _ = _interp(program, *env)
    h = build_hierarchy(named_config(config_name).with_pipeline_model(model).core)
    pipeline = PipelineModel(h, model=model)
    clock = SimpleNamespace(cycle=0.0)
    profiler = IsaProfiler()
    profiler.set_program(program)
    err = None
    try:
        if oracle:
            run_steps(interp, pipeline, clock, profiler=profiler)
        else:
            FastEngine(program, model=model).run(
                interp, pipeline=pipeline, clock=clock, strict_stalls=True,
                profiler=profiler,
            )
    except Exception as exc:  # compared across engines below
        err = (type(exc).__name__, str(exc))
    return {
        "err": err,
        "pc": interp.pc,
        "steps": interp.steps,
        "regs": interp.regs.snapshot(),
        "clock": clock.cycle,
        "pipeline": pipeline.stats,
        "buckets": h.buckets,
        "profile": _profile(profiler),
    }


@pytest.mark.parametrize("model", ("static", "predictive"))
@pytest.mark.parametrize("config_name", _TIMED_CONFIGS)
def test_seeded_corpus_timed_identical(config_name, model):
    """Every seeded program whose functional run ends within ``MAX_STEPS``
    (the oracle has no step budget) charges the oracle's exact cycles."""
    timed = 0
    for program, env in _seeded_corpus():
        err = _execute(program, False, *env)[3]
        if err and err[1].startswith("exceeded max_steps"):
            continue
        fast = _timed_corpus_run(program, env, config_name, model, oracle=False)
        ref = _timed_corpus_run(program, env, config_name, model, oracle=True)
        assert fast == ref, f"\nfast={fast}\nref={ref}\nprogram={program.instrs}"
        timed += 1
    assert timed >= 400


# ---------------------------------------------------------------------------
# Layer 3: hypothesis edge discovery.
# ---------------------------------------------------------------------------

alu_instr = st.one_of(
    st.builds(lambda op, rd, rs1, rs2: Instr(op, rd=rd, rs1=rs1, rs2=rs2),
              st.sampled_from(_ALU_R), st.sampled_from(REGS),
              st.sampled_from(REGS), st.sampled_from(REGS)),
    st.builds(lambda op, rd, rs1, imm: Instr(op, rd=rd, rs1=rs1, imm=imm),
              st.sampled_from(_ALU_I), st.sampled_from(REGS),
              st.sampled_from(REGS), st.integers(-2048, 2047)),
    st.builds(lambda op, rd, rs1, imm: Instr(op, rd=rd, rs1=rs1, imm=imm),
              st.sampled_from(_SHIFT_I), st.sampled_from(REGS),
              st.sampled_from(REGS), st.integers(0, 31)),
    st.builds(lambda rd, imm: Instr("lui", rd=rd, imm=imm),
              st.sampled_from(REGS), st.integers(0, 0xFFFFF)),
)
mem_instr = st.one_of(
    st.builds(lambda op, rd, imm: Instr(op, rd=rd, rs1=0, imm=imm),
              st.sampled_from(_LOADS), st.sampled_from(REGS),
              st.integers(0, MEM_BYTES - 8)),
    st.builds(lambda op, rs2, imm: Instr(op, rs2=rs2, rs1=0, imm=imm),
              st.sampled_from(_STORES), st.sampled_from(REGS),
              st.integers(0, MEM_BYTES - 8)),
)
stream_instr = st.one_of(
    st.builds(lambda rd, sid, w: Instr("sload", rd=rd, sid=sid, width=w),
              st.sampled_from(REGS), st.integers(0, 3),
              st.sampled_from((1, 2, 4))),
    st.builds(lambda sid, imm: Instr("sskip", sid=sid, imm=imm),
              st.integers(0, 3), st.integers(1, 8)),
    st.builds(lambda rs2, sid, w: Instr("sstore", rs2=rs2, sid=sid, width=w),
              st.sampled_from(REGS), st.integers(0, 3),
              st.sampled_from((1, 2, 4))),
    st.builds(lambda rd, sid: Instr("savail", rd=rd, sid=sid),
              st.sampled_from(REGS), st.integers(0, 3)),
    st.builds(lambda rd, sid: Instr("seos", rd=rd, sid=sid),
              st.sampled_from(REGS), st.integers(0, 3)),
)
any_instr = st.one_of(alu_instr, mem_instr, stream_instr)
reg_seeds = st.lists(
    st.tuples(st.sampled_from(REGS), st.integers(0, 0xFFFFFFFF)),
    max_size=8)
stream_payloads = st.lists(st.binary(max_size=96), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.lists(any_instr, min_size=1, max_size=40), reg_seeds,
       stream_payloads)
def test_straightline_programs_bit_identical(instrs, seeds, stream_data):
    program = Program("hyp", tuple(instrs) + (Instr("halt"),))
    assert_engines_agree(program, seeds, b"", stream_data)


@settings(max_examples=80, deadline=None)
@given(st.lists(any_instr, min_size=1, max_size=12), st.integers(1, 6),
       reg_seeds, stream_payloads)
def test_counter_loops_bit_identical(body, count, seeds, stream_data):
    """Backward branches: superblock re-entry each iteration."""
    instrs = ([Instr("addi", rd=28, rs1=0, imm=count)] + body
              + [Instr("addi", rd=28, rs1=28, imm=-1),
                 Instr("bne", rs1=28, rs2=0, imm=1),
                 Instr("halt")])
    assert_engines_agree(Program("hyploop", tuple(instrs)), seeds, b"",
                         stream_data)


# ---------------------------------------------------------------------------
# Targeted trap-boundary cases.
# ---------------------------------------------------------------------------

def test_fall_off_end_traps_identically():
    program = Program("falloff", (Instr("addi", rd=1, rs1=0, imm=5),))
    assert_engines_agree(program)


def test_branch_to_program_length_traps_identically():
    program = Program("branchoff", (Instr("beq", rs1=0, rs2=0, imm=3),
                                    Instr("halt")))
    assert_engines_agree(program)


def test_memory_fault_traps_identically():
    program = Program("oob", (Instr("lui", rd=5, imm=0x80000),
                              Instr("lw", rd=6, rs1=5, imm=0),
                              Instr("halt")))
    assert_engines_agree(program)


def test_unresolvable_stall_traps_identically():
    program = Program("stall", (Instr("sload", rd=5, sid=0, width=4),
                                Instr("halt")))
    assert_engines_agree(program, stream_data=(b"",), open_streams=(0,))


def test_trailing_partial_element_traps_identically():
    # 3 bytes buffered but a 4-byte sload: permanent underflow stall (the
    # firmware pads real streams), reported identically by both engines.
    program = Program("partial", (Instr("sload", rd=5, sid=0, width=4),
                                  Instr("halt")))
    assert_engines_agree(program, stream_data=(b"abc",))


def test_empty_drained_stream_is_eos():
    program = Program("eos", (Instr("sload", rd=5, sid=0, width=4),
                              Instr("halt")))
    assert_engines_agree(program, stream_data=(b"",))


def test_output_overflow_stall_traps_identically():
    cap = SB_CFG.pages_per_stream * SB_CFG.page_bytes
    instrs = ([Instr("addi", rd=7, rs1=0, imm=1)]
              + [Instr("sstore", rs2=7, sid=0, width=4)] * (cap // 4 + 1)
              + [Instr("halt")])
    assert_engines_agree(Program("ovf", tuple(instrs)))


@pytest.mark.parametrize("instr", [
    Instr("sload", rd=5, sid=0, width=4),
    Instr("sskip", sid=0, imm=3),
    Instr("savail", rd=0, sid=0),
    Instr("seos", rd=2, sid=1),
    Instr("sstore", rs2=1, sid=0, width=4),
], ids=lambda instr: instr.op)
def test_missing_stream_set_traps_identically(instr):
    """A stream op on an interpreter given no stream sets traps like the
    reference, with the PC on the stream op and nothing of it retired."""
    program = Program("nostreams", (Instr("addi", rd=1, rs1=0, imm=3), instr,
                                    Instr("halt")))
    states = []
    for fast in (False, True):
        interp = Interpreter(program, FlatMemory(MEM_BYTES))
        with pytest.raises(ExecutionError, match="streams but none attached"):
            FastEngine(program).run(interp) if fast else interp.run()
        states.append((interp.pc, interp.steps, interp.regs.snapshot(),
                       dict(interp.instr_counts)))
    assert states[0] == states[1]


@pytest.mark.parametrize("instr", [
    Instr("sstore", rs2=1, sid=SB_CFG.num_streams + 2, width=4),
    Instr("savail", rd=0, sid=SB_CFG.num_streams + 2),
], ids=lambda instr: instr.op)
def test_stream_id_out_of_range_traps_identically(instr):
    """A stream id the set lacks raises the set's ``StreamError`` on both
    engines, even for a store (not an output-full stall) or an x0 probe."""
    assert_engines_agree(Program("badsid", (instr, Instr("halt"))))


def test_strict_mode_matches_core_model_stall_error():
    program = Program("strict", (Instr("sload", rd=5, sid=0, width=4),
                                 Instr("halt"),))
    mem = FlatMemory(MEM_BYTES)
    ins = StreamBufferSet(SB_CFG, "input")
    outs = StreamBufferSet(SB_CFG, "output")
    interp = Interpreter(program, mem, in_streams=ins, out_streams=outs)
    with pytest.raises(ExecutionError,
                       match="unresolved stream stall at pc=0"):
        FastEngine(program).run(interp, strict_stalls=True)


def test_finished_program_run_is_noop():
    program = Program("done", (Instr("halt"),))
    interp = Interpreter(program, FlatMemory(MEM_BYTES))
    engine = FastEngine(program)
    engine.run(interp)
    assert interp.halted and interp.steps == 1
    engine.run(interp)  # reference run() is a no-op on a finished program
    assert interp.steps == 1


def test_engine_rejects_foreign_interpreter():
    engine = FastEngine(Program("a", (Instr("halt"),)))
    other = Interpreter(Program("b", (Instr("halt"),)), FlatMemory(64))
    with pytest.raises(ExecutionError, match="different program"):
        engine.run(other)


def test_run_summary_matches_reference_summary():
    from collections import Counter

    from repro.isa.interpreter import RunSummary

    program = Program("sum", (Instr("addi", rd=1, rs1=0, imm=3),
                              Instr("mul", rd=2, rs1=1, rs2=1),
                              Instr("halt")))
    ref = Interpreter(program, FlatMemory(64))
    expected = ref.run()
    fast = Interpreter(program, FlatMemory(64))
    FastEngine(program).run(fast)
    assert RunSummary(
        steps=fast.steps,
        finished=fast.finished,
        halted=fast.halted,
        instr_counts=Counter(fast.instr_counts),
        stream_bytes_in=fast.stream_bytes_in,
        stream_bytes_out=fast.stream_bytes_out,
    ) == expected


def test_exceeded_max_steps_raises_like_reference():
    program = Program("spin", (Instr("beq", rs1=0, rs2=0, imm=0),))
    interp = Interpreter(program, FlatMemory(64))
    with pytest.raises(ExecutionError, match="exceeded max_steps=50"):
        FastEngine(program).run(interp, max_steps=50)
