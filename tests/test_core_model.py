"""Tests for the pipeline timing model, CoreModel behaviours, and UDP lane."""

from types import SimpleNamespace

import pytest

from repro.config import (
    assasin_sb_core,
    assasin_sp_core,
    baseline_core,
    prefetch_core,
    udp_core,
)
from repro.core.core import CoreModel, PageTouch
from repro.core.pipeline import PipelineModel, PipelineParams
from repro.core.udp import UDP_ISA_FACTORS, UDPLaneModel
from repro.errors import KernelError
from repro.isa.fastpath import FastEngine
from repro.isa.interpreter import Interpreter
from repro.isa.program import Asm
from repro.kernels import get_kernel
from repro.mem.hierarchy import build_hierarchy
from repro.mem.memory import FlatMemory

from tests.core_oracle import run_steps

SIZE = 16 * 1024


def run_timed(asm, core=None, params=PipelineParams()):
    """Time a small program with the per-step oracle; returns cycles.

    The fast engine must charge the same cycles and stats.
    """
    runs = []
    for fast in (False, True):
        pipeline = PipelineModel(build_hierarchy(core or baseline_core()), params)
        program = asm.build()
        interp = Interpreter(program, FlatMemory(4096))
        clock = SimpleNamespace(cycle=0.0)
        if fast:
            FastEngine(program, params).run(interp, pipeline=pipeline, clock=clock)
        else:
            run_steps(interp, pipeline, clock)
        runs.append((clock.cycle, pipeline))
    (cycles, pipeline), (fast_cycles, fast_pipeline) = runs
    assert (fast_cycles, fast_pipeline.stats) == (cycles, pipeline.stats)
    return cycles, pipeline


def test_alu_program_is_one_ipc():
    a = Asm("alu")
    for i in range(50):
        a.addi("t0", "t0", 1)
    a.halt()
    cycles, _ = run_timed(a)
    assert cycles == pytest.approx(51)  # 50 ALU + halt


def test_mul_div_occupancy():
    a = Asm("muldiv")
    a.li("t0", 6).li("t1", 3)
    a.mul("t2", "t0", "t1")
    a.divu("t3", "t0", "t1")
    a.halt()
    cycles, pipeline = run_timed(a)
    # 2 li + mul(1+2) + div(1+11) + halt = 2 + 3 + 12 + 1
    assert cycles == pytest.approx(18)
    assert pipeline.stats.muldiv_extra_cycles == pytest.approx(13)


def test_taken_branch_penalty():
    a = Asm("br")
    a.li("t0", 10)
    a.label("loop")
    a.addi("t0", "t0", -1)
    a.bnez("t0", "loop")
    a.halt()
    cycles, pipeline = run_timed(a)
    # li + 10*(addi + bnez) + halt; 9 taken branches pay +1 each.
    assert cycles == pytest.approx(1 + 20 + 9 + 1)
    assert pipeline.stats.branch_penalty_cycles == pytest.approx(9)


def test_memory_stalls_flow_through():
    a = Asm("mem")
    a.li("t0", 0x100)
    a.lw("t1", "t0", 0)  # cold miss
    a.lw("t2", "t0", 4)  # same line: L1 hit
    a.halt()
    cycles, _ = run_timed(a)
    assert cycles == pytest.approx(1 + (1 + 72) + 1 + 1)


def test_core_model_rejects_wrong_input_count():
    kernel = get_kernel("raid4", k=4)
    with pytest.raises(KernelError):
        CoreModel(assasin_sb_core()).run(kernel, [b"only-one" * 4])


def test_page_touches_monotonic_stream():
    kernel = get_kernel("stat")
    result = CoreModel(assasin_sb_core()).run(kernel, kernel.make_inputs(SIZE))
    touches = [t for t in result.page_touches if t.stream == 0]
    pages = [t.page for t in touches]
    assert pages == sorted(pages)
    needs = [t.needed_cycle for t in touches]
    assert needs == sorted(needs)
    # With P=2 buffering, page k's request slot frees one page earlier.
    assert all(t.requested_cycle <= t.needed_cycle for t in touches)


def test_page_touches_cover_all_pages():
    kernel = get_kernel("stat")
    result = CoreModel(assasin_sb_core()).run(kernel, kernel.make_inputs(SIZE))
    assert len({t.page for t in result.page_touches}) == SIZE // 4096


def test_dram_config_paths_differ_in_traffic():
    kernel = get_kernel("stat")
    inputs = kernel.make_inputs(SIZE)
    base = CoreModel(baseline_core()).run(kernel, inputs)
    sb = CoreModel(assasin_sb_core()).run(kernel, inputs)
    assert base.dram_traffic.total > 0
    assert sb.dram_traffic.total == 0


def test_prefetch_reduces_cycles_on_streaming():
    kernel = get_kernel("stat")
    inputs = kernel.make_inputs(SIZE)
    base = CoreModel(baseline_core()).run(kernel, inputs)
    pf = CoreModel(prefetch_core()).run(kernel, inputs)
    assert pf.cycles < base.cycles


def test_stream_isa_saves_cycles_on_multistream():
    kernel = get_kernel("raid4", k=4)
    inputs = kernel.make_inputs(SIZE)
    sp = CoreModel(assasin_sp_core()).run(kernel, inputs)
    sb = CoreModel(assasin_sb_core()).run(kernel, inputs)
    # Paper: ~10% from eliminating pointer management (Section VI-B).
    assert 1.05 <= sp.cycles / sb.cycles <= 1.35


def test_udp_lane_applies_isa_factor():
    kernel = get_kernel("parse")
    inputs = kernel.make_inputs(SIZE)
    plain = CoreModel(udp_core()).run(kernel, inputs)
    lane = UDPLaneModel().run(kernel, inputs)
    factor = kernel.udp_isa_factor
    assert lane.cycles == pytest.approx(plain.cycles * factor, rel=0.01)
    assert lane.config_name == "UDP"


def test_udp_factors_favour_unstructured_parsing():
    assert UDP_ISA_FACTORS["parse"] < UDP_ISA_FACTORS["stat"]


def test_udp_lane_charges_staging_traffic():
    kernel = get_kernel("stat")
    inputs = kernel.make_inputs(SIZE)
    lane = UDPLaneModel()
    result = lane.run(kernel, inputs)
    assert result.dram_traffic.core_fill >= result.bytes_in


def test_compute_intensity_ordering():
    """Paper Section VI-B: Stat/RAID4 < RAID6 < AES in ops per byte."""
    cpbs = {}
    for name, size in (("stat", SIZE), ("raid4", SIZE), ("raid6", 8192), ("aes", 2048)):
        kernel = get_kernel(name)
        result = CoreModel(assasin_sb_core()).run(kernel, kernel.make_inputs(size))
        cpbs[name] = result.cycles_per_byte
    assert cpbs["stat"] < cpbs["raid6"] < cpbs["aes"]
    assert cpbs["raid4"] < cpbs["raid6"]
