"""The per-step timing oracle for :class:`repro.core.core.CoreModel`.

:class:`OracleCoreModel` drives :meth:`Interpreter.step` one instruction at
a time and prices each returned ``StepInfo`` with the plain per-kind cost
functions below (``cost_static`` / ``cost_predictive``): simple, per-step
observable, and the loop every golden ISA fingerprint was recorded with.
The production core model runs every kernel on the fast engine
(:mod:`repro.isa.fastpath`), which batches superblocks and folds counts at
sync time; the differential, fingerprint and core-model suites run the same
kernels through both and demand bit-identical cycles, stats, traces and
per-PC profiles. Only tests and benchmarks use it.
"""

from repro.core.core import PAGE_BYTES, CoreModel
from repro.core.coster import instr_reads
from repro.errors import ExecutionError
from repro.isa.instructions import InstrKind
from repro.isa.interpreter import StepKind
from repro.mem.hierarchy import AccessType


def cost_static(pipeline, info, cycle):
    """Cycles of one step under the static model (>= 1 when executed)."""
    p = pipeline.params
    stats = pipeline.stats
    cycles = 1.0
    kind = info.kind
    if kind is InstrKind.MUL:
        cycles += p.mul_extra_cycles
        stats.muldiv_extra_cycles += p.mul_extra_cycles
    elif kind is InstrKind.DIV:
        cycles += p.div_extra_cycles
        stats.muldiv_extra_cycles += p.div_extra_cycles
    elif kind is InstrKind.BRANCH:
        if info.branch_taken:
            cycles += p.taken_branch_penalty
            stats.branch_penalty_cycles += p.taken_branch_penalty
    elif kind is InstrKind.JUMP:
        cycles += p.jump_penalty
        stats.branch_penalty_cycles += p.jump_penalty
    elif kind in (InstrKind.LOAD, InstrKind.STORE) and info.mem_addr is not None:
        access = AccessType.STORE if info.mem_is_write else AccessType.LOAD
        result = pipeline.hierarchy.access(
            pc=info.pc, addr=info.mem_addr, size=info.mem_size, access=access, cycle=cycle
        )
        cycles += result.stall_cycles
    elif kind in (InstrKind.STREAM_LOAD, InstrKind.STREAM_STORE):
        cycles += p.stream_head_extra
    # The base cycle is compute; memory stalls were already booked into the
    # hierarchy's buckets, and the stream-head extra is a stream-buffer cost.
    pipeline.hierarchy.add_compute_cycles(1.0)
    if kind in (InstrKind.MUL, InstrKind.DIV, InstrKind.BRANCH, InstrKind.JUMP):
        # Occupancy/redirect bubbles are compute-side cycles, not memory.
        pipeline.hierarchy.add_compute_cycles(cycles - 1.0)
    stats.cycles_by_kind[kind] = stats.cycles_by_kind.get(kind, 0.0) + cycles
    return cycles


def cost_predictive(pipeline, info, cycle):
    """Cycles of one step under the predictive model's stateful coster."""
    c = pipeline.coster
    stats = pipeline.stats
    kind = info.kind
    instr = info.instr
    reads = instr_reads(instr)
    cycles = 1.0
    mem_stall = 0.0
    stream_extra = 0.0
    if kind is InstrKind.MUL:
        extra, hz = c.mul(reads)
        cycles += extra + hz
        stats.muldiv_extra_cycles += extra
    elif kind is InstrKind.DIV:
        a, b = info.operands
        extra, hz = c.div(reads, a, b, instr.op in ("div", "rem"))
        cycles += extra + hz
        stats.muldiv_extra_cycles += extra
    elif kind is InstrKind.BRANCH:
        penalty, hz, mispredicted = c.branch(info.pc, reads, info.branch_taken, instr.imm)
        cycles += penalty + hz
        stats.branch_penalty_cycles += penalty
        if mispredicted:
            stats.branch_mispredicts += 1
    elif kind is InstrKind.JUMP:
        penalty, hz = c.jump(info.pc, reads, info.branch_target)
        cycles += penalty + hz
        stats.branch_penalty_cycles += penalty
    elif kind in (InstrKind.LOAD, InstrKind.STORE) and info.mem_addr is not None:
        hz = c.mem(reads, 0 if info.mem_is_write else instr.rd)
        access = AccessType.STORE if info.mem_is_write else AccessType.LOAD
        result = pipeline.hierarchy.access(
            pc=info.pc, addr=info.mem_addr, size=info.mem_size, access=access, cycle=cycle
        )
        mem_stall = result.stall_cycles
        cycles += hz + mem_stall
    elif kind is InstrKind.STREAM_LOAD:
        hz = c.stream_load(reads, instr.rd if instr.op == "sload" else 0)
        stream_extra = pipeline.params.stream_head_extra
        cycles += hz + stream_extra
    elif kind is InstrKind.STREAM_STORE:
        hz = c.simple(reads)
        stream_extra = pipeline.params.stream_head_extra
        cycles += hz + stream_extra
    else:  # ALU / STREAM_CTRL / SYSTEM
        hz = c.simple(reads)
        cycles += hz
    if hz:
        stats.hazard_stall_cycles += hz
    # Hazard bubbles, unit occupancy and redirect penalties are compute-side;
    # memory stalls were booked by the hierarchy and the stream-head extra
    # stays a memory-structure cost, as in the static model.
    pipeline.hierarchy.add_compute_cycles(cycles - mem_stall - stream_extra)
    stats.cycles_by_kind[kind] = stats.cycles_by_kind.get(kind, 0.0) + cycles
    return cycles


def run_steps(interp, pipeline, clock, input_region=None, profiler=None):
    """Step ``interp`` to completion, charging ``clock`` one step at a time.

    Returns first-touch cycles per page-aligned address of ``input_region``
    (DRAM-staged runs), like ``CoreModel._execute``.
    """
    cost = cost_static if pipeline.coster.is_static else cost_predictive
    first_touch = {}
    region = input_region
    while not interp.finished:
        info = interp.step()
        if info.step is StepKind.STREAM_STALL:
            raise ExecutionError(
                f"unresolved stream stall at pc={info.pc}: firmware hooks missing"
            )
        if info.step is StepKind.STREAM_EOS:
            break
        cycles = cost(pipeline, info, clock.cycle)
        clock.cycle += cycles
        if profiler is not None:
            profiler.add(info.pc, 1, cycles)
        if region is not None and info.mem_addr is not None and not info.mem_is_write:
            if region.start <= info.mem_addr < region.stop:
                page_addr = info.mem_addr - (info.mem_addr - region.start) % PAGE_BYTES
                if page_addr not in first_touch:
                    first_touch[page_addr] = clock.cycle
    return first_touch


class OracleCoreModel(CoreModel):
    """:class:`CoreModel` executing every kernel through :func:`run_steps`."""

    def _execute(self, interp, pipeline, clock, input_region=None):
        return run_steps(interp, pipeline, clock, input_region, self.profiler)
