"""Predecoding fast-path execution engine for the stream ISA.

The reference :class:`~repro.isa.interpreter.Interpreter` (the ISA's
functional spec) pays a fixed toll per instruction: a ``StepInfo``
allocation, a dict dispatch, a ``kind_of`` lookup, a ``Counter`` update,
and then a multi-branch per-step cost function. Every experiment, kernel,
fault campaign and serve workload runs kernels, so that toll would bound
the whole reproduction — exactly the instruction-per-byte sensitivity the
paper's evaluation (§VI) is about.

:class:`FastEngine` removes the toll the way mature ISA simulators do
(Gem5's decode cache, MQSim's precomputed transaction paths):

* **Predecoding** — each :class:`~repro.isa.program.Program` is compiled
  once into closure-based decoded ops. All field extraction (``rd``,
  ``rs1``, immediates, stream widths) and opcode dispatch happens at
  compile time; executing an ALU op is a single closure call that mutates
  the raw register list.
* **Superblocks** — maximal straight-line runs of statically-costed ops
  (ALU/MUL/DIV/LUI) are executed back to back with a *single* cycle and
  telemetry accounting update per run, instead of one per instruction.
  Runs are formed lazily from every reached entry PC, so backward-branch
  targets (the streaming ``StreamLoad``→compute→``StreamStore`` inner
  loop) become one straight-line dash per iteration.
* **Exact accounting** — retirement counts are tracked per *entry* PC and
  folded back into per-instruction counts with a flow recurrence at sync
  time; the batched cycle sums are integers by construction
  (``PipelineParams`` rejects non-integer latencies), so the floating-point
  cycle totals, stall buckets and per-kind stats are **bit-identical** to
  a per-step interpreter loop (the timing oracle in the test suite), not
  just close.

Semantics that cannot be batched are not batched: DRAM-space loads/stores
call the memory hierarchy with the exact intermediate cycle (cache fill
times and prefetcher timestamps depend on it), and stream ops keep the
shared clock current so firmware refill hooks record the same page-needed
cycles. A scratchpad or ping-pong access costs a constant per pad and
width, so it is timed by one range check and counted per PC; the counts
are folded into the pads' stats at sync time.

This is the only engine the core model runs. An attached
:class:`~repro.telemetry.profiler.IsaProfiler` is fed per PC at sync time
from the same flow-recurrence counts, the compile-time costs, and one
per-PC accumulator of the costs only known at run time. Traps
(out-of-range PC, memory faults, unresolvable stream stalls) raise the
interpreter's exception types with architectural state synced, so error
paths are differential-testable too.
"""

from __future__ import annotations

from struct import Struct, calcsize
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import PIPELINE_MODELS
from repro.errors import ExecutionError, StreamError
from repro.isa.instructions import InstrKind, instr_reads, kind_of
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program
from repro.mem.hierarchy import AccessType

_MASK32 = 0xFFFFFFFF

# Sentinel next-PC values returned by dynamic ops (real PCs are >= 0).
_HALT = -1
_STALL = -2
_EOS = -3

#: First-touch page granularity of the core model's DRAM-staged I/O trace.
_PAGE_BYTES = 4096

#: Little-endian ``struct`` format of each load and store.
_MEM_FORMATS = {"lb": "<b", "lbu": "<B", "lh": "<h", "lhu": "<H", "lw": "<I",
                "sb": "<B", "sh": "<H", "sw": "<I"}

#: Window bounds of a pad the hierarchy does not have: 32-bit addresses
#: never reach them.
_NO_PAD = 1 << 32

#: Instruction kinds whose cost is a compile-time constant: these form the
#: superblock bodies. Everything else is a block-terminating dynamic op.
_STATIC_KINDS = (InstrKind.ALU, InstrKind.MUL, InstrKind.DIV)


class _NullClock:
    """Stands in for the core model's clock in functional-only runs."""

    __slots__ = ("cycle",)

    def __init__(self) -> None:
        self.cycle = 0.0


class _Ctx:
    """Mutable run context shared by the dynamic-op closures."""

    __slots__ = (
        "regs",
        "memory",
        "buf",
        "mem_size",
        "in_streams",
        "out_streams",
        "clock",
        "hierarchy",
        "stats",
        "coster",
        "region",
        "first_touch",
        "taken",
        "aborted",
        "pc_cycles",
        "sp_lo",
        "sp_hi",
        "sp_stall",
        "sp_hits",
        "pp_lo",
        "pp_hi",
        "pp_half",
        "pp_stall",
        "pp_hits",
        "mem_cycles",
    )


def _signed(value: int) -> int:
    return value - 0x100000000 if value & 0x80000000 else value


def _pad_stalls(pad) -> List[int]:
    """Stall cycles of a pad access, indexed by its width in bytes."""
    return [0] + [pad.access_latency(width) - 1 for width in range(1, 5)]


class FastEngine:
    """Executes one compiled :class:`Program`, bit-exact with the reference.

    An engine is compiled once per ``(program, pipeline params)`` pair and
    may run any number of interpreters over it (the chunked memory path
    resets the interpreter between chunks but reuses the decoded program).
    Pass ``params=None`` for functional-only runs with no cycle accounting
    (the :meth:`run` ``pipeline``/``clock`` arguments must then be omitted).
    """

    def __init__(self, program: Program, params=None, model: str = "static") -> None:
        self.program = program
        self.params = params
        self.model = model
        if model not in PIPELINE_MODELS:
            raise ExecutionError(f"unknown pipeline model {model!r}")
        # Predictive timing depends on run-time predictor/hazard state, so
        # every op prices itself live through the run's coster instead of
        # folding compile-time constants.
        self._dyncost = model == "predictive"
        n = len(program.instrs)
        self.n = n
        if params is not None and not self._dyncost:
            # Integers by PipelineParams validation: batched sums stay exact.
            self._mul_extra = params.mul_extra_cycles
            self._div_extra = params.div_extra_cycles
            self._taken_pen = params.taken_branch_penalty
            self._jump_pen = params.jump_penalty
            self._stream_extra = params.stream_head_extra
        else:
            self._mul_extra = self._div_extra = 0
            self._taken_pen = self._jump_pen = self._stream_extra = 0
        self.kinds: List[InstrKind] = [kind_of(i.op) for i in program.instrs]
        self.static: List[bool] = [k in _STATIC_KINDS for k in self.kinds]
        # Compile-time cycles of one retirement (a taken branch adds its
        # penalty on top). ``_live`` marks the PCs whose cost is only known
        # at run time: loads/stores, and every op under predictive timing.
        fixed = {
            InstrKind.MUL: self._mul_extra,
            InstrKind.DIV: self._div_extra,
            InstrKind.JUMP: self._jump_pen,
            InstrKind.STREAM_LOAD: self._stream_extra,
            InstrKind.STREAM_STORE: self._stream_extra,
        }
        self._cost: List[int] = [1 + fixed.get(k, 0) for k in self.kinds]
        self._live: List[bool] = [
            self._dyncost or k in (InstrKind.LOAD, InstrKind.STORE)
            for k in self.kinds
        ]
        #: Bytes moved by each load/store (0 elsewhere), for the pad fold.
        self._mem_size: List[int] = [
            calcsize(_MEM_FORMATS[i.op]) if i.op in _MEM_FORMATS else 0
            for i in program.instrs
        ]
        self._sfn: List[Optional[Callable]] = [None] * n
        self._dfn: List[Optional[Callable]] = [None] * n
        self._pfn: List[Optional[Callable]] = [None] * n
        for pc, instr in enumerate(program.instrs):
            if self.static[pc]:
                self._sfn[pc] = self._compile_static(instr)
                if self._dyncost:
                    self._pfn[pc] = self._compile_costed(pc, instr)
            elif instr.op in _MEM_FORMATS:
                self._dfn[pc] = self._compile_mem(pc, instr)
            elif self._dyncost:
                self._dfn[pc] = self._compile_dynamic_predictive(pc, instr)
            else:
                self._dfn[pc] = self._compile_dynamic(pc, instr)
        # Lazily-built superblock runs: entry pc -> (body, cost, nbody, dyn_pc).
        self._runs: List[Optional[Tuple[tuple, float, int, int]]] = [None] * n

    # ------------------------------------------------------------- compile --

    def _compile_static(self, i) -> Callable:
        """One straight-line op as a closure over the raw register list.

        The closures reproduce :meth:`Interpreter._build_dispatch` handler
        semantics exactly (including x0 discard and 32-bit write masking).
        """
        op, rd, rs1, rs2, imm = i.op, i.rd, i.rs1, i.rs2, i.imm
        if rd == 0:
            # Writes to x0 are discarded and no static op has side effects,
            # so the whole instruction decays to a retired-but-inert slot.
            return lambda R: None
        if op == "add":
            return lambda R: R.__setitem__(rd, (R[rs1] + R[rs2]) & _MASK32)
        if op == "sub":
            return lambda R: R.__setitem__(rd, (R[rs1] - R[rs2]) & _MASK32)
        if op == "and":
            return lambda R: R.__setitem__(rd, R[rs1] & R[rs2])
        if op == "or":
            return lambda R: R.__setitem__(rd, R[rs1] | R[rs2])
        if op == "xor":
            return lambda R: R.__setitem__(rd, R[rs1] ^ R[rs2])
        if op == "sll":
            return lambda R: R.__setitem__(rd, (R[rs1] << (R[rs2] & 31)) & _MASK32)
        if op == "srl":
            return lambda R: R.__setitem__(rd, R[rs1] >> (R[rs2] & 31))
        if op == "sra":
            return lambda R: R.__setitem__(
                rd, (_signed(R[rs1]) >> (R[rs2] & 31)) & _MASK32
            )
        if op == "slt":
            return lambda R: R.__setitem__(rd, int(_signed(R[rs1]) < _signed(R[rs2])))
        if op == "sltu":
            return lambda R: R.__setitem__(rd, int(R[rs1] < R[rs2]))
        if op == "mul":
            return lambda R: R.__setitem__(
                rd, (_signed(R[rs1]) * _signed(R[rs2])) & _MASK32
            )
        if op == "mulh":
            return lambda R: R.__setitem__(
                rd, ((_signed(R[rs1]) * _signed(R[rs2])) >> 32) & _MASK32
            )
        if op == "mulhu":
            return lambda R: R.__setitem__(rd, (R[rs1] * R[rs2]) >> 32)
        if op == "mulhsu":
            return lambda R: R.__setitem__(
                rd, ((_signed(R[rs1]) * R[rs2]) >> 32) & _MASK32
            )
        if op == "div":

            def _div(R):
                a, b = _signed(R[rs1]), _signed(R[rs2])
                if b == 0:
                    R[rd] = _MASK32
                    return
                q = abs(a) // abs(b)
                R[rd] = (-q if (a < 0) != (b < 0) else q) & _MASK32

            return _div
        if op == "divu":
            return lambda R: R.__setitem__(
                rd, _MASK32 if R[rs2] == 0 else R[rs1] // R[rs2]
            )
        if op == "rem":

            def _rem(R):
                a, b = _signed(R[rs1]), _signed(R[rs2])
                if b == 0:
                    R[rd] = a & _MASK32
                    return
                m = abs(a) % abs(b)
                R[rd] = (-m if a < 0 else m) & _MASK32

            return _rem
        if op == "remu":
            return lambda R: R.__setitem__(
                rd, R[rs1] if R[rs2] == 0 else R[rs1] % R[rs2]
            )
        if op == "addi":
            return lambda R: R.__setitem__(rd, (R[rs1] + imm) & _MASK32)
        uimm = imm & _MASK32
        if op == "andi":
            return lambda R: R.__setitem__(rd, R[rs1] & uimm)
        if op == "ori":
            return lambda R: R.__setitem__(rd, R[rs1] | uimm)
        if op == "xori":
            return lambda R: R.__setitem__(rd, R[rs1] ^ uimm)
        if op == "slli":
            return lambda R: R.__setitem__(rd, (R[rs1] << imm) & _MASK32)
        if op == "srli":
            return lambda R: R.__setitem__(rd, R[rs1] >> imm)
        if op == "srai":
            return lambda R: R.__setitem__(rd, (_signed(R[rs1]) >> imm) & _MASK32)
        if op == "slti":
            return lambda R: R.__setitem__(rd, int(_signed(R[rs1]) < imm))
        if op == "sltiu":
            return lambda R: R.__setitem__(rd, int(R[rs1] < uimm))
        if op == "lui":
            value = (imm << 12) & _MASK32
            return lambda R: R.__setitem__(rd, value)
        raise ExecutionError(f"no static decoder for opcode {op!r}")

    def _compile_mem(self, pc: int, i) -> Callable:
        """A load or store, under either timing model.

        The bytes move with ``struct`` after :meth:`FlatMemory.check`'s
        bounds test. The timing is one range check against the run's pad
        windows (see :meth:`_bind_pads`): a scratchpad or ping-pong access
        stalls its pad's constant for this width and bumps this PC's tally,
        which :meth:`_sync` folds into the pad's stats and the scratchpad
        stall bucket. Only a DRAM-space access calls
        :meth:`MemoryHierarchy.access`, whose cache outcome depends on the
        cycle. The load/store cycles add up in one running float per kind,
        in the same order as the per-step loop's per-kind sums.
        """
        op, rd, rs1, rs2, imm = i.op, i.rd, i.rs1, i.rs2, i.imm
        is_store = self.kinds[pc] is InstrKind.STORE
        codec = Struct(_MEM_FORMATS[op])
        size = codec.size
        pack, unpack = codec.pack_into, codec.unpack_from
        mask = (1 << (8 * size)) - 1
        access = AccessType.STORE if is_store else AccessType.LOAD
        dest = 0 if is_store else rd  # the load-use hazard's destination
        dyncost = self._dyncost
        reads = instr_reads(i)
        pcp1 = pc + 1

        def _mem(ctx):
            R = ctx.regs
            addr = (R[rs1] + imm) & _MASK32
            if addr + size > ctx.mem_size:
                ctx.memory.check(addr, size)
            if is_store:
                pack(ctx.buf, addr, R[rs2] & mask)
            elif rd:
                R[rd] = unpack(ctx.buf, addr)[0] & _MASK32
            h = ctx.hierarchy
            if h is None:
                return pcp1
            hz = ctx.coster.mem(reads, dest) if dyncost else 0
            if ctx.sp_lo <= addr and addr + size <= ctx.sp_hi:
                stall = ctx.sp_stall[size]
                ctx.sp_hits[pc] += 1
            elif (
                ctx.pp_lo <= addr
                and addr + size <= ctx.pp_hi
                and (addr - ctx.pp_lo) % ctx.pp_half + size <= ctx.pp_half
            ):
                stall = ctx.pp_stall[size]
                ctx.pp_hits[pc] += 1
            else:
                stall = h.access(pc, addr, size, access, ctx.clock.cycle).stall_cycles
            cost = 1.0 + (hz + stall)
            if dyncost:
                if hz:
                    ctx.stats.hazard_stall_cycles += hz
                h.add_compute_cycles(cost - stall)
            ctx.mem_cycles[is_store] += cost
            ctx.clock.cycle += cost
            ctx.pc_cycles[pc] += cost
            if not is_store:
                region = ctx.region
                if region is not None and region.start <= addr < region.stop:
                    page_addr = addr - (addr - region.start) % _PAGE_BYTES
                    if page_addr not in ctx.first_touch:
                        ctx.first_touch[page_addr] = ctx.clock.cycle
            return pcp1

        return _mem

    def _compile_dynamic(self, pc: int, i) -> Callable:
        """Block terminators: control flow, streams, halt.

        Each closure performs its own live cycle/stats accounting (the part
        that depends on runtime state) and returns the next PC or a
        negative sentinel.
        """
        op, rd, rs1, rs2, imm = i.op, i.rd, i.rs1, i.rs2, i.imm
        kind = self.kinds[pc]
        pcp1 = pc + 1
        if kind is InstrKind.BRANCH:
            taken_cost = 1.0 + self._taken_pen
            if op == "beq":
                cond = lambda a, b: a == b  # noqa: E731
            elif op == "bne":
                cond = lambda a, b: a != b  # noqa: E731
            elif op == "blt":
                cond = lambda a, b: _signed(a) < _signed(b)  # noqa: E731
            elif op == "bge":
                cond = lambda a, b: _signed(a) >= _signed(b)  # noqa: E731
            elif op == "bltu":
                cond = lambda a, b: a < b  # noqa: E731
            else:  # bgeu
                cond = lambda a, b: a >= b  # noqa: E731

            def _branch(ctx):
                R = ctx.regs
                if cond(R[rs1], R[rs2]):
                    ctx.taken[pc] += 1
                    ctx.clock.cycle += taken_cost
                    return imm
                ctx.clock.cycle += 1.0
                return pcp1

            return _branch
        if op == "jal":
            jump_cost = 1.0 + self._jump_pen

            def _jal(ctx):
                if rd:
                    ctx.regs[rd] = pcp1
                ctx.clock.cycle += jump_cost
                return imm

            return _jal
        if op == "jalr":
            jump_cost = 1.0 + self._jump_pen

            def _jalr(ctx):
                R = ctx.regs
                target = (R[rs1] + imm) & _MASK32
                if rd:
                    R[rd] = pcp1
                ctx.clock.cycle += jump_cost
                return target

            return _jalr
        if op == "halt":

            def _halt(ctx):
                ctx.clock.cycle += 1.0
                return _HALT

            return _halt
        stream_cost = 1.0 + self._stream_extra
        sid, width = i.sid, i.width
        if op == "sload":

            def _sload(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                stream = ins[sid]
                data = stream.consume(width)
                if data is None:
                    ctx.aborted[pc] += 1
                    return _EOS if stream.exhausted else _STALL
                if rd:
                    ctx.regs[rd] = int.from_bytes(data, "little")
                ctx.clock.cycle += stream_cost
                return pcp1

            return _sload
        if op == "sskip":

            def _sskip(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                stream = ins[sid]
                if stream.consume(imm) is None:
                    ctx.aborted[pc] += 1
                    return _EOS if stream.exhausted else _STALL
                ctx.clock.cycle += stream_cost
                return pcp1

            return _sskip
        if op == "sstore":
            mask = (1 << (8 * width)) - 1

            def _sstore(ctx):
                outs = ctx.out_streams
                if outs is None:
                    raise ExecutionError(
                        "program uses output streams but none attached"
                    )
                value = ctx.regs[rs2] & mask
                try:
                    outs[sid].push(value.to_bytes(width, "little"))
                except StreamError:
                    ctx.aborted[pc] += 1
                    return _STALL
                ctx.clock.cycle += stream_cost
                return pcp1

            return _sstore
        if op == "savail":

            def _savail(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                if rd:
                    ctx.regs[rd] = ins[sid].available
                ctx.clock.cycle += 1.0
                return pcp1

            return _savail
        if op == "seos":

            def _seos(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                if rd:
                    ctx.regs[rd] = int(ins[sid].exhausted)
                ctx.clock.cycle += 1.0
                return pcp1

            return _seos
        raise ExecutionError(f"no dynamic decoder for opcode {op!r}")

    # ------------------------------------------------- predictive compile --

    def _compile_costed(self, pc: int, i) -> Callable:
        """Predictive-mode wrapper for a static-kind op: exec + live pricing.

        Superblocks still batch execution (one dispatcher round per
        straight-line run) but each op prices its own cycles through the
        run's coster — costs depend on predictor/hazard state, so there is
        no compile-time constant to fold. The expressions mirror the
        per-step predictive cost function of the timing oracle term for
        term, including float-addition order, so the two stay
        bit-identical even under fractional memory stalls.
        """
        exec_fn = self._sfn[pc]
        kind = self.kinds[pc]
        reads = instr_reads(i)
        if kind is InstrKind.MUL:

            def _mul(ctx):
                exec_fn(ctx.regs)
                st = ctx.stats
                if st is None:
                    return
                extra, hz = ctx.coster.mul(reads)
                cost = 1.0 + (extra + hz)
                st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                st.muldiv_extra_cycles += extra
                if hz:
                    st.hazard_stall_cycles += hz
                ctx.hierarchy.add_compute_cycles(cost)
                ctx.clock.cycle += cost
                ctx.pc_cycles[pc] += cost

            return _mul
        if kind is InstrKind.DIV:
            rs1, rs2 = i.rs1, i.rs2
            signed = i.op in ("div", "rem")

            def _divop(ctx):
                R = ctx.regs
                a, b = R[rs1], R[rs2]
                exec_fn(R)
                st = ctx.stats
                if st is None:
                    return
                extra, hz = ctx.coster.div(reads, a, b, signed)
                cost = 1.0 + (extra + hz)
                st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                st.muldiv_extra_cycles += extra
                if hz:
                    st.hazard_stall_cycles += hz
                ctx.hierarchy.add_compute_cycles(cost)
                ctx.clock.cycle += cost
                ctx.pc_cycles[pc] += cost

            return _divop

        def _alu(ctx):
            exec_fn(ctx.regs)
            st = ctx.stats
            if st is None:
                return
            hz = ctx.coster.simple(reads)
            cost = 1.0 + hz
            st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
            if hz:
                st.hazard_stall_cycles += hz
            ctx.hierarchy.add_compute_cycles(cost)
            ctx.clock.cycle += cost
            ctx.pc_cycles[pc] += cost

        return _alu

    def _compile_dynamic_predictive(self, pc: int, i) -> Callable:
        """Predictive-mode block terminators with live coster-priced costing.

        Execution semantics are identical to :meth:`_compile_dynamic`; only
        the accounting differs. Aborted outcomes (stream stall/EOS, traps)
        return before any coster call, keeping predictor/hazard state
        identical to a per-step loop, which never costs aborted steps.
        """
        op, rd, rs1, rs2, imm = i.op, i.rd, i.rs1, i.rs2, i.imm
        kind = self.kinds[pc]
        pcp1 = pc + 1
        reads = instr_reads(i)
        params = self.params
        stream_extra = params.stream_head_extra if params is not None else 0
        if kind is InstrKind.BRANCH:
            if op == "beq":
                cond = lambda a, b: a == b  # noqa: E731
            elif op == "bne":
                cond = lambda a, b: a != b  # noqa: E731
            elif op == "blt":
                cond = lambda a, b: _signed(a) < _signed(b)  # noqa: E731
            elif op == "bge":
                cond = lambda a, b: _signed(a) >= _signed(b)  # noqa: E731
            elif op == "bltu":
                cond = lambda a, b: a < b  # noqa: E731
            else:  # bgeu
                cond = lambda a, b: a >= b  # noqa: E731

            def _branch(ctx):
                R = ctx.regs
                t = cond(R[rs1], R[rs2])
                st = ctx.stats
                if st is not None:
                    pen, hz, mispredicted = ctx.coster.branch(pc, reads, t, imm)
                    cost = 1.0 + (pen + hz)
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    st.branch_penalty_cycles += pen
                    if mispredicted:
                        st.branch_mispredicts += 1
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return imm if t else pcp1

            return _branch
        if op == "jal":

            def _jal(ctx):
                if rd:
                    ctx.regs[rd] = pcp1
                st = ctx.stats
                if st is not None:
                    pen, hz = ctx.coster.jump(pc, reads, imm)
                    cost = 1.0 + (pen + hz)
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    st.branch_penalty_cycles += pen
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return imm

            return _jal
        if op == "jalr":

            def _jalr(ctx):
                R = ctx.regs
                target = (R[rs1] + imm) & _MASK32
                if rd:
                    R[rd] = pcp1
                st = ctx.stats
                if st is not None:
                    pen, hz = ctx.coster.jump(pc, reads, target)
                    cost = 1.0 + (pen + hz)
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    st.branch_penalty_cycles += pen
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return target

            return _jalr
        if op == "halt":

            def _halt(ctx):
                st = ctx.stats
                if st is not None:
                    hz = ctx.coster.simple(reads)
                    cost = 1.0 + hz
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return _HALT

            return _halt
        sid, width = i.sid, i.width
        if op == "sload":

            def _sload(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                stream = ins[sid]
                data = stream.consume(width)
                if data is None:
                    ctx.aborted[pc] += 1
                    return _EOS if stream.exhausted else _STALL
                if rd:
                    ctx.regs[rd] = int.from_bytes(data, "little")
                st = ctx.stats
                if st is not None:
                    hz = ctx.coster.stream_load(reads, rd)
                    cost = 1.0 + (hz + stream_extra)
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost - stream_extra)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return pcp1

            return _sload
        if op == "sskip":

            def _sskip(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                stream = ins[sid]
                if stream.consume(imm) is None:
                    ctx.aborted[pc] += 1
                    return _EOS if stream.exhausted else _STALL
                st = ctx.stats
                if st is not None:
                    hz = ctx.coster.stream_load(reads, 0)
                    cost = 1.0 + (hz + stream_extra)
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost - stream_extra)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return pcp1

            return _sskip
        if op == "sstore":
            mask = (1 << (8 * width)) - 1

            def _sstore(ctx):
                outs = ctx.out_streams
                if outs is None:
                    raise ExecutionError(
                        "program uses output streams but none attached"
                    )
                value = ctx.regs[rs2] & mask
                try:
                    outs[sid].push(value.to_bytes(width, "little"))
                except StreamError:
                    ctx.aborted[pc] += 1
                    return _STALL
                st = ctx.stats
                if st is not None:
                    hz = ctx.coster.simple(reads)
                    cost = 1.0 + (hz + stream_extra)
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost - stream_extra)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return pcp1

            return _sstore
        if op == "savail":

            def _savail(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                if rd:
                    ctx.regs[rd] = ins[sid].available
                st = ctx.stats
                if st is not None:
                    hz = ctx.coster.simple(reads)
                    cost = 1.0 + hz
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return pcp1

            return _savail
        if op == "seos":

            def _seos(ctx):
                ins = ctx.in_streams
                if ins is None:
                    raise ExecutionError(
                        "program uses input streams but none attached"
                    )
                if rd:
                    ctx.regs[rd] = int(ins[sid].exhausted)
                st = ctx.stats
                if st is not None:
                    hz = ctx.coster.simple(reads)
                    cost = 1.0 + hz
                    st.cycles_by_kind[kind] = st.cycles_by_kind.get(kind, 0.0) + cost
                    if hz:
                        st.hazard_stall_cycles += hz
                    ctx.hierarchy.add_compute_cycles(cost)
                    ctx.clock.cycle += cost
                    ctx.pc_cycles[pc] += cost
                return pcp1

            return _seos
        raise ExecutionError(f"no dynamic decoder for opcode {op!r}")

    def _build_run(self, entry_pc: int) -> Tuple[tuple, float, int, int]:
        """Superblock from ``entry_pc``: statics up to the next dynamic op.

        ``dyn_pc == self.n`` marks a run that falls off the program end
        (the dispatcher then raises the reference's out-of-range trap).
        """
        body: List[Callable] = []
        cost = 0
        pc = entry_pc
        n = self.n
        if self._dyncost:
            # Predictive mode: the body closures price themselves live, so
            # the batched run cost is identically zero.
            while pc < n and self.static[pc]:
                body.append(self._pfn[pc])
                pc += 1
        else:
            while pc < n and self.static[pc]:
                body.append(self._sfn[pc])
                cost += self._cost[pc]
                pc += 1
        run = (tuple(body), float(cost), len(body), pc)
        self._runs[entry_pc] = run
        return run

    # ----------------------------------------------------------------- run --

    def run(
        self,
        interp: Interpreter,
        pipeline=None,
        clock=None,
        input_region: Optional[range] = None,
        strict_stalls: bool = False,
        max_steps: Optional[int] = None,
        profiler=None,
    ) -> Dict[int, float]:
        """Drive ``interp``'s architectural state to completion.

        With ``pipeline`` and ``clock`` this is the core model's timed run
        (``strict_stalls=True`` raises on a stream stall the firmware hooks
        left unresolved); without them it matches :meth:`Interpreter.run`.
        Architectural state, counters, timing stats and the optional
        ``profiler``'s per-PC ``(count, cycles)`` are synced back on every
        exit path, including exceptions. Returns the first-touch cycle map
        for ``input_region`` runs.
        """
        if interp.program is not self.program:
            raise ExecutionError("engine compiled for a different program")
        if interp.finished:
            # Both reference drive loops are no-ops on a finished program.
            return {}
        n = self.n
        ctx = _Ctx()
        ctx.regs = interp.regs._regs
        ctx.memory = interp.memory
        ctx.buf = interp.memory.buf
        ctx.mem_size = interp.memory.size_bytes
        ctx.in_streams = interp.in_streams
        ctx.out_streams = interp.out_streams
        ctx.clock = clock if clock is not None else _NullClock()
        ctx.hierarchy = pipeline.hierarchy if pipeline is not None else None
        ctx.stats = pipeline.stats if pipeline is not None else None
        ctx.coster = pipeline.coster if pipeline is not None else None
        if ctx.coster is not None and ctx.coster.is_static == self._dyncost:
            raise ExecutionError(
                f"engine compiled for pipeline model {self.model!r} but the "
                "pipeline's coster uses the other timing model"
            )
        self._bind_pads(ctx, pipeline)
        ctx.region = input_region
        ctx.first_touch = {}
        entry = [0] * n
        ctx.taken = taken = [0] * n
        ctx.aborted = aborted = [0] * n
        ctx.pc_cycles = [0.0] * n
        runs = self._runs
        dfn = self._dfn
        dyncost = self._dyncost
        clk = ctx.clock
        pc = interp.pc
        live_steps = interp.steps
        last_stall = False
        finished = halted = False
        try:
            while True:
                if max_steps is not None and live_steps >= max_steps:
                    raise ExecutionError(f"exceeded max_steps={max_steps}")
                if not 0 <= pc < n:
                    raise ExecutionError(
                        f"PC {pc} outside program of {n} instrs"
                    )
                entry[pc] += 1
                run = runs[pc]
                if run is None:
                    run = self._build_run(pc)
                body, cost, nbody, dyn_pc = run
                if dyncost:
                    for fn in body:
                        fn(ctx)
                else:
                    for fn in body:
                        fn(ctx.regs)
                    if cost:
                        clk.cycle += cost
                live_steps += nbody
                if dyn_pc == n:
                    pc = n
                    continue  # falls off the end: trap with the exact PC
                try:
                    ret = dfn[dyn_pc](ctx)
                except BaseException:
                    # A trap mid-instruction (memory fault, missing stream
                    # set): nothing retires and the PC pins the faulting
                    # instruction, exactly like the reference step().
                    aborted[dyn_pc] += 1
                    pc = dyn_pc
                    raise
                if ret >= 0:
                    pc = ret
                    live_steps += 1
                    last_stall = False
                    continue
                pc = dyn_pc
                if ret == _HALT:
                    live_steps += 1
                    finished = halted = True
                    break
                if ret == _EOS:
                    finished = True
                    break
                # Stream stall: the reference raises immediately under the
                # core model (hooks already had their chance inside the
                # stream access) and after one fruitless retry otherwise.
                if strict_stalls:
                    raise ExecutionError(
                        f"unresolved stream stall at pc={dyn_pc}: "
                        "firmware hooks missing"
                    )
                if last_stall:
                    raise ExecutionError(
                        f"unresolvable stream stall at pc={dyn_pc} "
                        f"({self.program.instrs[dyn_pc]})"
                    )
                last_stall = True
        finally:
            self._sync(interp, pipeline, profiler, ctx, entry, pc, finished, halted)
        return ctx.first_touch

    def _bind_pads(self, ctx, pipeline) -> None:
        """The run's pad windows, per-width stalls, tallies and kind sums.

        A pad's stall for a ``w``-byte access is the hierarchy spec's
        ``access_latency(w) - 1``; ping-pong accesses are timed (and
        counted) as the input ping half. A missing pad gets bounds no
        32-bit address reaches.
        """
        n = self.n
        ctx.sp_hits = [0] * n
        ctx.pp_hits = [0] * n
        ctx.sp_lo = ctx.sp_hi = ctx.pp_lo = ctx.pp_hi = _NO_PAD
        ctx.pp_half = 1
        ctx.sp_stall = ctx.pp_stall = None
        h = ctx.hierarchy
        if h is None:
            return
        by_kind = pipeline.stats.cycles_by_kind
        ctx.mem_cycles = [
            by_kind.get(InstrKind.LOAD, 0.0), by_kind.get(InstrKind.STORE, 0.0)
        ]
        if h.scratchpad_window is not None:
            ctx.sp_lo, ctx.sp_hi = h.scratchpad_window
            ctx.sp_stall = _pad_stalls(h.scratchpad)
        if h.pingpong_window is not None:
            ctx.pp_lo, ctx.pp_hi, ctx.pp_half = h.pingpong_window
            ctx.pp_stall = _pad_stalls(h.pingpong.ping)

    def _fold_pads(self, pipeline, ctx) -> None:
        """Fold the run's load/store sums and pad tallies into ``pipeline``.

        Pad stalls are integers, so the bucket's sum is exact in any order.
        """
        by_kind = pipeline.stats.cycles_by_kind
        for kind, cycles in zip((InstrKind.LOAD, InstrKind.STORE), ctx.mem_cycles):
            if cycles or kind in by_kind:
                by_kind[kind] = cycles
        h = pipeline.hierarchy
        if h.scratchpad is not None:
            self._fold_pad(h, h.scratchpad, ctx.sp_hits, ctx.sp_stall)
        if h.pingpong is not None:
            self._fold_pad(h, h.pingpong.ping, ctx.pp_hits, ctx.pp_stall)

    def _fold_pad(self, h, pad, hits, stalls) -> None:
        for p, count in enumerate(hits):
            if count:
                size = self._mem_size[p]
                pad.record(size, self.kinds[p] is InstrKind.STORE, count)
                h.buckets.scratchpad_stall += count * stalls[size]

    # ---------------------------------------------------------------- sync --

    def _sync(self, interp, pipeline, profiler, ctx, entry, pc, finished, halted):
        """Fold batched retirement counts back into interpreter/pipeline state.

        Retired-instruction counts come from a flow recurrence over entry
        counts: every execution of a static op falls through to its
        successor, so ``retired[p] = entry[p] + retired[p - 1]`` within a
        run (dynamic predecessors redirect through the dispatcher and
        contribute via ``entry`` instead). All batched cycle contributions
        are integers, which keeps the float totals bit-identical to a
        per-step accumulation. A profiler gets each retired PC's count and
        cycles: the run-time sum for live-costed PCs, else the compile-time
        cost per retirement plus any taken-branch penalties.
        """
        n = self.n
        static = self.static
        kinds = self.kinds
        taken = ctx.taken
        aborted = ctx.aborted
        retired = [0] * n
        prev = 0
        for p in range(n):
            flow = entry[p] + (prev if p and static[p - 1] else 0)
            retired[p] = flow - aborted[p]
            prev = flow
        interp.pc = pc
        interp.finished = finished or interp.finished
        interp.halted = halted or interp.halted
        total = 0
        bytes_in = 0
        bytes_out = 0
        counts = interp.instr_counts
        taken_total = 0
        kind_retired: Dict[InstrKind, int] = {}
        for p in range(n):
            r = retired[p]
            if r == 0:
                continue
            kind = kinds[p]
            counts[kind] += r
            kind_retired[kind] = kind_retired.get(kind, 0) + r
            total += r
            if kind is InstrKind.BRANCH:
                taken_total += taken[p]
            instr = self.program.instrs[p]
            if instr.op == "sload":
                bytes_in += instr.width * r
            elif instr.op == "sskip":
                bytes_in += instr.imm * r
            elif instr.op == "sstore":
                bytes_out += instr.width * r
            if profiler is not None:
                if self._live[p]:
                    cycles = ctx.pc_cycles[p]
                else:
                    cycles = float(r * self._cost[p] + taken[p] * self._taken_pen)
                profiler.add(p, r, cycles)
        interp.steps += total
        interp.stream_bytes_in += bytes_in
        interp.stream_bytes_out += bytes_out
        if ctx.hierarchy is not None:
            self._fold_pads(pipeline, ctx)
        if pipeline is None or self._dyncost:
            # Predictive runs account every cycle live at the op closures;
            # only retirement counts and stream bytes needed folding.
            return
        stats = pipeline.stats
        by_kind = stats.cycles_by_kind
        compute = float(total)
        for kind, r in kind_retired.items():
            if kind in (InstrKind.LOAD, InstrKind.STORE):
                continue  # live-accounted per access, base cycle is in `total`
            cycles = float(r)
            if kind is InstrKind.MUL:
                extra = r * self._mul_extra
                cycles += extra
                compute += extra
                stats.muldiv_extra_cycles += extra
            elif kind is InstrKind.DIV:
                extra = r * self._div_extra
                cycles += extra
                compute += extra
                stats.muldiv_extra_cycles += extra
            elif kind is InstrKind.BRANCH:
                extra = taken_total * self._taken_pen
                cycles += extra
                compute += extra
                stats.branch_penalty_cycles += extra
            elif kind is InstrKind.JUMP:
                extra = r * self._jump_pen
                cycles += extra
                compute += extra
                stats.branch_penalty_cycles += extra
            elif kind in (InstrKind.STREAM_LOAD, InstrKind.STREAM_STORE):
                # The head-FIFO extra reaches the clock and the kind stats
                # but is not booked as compute: it is a stream-buffer cost.
                cycles += r * self._stream_extra
            by_kind[kind] = by_kind.get(kind, 0.0) + cycles
        pipeline.hierarchy.add_compute_cycles(compute)

