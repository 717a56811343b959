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
  once into closure-based decoded ops, one per instruction for both timing
  models. All field extraction (``rd``, ``rs1``, immediates, stream
  widths) and opcode dispatch happens at compile time; executing an ALU op
  is a single closure call that mutates the raw register list. An op's
  timing is the static model's compile-time constant (the latencies of
  :mod:`repro.core.pipeline`), or, under the predictive model, the op's
  own coster call followed by :func:`_book`, the one booking step every
  op kind shares.
* **Superblocks** — maximal straight-line runs of ALU/MUL/DIV/LUI ops are
  executed back to back; under the static model with a *single* cycle
  and telemetry accounting update per run, instead of one per
  instruction. Runs are formed lazily from every reached entry PC, so
  backward-branch targets (the streaming ``StreamLoad``→compute→
  ``StreamStore`` inner loop) become one straight-line dash per
  iteration.
* **Exact accounting** — retirement counts are tracked per *entry* PC and
  folded back into per-instruction counts with a flow recurrence at sync
  time; the cycle sums folded there are integers by construction (integer
  latency constants, integer coster results), so the floating-point cycle
  totals, stall buckets and per-kind stats are **bit-identical** to a
  per-step interpreter loop (the timing oracle in the test suite), not
  just close.

Semantics that cannot be batched are not batched: DRAM-space loads/stores
call the memory hierarchy with the exact intermediate cycle (cache fill
times and prefetcher timestamps depend on it), and stream ops keep the
shared clock current so firmware refill hooks record the same page-needed
cycles. A scratchpad or ping-pong access costs a constant per pad and
width, so it is timed by one range check and counted per PC; the counts
are folded into the pads' stats at sync time.

Under the predictive model the clock, the compute sum and every coster
call stay live and in program order (DRAM-space accesses and stream
refill hooks read the clock, and the predictor's state depends on the
order); only the integer per-PC extra and hazard tallies wait for sync.

This is the only engine the core model runs. An attached
:class:`~repro.telemetry.profiler.IsaProfiler` is fed per PC at sync time
from the same flow-recurrence counts, the compile-time costs, the
predictive tallies, and the loads' and stores' per-PC sums. Traps
(out-of-range PC, memory faults, unresolvable stream stalls) raise the
interpreter's exception types with architectural state synced, so error
paths are differential-testable too.
"""

from __future__ import annotations

import operator
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

#: Instruction kinds that only compute on registers: these form the
#: superblock bodies. Everything else is a block-terminating dynamic op.
_STATIC_KINDS = (InstrKind.ALU, InstrKind.MUL, InstrKind.DIV)


class _NullClock:
    """Stands in for the core model's clock in functional-only runs."""

    __slots__ = ("cycle",)

    def __init__(self) -> None:
        self.cycle = 0.0


class _Unattached:
    """Stands in for a stream set the interpreter was not given.

    Any use traps with the interpreter's message, so the stream closures
    index their stream set without a check of their own.
    """

    __slots__ = ("direction",)

    def __init__(self, direction: str) -> None:
        self.direction = direction

    def __getitem__(self, sid):
        raise ExecutionError(f"program uses {self.direction} streams but none attached")


_NO_INPUTS = _Unattached("input")
_NO_OUTPUTS = _Unattached("output")


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
        "coster",
        "region",
        "first_touch",
        "taken",
        "aborted",
        "pc_cycles",
        "extra",
        "hazard",
        "mispredicts",
        "compute",
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


#: Taken-ness of each conditional branch, given its two register values.
_BRANCH_CONDS = {
    "beq": operator.eq,
    "bne": operator.ne,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
    "bltu": operator.lt,
    "bgeu": operator.ge,
}

#: Divider ops whose operands are signed (their latency reads magnitudes).
_SIGNED_DIVS = ("div", "rem")


def _book(ctx, pc: int, extra: int, hz: int) -> None:
    """The predictive model's booking of one retired op beyond its coster call.

    The op's cycles reach the clock and the compute sum live, in program
    order; its extra (redirect or unit occupancy) and hazard cycles are
    tallied per PC, and :meth:`FastEngine._sync` folds those integer
    tallies into the per-kind stats and the profile.
    """
    cost = 1.0 + (extra + hz)
    ctx.extra[pc] += extra
    ctx.hazard[pc] += hz
    ctx.compute += cost
    ctx.clock.cycle += cost


def _pad_stalls(pad) -> List[int]:
    """Stall cycles of a pad access, indexed by its width in bytes."""
    return [0] + [pad.access_latency(width) - 1 for width in range(1, 5)]


class FastEngine:
    """Executes one compiled :class:`Program`, bit-exact with the reference.

    An engine is compiled once per ``(program, pipeline model)`` pair and
    may run any number of interpreters over it (the chunked memory path
    resets the interpreter between chunks but reuses the decoded program).
    Each instruction compiles to one closure that serves both timing
    models. A run without a ``pipeline`` is functional only.
    """

    def __init__(self, program: Program, model: str = "static") -> None:
        # repro.core imports this module, so its constants are read here.
        from repro.core.pipeline import (
            DIV_EXTRA_CYCLES,
            JUMP_PENALTY,
            MUL_EXTRA_CYCLES,
            TAKEN_BRANCH_PENALTY,
        )

        self.program = program
        self.model = model
        if model not in PIPELINE_MODELS:
            raise ExecutionError(f"unknown pipeline model {model!r}")
        # Predictive timing depends on run-time predictor/hazard state, so
        # every op prices itself live through the run's coster instead of
        # folding compile-time constants.
        self._dyncost = model == "predictive"
        n = len(program.instrs)
        self.n = n
        self._taken_pen = TAKEN_BRANCH_PENALTY
        self.kinds: List[InstrKind] = [kind_of(i.op) for i in program.instrs]
        self.static: List[bool] = [k in _STATIC_KINDS for k in self.kinds]
        # The static model's extra cycles of one retirement beyond the base
        # cycle (a taken branch adds its penalty on top).
        fixed = {
            InstrKind.MUL: MUL_EXTRA_CYCLES,
            InstrKind.DIV: DIV_EXTRA_CYCLES,
            InstrKind.JUMP: JUMP_PENALTY,
        }
        self._extra: List[int] = [fixed.get(k, 0) for k in self.kinds]
        #: Source registers of each op: the hazard latch's operands.
        self._reads: List[Tuple[int, ...]] = [instr_reads(i) for i in program.instrs]
        #: Bytes moved by each load/store (0 elsewhere), for the pad fold.
        self._mem_size: List[int] = [
            calcsize(_MEM_FORMATS[i.op]) if i.op in _MEM_FORMATS else 0
            for i in program.instrs
        ]
        self._sfn: List[Optional[Callable]] = [None] * n
        self._dfn: List[Optional[Callable]] = [None] * n
        for pc, instr in enumerate(program.instrs):
            if self.static[pc]:
                self._sfn[pc] = self._compile_static(instr)
            elif instr.op in _MEM_FORMATS:
                self._dfn[pc] = self._compile_mem(pc, instr)
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
        reads = self._reads[pc]
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
                ctx.hazard[pc] += hz
                ctx.compute += cost - stall
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
        """Block terminators: control flow, streams, halt, under either model.

        Each closure executes its instruction, then times it: under the
        static model with its compile-time cycles (a taken branch also
        bumps its per-PC tally, for the penalty fold at sync), under the
        predictive model with its own coster call and :func:`_book`. An op
        that does not retire (stream stall or EOS, trap) returns or raises
        before either, so the coster never sees it, as in a per-step loop.
        Returns the next PC or a negative sentinel.
        """
        op, rd, rs1, rs2, imm = i.op, i.rd, i.rs1, i.rs2, i.imm
        kind = self.kinds[pc]
        pcp1 = pc + 1
        reads = self._reads[pc]
        dyncost = self._dyncost
        if kind is InstrKind.BRANCH:
            cond = _BRANCH_CONDS[op]
            taken_cost = 1.0 + self._taken_pen

            def _branch(ctx):
                R = ctx.regs
                taken = cond(R[rs1], R[rs2])
                if dyncost:
                    pen, hz, mispredicted = ctx.coster.branch(pc, reads, taken, imm)
                    ctx.mispredicts += mispredicted
                    _book(ctx, pc, pen, hz)
                    return imm if taken else pcp1
                if taken:
                    ctx.taken[pc] += 1
                    ctx.clock.cycle += taken_cost
                    return imm
                ctx.clock.cycle += 1.0
                return pcp1

            return _branch
        if kind is InstrKind.JUMP:
            jump_cost = 1.0 + self._extra[pc]
            indirect = op == "jalr"

            def _jump(ctx):
                R = ctx.regs
                target = (R[rs1] + imm) & _MASK32 if indirect else imm
                if rd:
                    R[rd] = pcp1
                if dyncost:
                    pen, hz = ctx.coster.jump(pc, reads, target)
                    _book(ctx, pc, pen, hz)
                else:
                    ctx.clock.cycle += jump_cost
                return target

            return _jump
        if op == "halt":

            def _halt(ctx):
                if dyncost:
                    _book(ctx, pc, 0, ctx.coster.simple(reads))
                else:
                    ctx.clock.cycle += 1.0
                return _HALT

            return _halt
        sid, width = i.sid, i.width
        if op in ("sload", "sskip"):
            # sskip consumes ``imm`` bytes and writes no register.
            size, dest = (width, rd) if op == "sload" else (imm, 0)

            def _sload(ctx):
                stream = ctx.in_streams[sid]
                data = stream.consume(size)
                if data is None:
                    ctx.aborted[pc] += 1
                    return _EOS if stream.exhausted else _STALL
                if dest:
                    ctx.regs[dest] = int.from_bytes(data, "little")
                if dyncost:
                    _book(ctx, pc, 0, ctx.coster.stream_load(reads, dest))
                else:
                    ctx.clock.cycle += 1.0
                return pcp1

            return _sload
        if op == "sstore":
            mask = (1 << (8 * width)) - 1

            def _sstore(ctx):
                stream = ctx.out_streams[sid]
                value = ctx.regs[rs2] & mask
                try:
                    stream.push(value.to_bytes(width, "little"))
                except StreamError:
                    ctx.aborted[pc] += 1
                    return _STALL
                if dyncost:
                    _book(ctx, pc, 0, ctx.coster.simple(reads))
                else:
                    ctx.clock.cycle += 1.0
                return pcp1

            return _sstore
        if op in ("savail", "seos"):
            avail = op == "savail"

            def _sprobe(ctx):
                stream = ctx.in_streams[sid]
                if rd:
                    ctx.regs[rd] = stream.available if avail else int(stream.exhausted)
                if dyncost:
                    _book(ctx, pc, 0, ctx.coster.simple(reads))
                else:
                    ctx.clock.cycle += 1.0
                return pcp1

            return _sprobe
        raise ExecutionError(f"no dynamic decoder for opcode {op!r}")

    def _build_run(self, entry_pc: int) -> Tuple[tuple, float, int, int]:
        """Superblock from ``entry_pc``: statics up to the next dynamic op.

        ``cost`` is the static model's cycles of the whole body.
        ``dyn_pc == self.n`` marks a run that falls off the program end
        (the dispatcher then raises the reference's out-of-range trap).
        """
        body: List[Callable] = []
        cost = 0
        pc = entry_pc
        n = self.n
        while pc < n and self.static[pc]:
            body.append(self._sfn[pc])
            cost += 1 + self._extra[pc]
            pc += 1
        run = (tuple(body), float(cost), len(body), pc)
        self._runs[entry_pc] = run
        return run

    def _run_priced(self, ctx, body: tuple, entry_pc: int) -> None:
        """A superblock body under the predictive model.

        Each op is priced by its coster call and :func:`_book`, then runs
        its one decoded closure; a divide's latency reads its operands
        before it executes.
        """
        R = ctx.regs
        coster = ctx.coster
        kinds = self.kinds
        reads = self._reads
        instrs = self.program.instrs
        pc = entry_pc
        for fn in body:
            kind = kinds[pc]
            if kind is InstrKind.ALU:
                _book(ctx, pc, 0, coster.simple(reads[pc]))
            elif kind is InstrKind.MUL:
                extra, hz = coster.mul(reads[pc])
                _book(ctx, pc, extra, hz)
            else:
                i = instrs[pc]
                extra, hz = coster.div(reads[pc], R[i.rs1], R[i.rs2], i.op in _SIGNED_DIVS)
                _book(ctx, pc, extra, hz)
            fn(R)
            pc += 1

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
        ins, outs = interp.in_streams, interp.out_streams
        ctx.in_streams = ins if ins is not None else _NO_INPUTS
        ctx.out_streams = outs if outs is not None else _NO_OUTPUTS
        ctx.clock = clock if clock is not None else _NullClock()
        if pipeline is None:
            if self._dyncost:
                raise ExecutionError(
                    "engine compiled for the predictive pipeline model needs "
                    "a pipeline: it prices every op through the pipeline's coster"
                )
            ctx.hierarchy = ctx.coster = None
        elif pipeline.model != self.model:
            raise ExecutionError(
                f"engine compiled for pipeline model {self.model!r} but the "
                "pipeline uses the other timing model"
            )
        else:
            ctx.hierarchy = pipeline.hierarchy
            ctx.coster = pipeline.coster
        ctx.compute = 0.0
        self._bind_pads(ctx, pipeline)
        ctx.region = input_region
        ctx.first_touch = {}
        entry = [0] * n
        ctx.taken = taken = [0] * n
        ctx.aborted = aborted = [0] * n
        ctx.pc_cycles = [0.0] * n
        ctx.extra = [0] * n
        ctx.hazard = [0] * n
        ctx.mispredicts = 0
        runs = self._runs
        dfn = self._dfn
        dyncost = self._dyncost
        clk = ctx.clock
        R = ctx.regs
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
                    if nbody:
                        self._run_priced(ctx, body, pc)
                else:
                    for fn in body:
                        fn(R)
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
        """The run's pad windows, per-width stalls, tallies and running sums.

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
        ctx.compute = h.buckets.compute
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
        contribute via ``entry`` instead). Every PC's cycles beyond the
        loads' and stores' running sums are integers — the static model's
        compile-time extras and taken-branch penalties, or the predictive
        model's per-PC extra and hazard tallies — which keeps the float
        totals bit-identical to a per-step accumulation in any order. A
        profiler gets each retired PC's count and cycles.
        """
        n = self.n
        static = self.static
        kinds = self.kinds
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
        dyncost = self._dyncost
        static_extra = self._extra
        taken, taken_pen = ctx.taken, self._taken_pen
        tallied_extra, hazards, pc_cycles = ctx.extra, ctx.hazard, ctx.pc_cycles
        kind_cycles: Dict[InstrKind, int] = {}
        penalty = muldiv = hazard = 0
        for p in range(n):
            r = retired[p]
            if r == 0:
                continue
            kind = kinds[p]
            counts[kind] += r
            total += r
            instr = self.program.instrs[p]
            if instr.op == "sload":
                bytes_in += instr.width * r
            elif instr.op == "sskip":
                bytes_in += instr.imm * r
            elif instr.op == "sstore":
                bytes_out += instr.width * r
            if dyncost:
                extra, hz = tallied_extra[p], hazards[p]
            else:
                extra, hz = r * static_extra[p] + taken[p] * taken_pen, 0
            hazard += hz
            if kind is InstrKind.LOAD or kind is InstrKind.STORE:
                cycles = pc_cycles[p]  # in the running per-kind sums
            else:
                cycles = r + extra + hz
                kind_cycles[kind] = kind_cycles.get(kind, 0) + cycles
                if kind is InstrKind.BRANCH or kind is InstrKind.JUMP:
                    penalty += extra
                else:
                    muldiv += extra  # only MUL and DIV have extras here
            if profiler is not None:
                profiler.add(p, r, float(cycles))
        interp.steps += total
        interp.stream_bytes_in += bytes_in
        interp.stream_bytes_out += bytes_out
        if pipeline is None:
            return
        self._fold_pads(pipeline, ctx)
        stats = pipeline.stats
        by_kind = stats.cycles_by_kind
        for kind, cycles in kind_cycles.items():
            by_kind[kind] = by_kind.get(kind, 0.0) + cycles
        stats.branch_penalty_cycles += penalty
        stats.muldiv_extra_cycles += muldiv
        stats.hazard_stall_cycles += hazard
        stats.branch_mispredicts += ctx.mispredicts
        if dyncost:
            # The predictive compute sum ran live, in program order.
            pipeline.hierarchy.buckets.compute = ctx.compute
        else:
            # Every static op's base cycle plus its extras; memory stalls
            # are already in the hierarchy's buckets.
            pipeline.hierarchy.add_compute_cycles(float(total + penalty + muldiv))
