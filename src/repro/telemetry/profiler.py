"""ISA-level cycle-attribution profiler for the stream cores.

The fast engine reports, per run, how many times each PC retired and the
cycles those retirements cost; the profiler adds them up per PC and splits
each PC's cycles into three buckets by its opcode kind —

* **compute** — the base issue cycle plus multiplier/divider occupancy and
  branch/jump redirect bubbles (cycles the scalar pipeline itself spends),
* **mem_stall** — extra cycles a load/store waited on the memory hierarchy
  (L1/L2/scratchpad/DRAM),
* **stream_stall** — extra cycles a stream instruction waited on the
  stream-buffer head FIFO.

The per-PC cycles are the engine's own charges, so the profile's total
equals the run's cycle count *exactly* — the per-instruction proof (Stream
Semantic Registers style) that the stream ISA removes loop overhead rather
than hiding it.

Per-PC stats roll up into basic blocks (leader = program entry, branch
target, or instruction after a branch/jump), and :meth:`KernelProfile.report`
renders the classic hot-spot table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import BRANCH_OPS, InstrKind, JUMP_OPS, kind_of
from repro.isa.program import Program

_MEM_KINDS = (InstrKind.LOAD, InstrKind.STORE)
_STREAM_KINDS = (InstrKind.STREAM_LOAD, InstrKind.STREAM_STORE)


@dataclass
class PcStats:
    """Everything attributed to one program counter.

    Only the retirement count and the cycles are summed. A load/store or
    stream load/store charges one base cycle per retirement to compute and
    the rest to its stall bucket; every other op's cycles are all compute.
    """

    pc: int
    op: str
    text: str
    kind: InstrKind
    count: int = 0
    cycles: float = 0.0

    @property
    def compute(self) -> float:
        if self.kind in _MEM_KINDS or self.kind in _STREAM_KINDS:
            return float(self.count)
        return self.cycles

    @property
    def mem_stall(self) -> float:
        return self.cycles - self.count if self.kind in _MEM_KINDS else 0.0

    @property
    def stream_stall(self) -> float:
        return self.cycles - self.count if self.kind in _STREAM_KINDS else 0.0


@dataclass
class BlockStats:
    """One basic block's aggregate (PCs ``[start, end]`` inclusive)."""

    block_id: int
    start: int
    end: int
    count: int = 0  # executions of the leader
    cycles: float = 0.0
    compute: float = 0.0
    mem_stall: float = 0.0
    stream_stall: float = 0.0


class IsaProfiler:
    """Accumulates per-PC cycle attribution from kernel runs.

    Attach one to a :class:`~repro.core.core.CoreModel` (``engine.profiler
    = IsaProfiler()``) and run a kernel; the core model sets the program
    and the engine adds each run's per-PC ``(count, cycles)``. One profiler
    can absorb several runs (the chunked memory path resets the
    interpreter between chunks but the profile keeps accumulating).
    """

    def __init__(self) -> None:
        self.by_pc: Dict[int, PcStats] = {}
        self.program: Optional[Program] = None
        self.total_cycles: float = 0.0
        self.total_instructions: int = 0

    def set_program(self, program: Program) -> None:
        """Remember the program being profiled (for disassembly + blocks)."""
        self.program = program

    def add(self, pc: int, count: int, cycles: float) -> None:
        """Attribute ``count`` retirements at ``pc`` costing ``cycles`` in all."""
        stats = self.by_pc.get(pc)
        if stats is None:
            instr = self.program.instrs[pc]
            stats = PcStats(pc=pc, op=instr.op, text=str(instr), kind=kind_of(instr.op))
            self.by_pc[pc] = stats
        stats.count += count
        stats.cycles += cycles
        self.total_cycles += cycles
        self.total_instructions += count

    # -- aggregation ---------------------------------------------------------

    def pc_stats(self) -> List[PcStats]:
        """Per-PC stats in program order."""
        return [self.by_pc[pc] for pc in sorted(self.by_pc)]

    def basic_blocks(self) -> List[BlockStats]:
        """Roll PCs up into the program's basic blocks."""
        if self.program is None:
            raise ValueError("profiler has no program attached; call set_program()")
        ranges = basic_block_ranges(self.program)
        blocks: List[BlockStats] = []
        for block_id, (start, end) in enumerate(ranges):
            block = BlockStats(block_id=block_id, start=start, end=end)
            for pc in range(start, end + 1):
                stats = self.by_pc.get(pc)
                if stats is None:
                    continue
                block.cycles += stats.cycles
                block.compute += stats.compute
                block.mem_stall += stats.mem_stall
                block.stream_stall += stats.stream_stall
            leader = self.by_pc.get(start)
            block.count = leader.count if leader else 0
            blocks.append(block)
        return blocks


def basic_block_ranges(program: Program) -> List[Tuple[int, int]]:
    """Inclusive ``(start, end)`` PC ranges of the program's basic blocks.

    Leaders are PC 0, every branch/jal target, and every instruction after
    a branch or jump (``jalr`` targets are dynamic, so only the fallthrough
    boundary is known statically — the conservative standard treatment).
    """
    n = len(program.instrs)
    if n == 0:
        return []
    leaders = {0}
    for pc, instr in enumerate(program.instrs):
        if instr.op in BRANCH_OPS or instr.op == "jal":
            if 0 <= instr.imm < n:
                leaders.add(instr.imm)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif instr.op in JUMP_OPS or instr.op == "halt":
            if pc + 1 < n:
                leaders.add(pc + 1)
    ordered = sorted(leaders)
    return [
        (start, (ordered[i + 1] - 1) if i + 1 < len(ordered) else n - 1)
        for i, start in enumerate(ordered)
    ]


@dataclass
class KernelProfile:
    """One kernel's profile plus the run it came from."""

    kernel_name: str
    config_name: str
    profiler: IsaProfiler
    cycles: float
    instructions: int
    bytes_in: int
    outputs: List[bytes] = field(default_factory=list, repr=False)

    @property
    def total_cycles(self) -> float:
        return self.profiler.total_cycles

    @property
    def total_instructions(self) -> int:
        return self.profiler.total_instructions

    def report(self, top: int = 10) -> str:
        """Hot-spot text report: block ranking + per-PC attribution."""
        prof = self.profiler
        total = prof.total_cycles or 1.0
        lines = [
            f"profile {self.kernel_name} on {self.config_name}: "
            f"{prof.total_instructions} instrs, {prof.total_cycles:.0f} cycles, "
            f"{prof.total_cycles / self.bytes_in:.3f} cyc/B"
            if self.bytes_in
            else f"profile {self.kernel_name} on {self.config_name}",
        ]
        pcs = prof.pc_stats()
        mem = sum(s.mem_stall for s in pcs)
        stream = sum(s.stream_stall for s in pcs)
        compute = sum(s.compute for s in pcs)
        lines.append(
            f"attribution : compute {compute / total:6.1%}  "
            f"mem-stall {mem / total:6.1%}  stream-stall {stream / total:6.1%}"
        )
        if prof.program is not None:
            lines.append("")
            lines.append(f"{'block':>6} {'pcs':>9} {'execs':>8} {'cycles':>10} {'share':>7}")
            blocks = sorted(prof.basic_blocks(), key=lambda b: -b.cycles)
            for block in blocks[:top]:
                if block.cycles == 0:
                    continue
                lines.append(
                    f"{block.block_id:>6} {block.start:>4}-{block.end:<4} "
                    f"{block.count:>8} {block.cycles:>10.0f} {block.cycles / total:>6.1%}"
                )
        lines.append("")
        lines.append(
            f"{'pc':>4} {'op':<18} {'execs':>8} {'cycles':>10} "
            f"{'comp':>8} {'mem':>8} {'strm':>8} {'share':>7}"
        )
        hot = sorted(pcs, key=lambda s: -s.cycles)
        for stats in hot[:top]:
            lines.append(
                f"{stats.pc:>4} {stats.text[:18]:<18} {stats.count:>8} "
                f"{stats.cycles:>10.0f} {stats.compute:>8.0f} {stats.mem_stall:>8.0f} "
                f"{stats.stream_stall:>8.0f} {stats.cycles / total:>6.1%}"
            )
        return "\n".join(lines)


def profile_kernel(
    kernel,
    core_config=None,
    sample_bytes: Optional[int] = None,
) -> KernelProfile:
    """Run ``kernel`` on a profiled stream core and return its profile.

    ``core_config`` defaults to the AssasinSb core (the stream-ISA engine
    this profiler exists to explain); any RISC-V :class:`CoreConfig`
    works. The profile's totals equal the run's cycle/instruction counts
    exactly — asserted here, not just in tests.
    """
    from repro.config import named_config
    from repro.core.core import CoreModel

    core = core_config or named_config("AssasinSb").core
    engine = CoreModel(core)
    profiler = IsaProfiler()
    engine.profiler = profiler
    from repro.ssd.device import DEFAULT_SAMPLE_BYTES, _SAMPLE_BYTES_BY_KERNEL

    size = sample_bytes or _SAMPLE_BYTES_BY_KERNEL.get(kernel.name, DEFAULT_SAMPLE_BYTES)
    result = engine.run(kernel, kernel.make_inputs(size))
    if abs(profiler.total_cycles - result.cycles) > 1e-9:
        raise AssertionError(
            f"profiler lost cycles: {profiler.total_cycles} != {result.cycles}"
        )
    if profiler.total_instructions != result.instructions:
        raise AssertionError(
            f"profiler lost instructions: "
            f"{profiler.total_instructions} != {result.instructions}"
        )
    return KernelProfile(
        kernel_name=kernel.name,
        config_name=core.name,
        profiler=profiler,
        cycles=result.cycles,
        instructions=result.instructions,
        bytes_in=result.bytes_in,
        outputs=result.outputs,
    )
