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

:class:`ListLRUCache` is the cache the hierarchy used before its sets kept
their LRU order as dict insertion order: a per-set list of tags, most
recent last, reordered with ``list.remove``/``append``. The cache tests
run operation sequences through it and :class:`repro.mem.cache.Cache` and
demand identical results, counters and per-set LRU order.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.core import PAGE_BYTES, CoreModel
from repro.core.coster import instr_reads
from repro.core.pipeline import (
    DIV_EXTRA_CYCLES,
    JUMP_PENALTY,
    MUL_EXTRA_CYCLES,
    TAKEN_BRANCH_PENALTY,
)
from repro.errors import ExecutionError, MemoryError_
from repro.isa.instructions import InstrKind
from repro.isa.interpreter import StepKind
from repro.mem.cache import CacheStats, LookupResult
from repro.mem.hierarchy import AccessType


def cost_static(pipeline, info, cycle):
    """Cycles of one step under the static model (>= 1 when executed)."""
    stats = pipeline.stats
    cycles = 1.0
    kind = info.kind
    if kind is InstrKind.MUL:
        cycles += MUL_EXTRA_CYCLES
        stats.muldiv_extra_cycles += MUL_EXTRA_CYCLES
    elif kind is InstrKind.DIV:
        cycles += DIV_EXTRA_CYCLES
        stats.muldiv_extra_cycles += DIV_EXTRA_CYCLES
    elif kind is InstrKind.BRANCH:
        if info.branch_taken:
            cycles += TAKEN_BRANCH_PENALTY
            stats.branch_penalty_cycles += TAKEN_BRANCH_PENALTY
    elif kind is InstrKind.JUMP:
        cycles += JUMP_PENALTY
        stats.branch_penalty_cycles += JUMP_PENALTY
    elif kind in (InstrKind.LOAD, InstrKind.STORE) and info.mem_addr is not None:
        access = AccessType.STORE if info.mem_is_write else AccessType.LOAD
        result = pipeline.hierarchy.access(
            pc=info.pc, addr=info.mem_addr, size=info.mem_size, access=access, cycle=cycle
        )
        cycles += result.stall_cycles
    # The base cycle is compute; memory stalls were already booked into the
    # hierarchy's buckets.
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
        cycles += hz
    else:  # ALU / STREAM_STORE / STREAM_CTRL / SYSTEM
        hz = c.simple(reads)
        cycles += hz
    if hz:
        stats.hazard_stall_cycles += hz
    # Hazard bubbles, unit occupancy and redirect penalties are compute-side;
    # memory stalls were booked by the hierarchy.
    pipeline.hierarchy.add_compute_cycles(cycles - mem_stall)
    stats.cycles_by_kind[kind] = stats.cycles_by_kind.get(kind, 0.0) + cycles
    return cycles


def run_steps(interp, pipeline, clock, input_region=None, profiler=None):
    """Step ``interp`` to completion, charging ``clock`` one step at a time.

    Returns first-touch cycles per page-aligned address of ``input_region``
    (DRAM-staged runs), like ``CoreModel._execute``.
    """
    cost = cost_static if pipeline.model == "static" else cost_predictive
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


# ---------------------------------------------------------------------------
# The list-LRU cache: the oracle of repro.mem.cache.Cache.
# ---------------------------------------------------------------------------


@dataclass
class _Line:
    tag: int
    dirty: bool = False
    prefetched: bool = False
    ready_cycle: float = 0.0


class ListLRUCache:
    """One level of set-associative cache with true-LRU replacement."""

    def __init__(self, config) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.line_bytes = config.line_bytes
        self._sets: List[Dict[int, _Line]] = [dict() for _ in range(self.num_sets)]
        # LRU: per-set list of tags, most recent last.
        self._lru: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- address helpers ---------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr // self.line_bytes

    def _index_tag(self, line: int) -> Tuple[int, int]:
        return line % self.num_sets, line // self.num_sets

    # -- operations ---------------------------------------------------------

    def lookup(self, addr: int, is_write: bool, cycle: float) -> LookupResult:
        """Probe (and on miss, fill) the line containing ``addr``.

        Returns a :class:`LookupResult`; on a miss the line is installed with
        ``ready_cycle`` left at ``cycle`` (the caller adds the fill latency
        via :meth:`set_fill_time` if it wants in-flight modelling).
        """
        line = self.line_addr(addr)
        index, tag = self._index_tag(line)
        cache_set = self._sets[index]
        self.stats.accesses += 1
        entry = cache_set.get(tag)
        if entry is not None:
            self._touch(index, tag)
            if is_write:
                entry.dirty = True
            extra = max(0.0, entry.ready_cycle - cycle)
            if entry.prefetched:
                entry.prefetched = False
                self.stats.prefetch_hits += 1
                if extra > 0:
                    self.stats.late_prefetch_hits += 1
            self.stats.hits += 1
            return LookupResult(hit=True, extra_wait=extra)
        self.stats.misses += 1
        writeback = self._install(index, tag, dirty=is_write, prefetched=False, ready_cycle=cycle)
        return LookupResult(hit=False, writeback=writeback)

    def prefetch(self, addr: int, ready_cycle: float) -> bool:
        """Install a prefetched line that becomes usable at ``ready_cycle``.

        Returns True if a line was actually installed (False if already
        present). Prefetches never dirty lines.
        """
        line = self.line_addr(addr)
        index, tag = self._index_tag(line)
        if tag in self._sets[index]:
            return False
        self.stats.prefetches_issued += 1
        self._install(index, tag, dirty=False, prefetched=True, ready_cycle=ready_cycle)
        return True

    def contains(self, addr: int) -> bool:
        line = self.line_addr(addr)
        index, tag = self._index_tag(line)
        return tag in self._sets[index]

    def flush(self) -> int:
        """Drop all lines; returns the number of dirty lines written back."""
        dirty = sum(1 for s in self._sets for line in s.values() if line.dirty)
        self.stats.writebacks += dirty
        self._sets = [dict() for _ in range(self.num_sets)]
        self._lru = [[] for _ in range(self.num_sets)]
        return dirty

    # -- internals -----------------------------------------------------------

    def _touch(self, index: int, tag: int) -> None:
        order = self._lru[index]
        order.remove(tag)
        order.append(tag)

    def _install(
        self, index: int, tag: int, dirty: bool, prefetched: bool, ready_cycle: float
    ) -> bool:
        cache_set = self._sets[index]
        order = self._lru[index]
        writeback = False
        if len(cache_set) >= self.config.ways:
            victim_tag = order.pop(0)
            victim = cache_set.pop(victim_tag)
            if victim.dirty:
                writeback = True
                self.stats.writebacks += 1
        cache_set[tag] = _Line(tag=tag, dirty=dirty, prefetched=prefetched, ready_cycle=ready_cycle)
        order.append(tag)
        if len(cache_set) > self.config.ways:
            raise MemoryError_("cache set overflow (internal invariant violated)")
        return writeback

    def set_fill_time(self, addr: int, ready_cycle: float) -> None:
        """Record when the (just-missed) line's fill completes."""
        line = self.line_addr(addr)
        index, tag = self._index_tag(line)
        entry = self._sets[index].get(tag)
        if entry is not None:
            entry.ready_cycle = ready_cycle

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)
