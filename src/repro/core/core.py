"""Core-level kernel execution: functional run + cycle accounting + I/O trace.

This module is the Gem5 stand-in of the paper's hybrid methodology
(Figure 11). :class:`CoreModel` runs a kernel on one compute engine with the
engine's memory hierarchy, and produces:

* cycle count and stall decomposition (pure core timing, flash not yet
  applied — the device level retimes against the flash simulator),
* the timed page-level I/O trace (:class:`PageTouch` records when each flash
  page is first needed and when its fetch could have been issued),
* SSD-DRAM traffic generated by the engine, and
* the functional outputs, so results can be validated against kernel
  references in tests.

Data-path selection follows Table IV:

* ``FLASH_STREAM`` + stream buffer — the kernel's *stream program* runs
  against input/output stream buffers (``AssasinSb``/``AssasinSb$``).
* ``FLASH_STREAM`` + ping-pong — the kernel's *memory program* runs chunk by
  chunk out of the staging scratchpads (``AssasinSp``); the shadow half is
  filled during compute of the active half.
* ``DRAM`` — the memory program runs over data staged in SSD DRAM through
  the cache hierarchy (``Baseline``/``Prefetch``) or a big scratchpad that
  firmware fills by copying from DRAM (``UDP``).

Memory-program ABI (every kernel's memory form observes it):

=====  ======================================================
a0     input base (stream ``i`` lives at ``a0 + i*a3``)
a1     bytes per input stream in this chunk
a2     output base
a3     stride between input streams
a0     **return**: bytes written to the output region
=====  ======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import CoreConfig, DataSource, DRAMConfig
from repro.errors import ExecutionError, KernelError
from repro.isa.fastpath import FastEngine
from repro.isa.interpreter import Interpreter
from repro.isa.program import Program
from repro.mem.dram import DRAMModel, DRAMTraffic
from repro.mem.hierarchy import (
    PINGPONG_BASE,
    SCRATCHPAD_BASE,
    MemoryHierarchy,
    StallBuckets,
)
from repro.mem.memory import FlatMemory
from repro.mem.streambuffer import StreamBufferSet
from repro.core.pipeline import PipelineModel, PipelineStats

# Functional memory layout (see repro.mem.hierarchy address map).
DRAM_STATE_BASE = 0x0000_8000  # function state for cache-only engines
DRAM_DATA_BASE = 0x0001_0000
DRAM_OUT_BASE = 0x0080_0000
MEMORY_BYTES = 0x0130_0000  # covers DRAM space + scratchpad + staging regions
PAGE_BYTES = 4096

# UDP lane scratchpad layout: function state low, staged input, staged output.
UDP_STATE_RESERVE = 64 * 1024
UDP_IN_RESERVE = 128 * 1024
UDP_OUT_RESERVE = 64 * 1024


@dataclass(frozen=True)
class PageTouch:
    """First-use record for one flash page of one input stream."""

    stream: int
    page: int  # page index within the stream's logical data
    needed_cycle: float  # when compute first touches the page
    requested_cycle: float  # earliest time its fetch could be in flight


@dataclass
class CoreRunResult:
    """Outcome of running one kernel on one engine (no flash stalls yet)."""

    kernel_name: str
    config_name: str
    cycles: float
    instructions: int
    bytes_in: int
    bytes_out: int
    outputs: List[bytes]
    buckets: StallBuckets
    pipeline: PipelineStats
    dram_traffic: DRAMTraffic
    page_touches: List[PageTouch] = field(default_factory=list)
    chunks: int = 1
    final_state: bytes = b""
    #: Architectural register file at program end (x0..x31) — lets tests pin
    #: golden fingerprints without re-running the interpreter.
    final_regs: Tuple[int, ...] = ()

    @property
    def cycles_per_byte(self) -> float:
        return self.cycles / self.bytes_in if self.bytes_in else float("inf")

    @property
    def out_ratio(self) -> float:
        """Output bytes per input byte (0 for a run that read nothing)."""
        return self.bytes_out / self.bytes_in if self.bytes_in else 0.0

    def page_ns(self, page_bytes: int, period_ns: float) -> float:
        """Compute time to stream one ``page_bytes`` page at ``period_ns``
        per cycle: the one price of a sampled page."""
        return self.cycles_per_byte * page_bytes * period_ns

    def throughput_bytes_per_ns(self, clock_ghz: float = 1.0) -> float:
        """Core-limited throughput (flash retiming may reduce it further)."""
        if self.cycles <= 0:
            return 0.0
        return self.bytes_in / (self.cycles / clock_ghz)


class CoreModel:
    """One in-SSD compute engine executing offloaded kernels."""

    def __init__(self, core: CoreConfig, dram: Optional[DRAMModel] = None) -> None:
        self.core = core
        self.dram = dram or DRAMModel(DRAMConfig())
        self.hierarchy = MemoryHierarchy(core, self.dram)
        #: Optional :class:`repro.telemetry.profiler.IsaProfiler`. When set,
        #: the fast engine adds each run's per-PC ``(count, cycles)`` to it,
        #: giving per-PC cycle attribution whose total matches the run
        #: exactly.
        self.profiler = None
        # Decoded-program cache for the fast engine, keyed by id() while we
        # hold the Program itself (keeps ids stable; Program is unhashable).
        self._engine_cache: Dict[int, Tuple[Program, FastEngine]] = {}

    # ------------------------------------------------------------------ api --

    @property
    def state_base(self) -> int:
        """Where kernel function state lives for this engine.

        Engines with a scratchpad keep state there (Table II insight);
        cache-only engines fall back to a DRAM-backed region.
        """
        return SCRATCHPAD_BASE if self.core.scratchpad is not None else DRAM_STATE_BASE

    def run(self, kernel, inputs: Sequence[bytes]) -> CoreRunResult:
        """Run ``kernel`` over ``inputs`` (one bytes object per input stream)."""
        if len(inputs) != kernel.num_inputs:
            raise KernelError(
                f"kernel {kernel.name} expects {kernel.num_inputs} inputs, got {len(inputs)}"
            )
        self.hierarchy.reset_stats()
        self.dram.reset_traffic()
        if self.core.data_source is DataSource.FLASH_STREAM and self.core.streambuffer:
            return self._run_stream(kernel, inputs)
        return self._run_memory(kernel, inputs)

    # --------------------------------------------------------------- stream --

    def _run_stream(self, kernel, inputs: Sequence[bytes]) -> CoreRunResult:
        program: Program = kernel.build_stream_program(self.state_base)
        if self.profiler is not None:
            self.profiler.set_program(program)
        memory = FlatMemory(MEMORY_BYTES)
        kernel.init_state(memory, self.state_base)
        sb_cfg = self.core.streambuffer
        ins = StreamBufferSet(sb_cfg, "input")
        outs = StreamBufferSet(sb_cfg, "output")

        pending: Dict[int, memoryview] = {
            i: memoryview(bytes(data)) for i, data in enumerate(inputs)
        }
        pages_pushed = [0] * len(inputs)
        collected: List[bytearray] = [bytearray() for _ in range(sb_cfg.num_streams)]
        page_needed: Dict[int, List[float]] = {i: [] for i in range(len(inputs))}
        clock = _Clock()

        def refill(stream, needed: int) -> None:
            sid = stream.stream_id
            data = pending.get(sid)
            if data is None or len(data) == 0:
                stream.finish_producing()
                return
            # Firmware schedules whole pages into the ISB (Figure 10).
            while stream.free_space >= sb_cfg.page_bytes and len(data) > 0:
                take = min(sb_cfg.page_bytes, len(data))
                stream.push(bytes(data[:take]))
                data = data[take:]
                page_needed[sid].append(clock.cycle)
                pages_pushed[sid] += 1
                if stream.available >= needed:
                    break
            pending[sid] = data
            if len(data) == 0:
                stream.finish_producing()

        def drain(stream, needed: int) -> None:
            if stream.available:
                got = stream.consume(stream.available)
                if got:
                    collected[stream.stream_id].extend(got)

        for i, stream in enumerate(ins.streams):
            if i < len(inputs):
                stream.refill_hook = refill
            else:
                stream.finish_producing()
        for stream in outs.streams:
            stream.space_hook = drain

        interp = Interpreter(program, memory, in_streams=ins, out_streams=outs)
        pipeline = PipelineModel(self.hierarchy, self.core.pipeline_model)
        self._execute(interp, pipeline, clock)

        for stream in outs.streams:
            if stream.available:
                got = stream.consume(stream.available)
                if got:
                    collected[stream.stream_id].extend(got)
        outputs = [bytes(collected[i]) for i in range(kernel.num_outputs)]

        touches = self._stream_page_touches(page_needed)
        bytes_in = sum(len(d) for d in inputs)
        return CoreRunResult(
            kernel_name=kernel.name,
            config_name=self.core.name,
            cycles=clock.cycle,
            instructions=interp.steps,
            bytes_in=bytes_in,
            bytes_out=sum(len(o) for o in outputs),
            outputs=outputs,
            buckets=self.hierarchy.buckets,
            pipeline=pipeline.stats,
            dram_traffic=self.dram.traffic,
            page_touches=touches,
            chunks=1,
            final_state=kernel.read_state(memory, self.state_base),
            final_regs=tuple(interp.regs.snapshot()),
        )

    def _stream_page_touches(self, page_needed: Dict[int, List[float]]) -> List[PageTouch]:
        """Request lookahead: with P pages per stream, page k's fetch slot
        frees when page k-(P-1) starts being consumed."""
        lookahead = max(1, self.core.streambuffer.pages_per_stream - 1)
        touches: List[PageTouch] = []
        for sid, needs in page_needed.items():
            for k, needed in enumerate(needs):
                requested = needs[k - lookahead] if k >= lookahead else 0.0
                touches.append(PageTouch(sid, k, needed, requested))
        return touches

    # --------------------------------------------------------------- memory --

    def _run_memory(self, kernel, inputs: Sequence[bytes]) -> CoreRunResult:
        program: Program = kernel.build_memory_program(self.state_base)
        if self.profiler is not None:
            self.profiler.set_program(program)
        memory = FlatMemory(MEMORY_BYTES)
        kernel.init_state(memory, self.state_base)

        staging = self._staging_plan(kernel.num_inputs)
        in_base, out_base, per_stream_chunk, halves = staging
        total = len(inputs[0])
        if any(len(d) != total for d in inputs):
            raise KernelError("all input streams must have equal length")
        n_chunks = -(-total // per_stream_chunk) if total else 0

        interp = Interpreter(program, memory)
        pipeline = PipelineModel(self.hierarchy, self.core.pipeline_model)
        clock = _Clock()
        outputs_buf = bytearray()
        touches: List[PageTouch] = []
        instructions = 0
        prev_chunk_start = 0.0
        input_region: Optional[range] = None

        for c in range(n_chunks):
            lo = c * per_stream_chunk
            hi = min(lo + per_stream_chunk, total)
            chunk_len = hi - lo
            # Double buffering alternates halves; Baseline uses one region.
            base = in_base + (c % 2) * halves if halves else in_base
            stride = per_stream_chunk
            for i, data in enumerate(inputs):
                memory.store_bytes(base + i * stride, data[lo:hi])
            chunk_start = clock.cycle
            # Page-trace: pages of this chunk are needed when its compute
            # starts; their fetch was issuable when the previous chunk's
            # compute started (ping-pong overlap). DRAM staging (Baseline)
            # streams from t=0 instead — first-touch recorded per access.
            if self.core.data_source is DataSource.FLASH_STREAM:
                for i in range(len(inputs)):
                    for p in range(lo // PAGE_BYTES, -(-hi // PAGE_BYTES)):
                        touches.append(
                            PageTouch(i, p, chunk_start, prev_chunk_start if c else 0.0)
                        )
                input_region = None
            else:
                input_region = range(base, base + len(inputs) * stride)
            prev_chunk_start = chunk_start

            interp.reset()
            interp.regs.write_name("a0", base)
            interp.regs.write_name("a1", chunk_len)
            interp.regs.write_name("a2", out_base)
            interp.regs.write_name("a3", stride)
            first_touch = self._execute(
                interp, pipeline, clock, input_region=input_region
            )
            if input_region is not None:
                for addr, cyc in first_touch.items():
                    global_page = (addr - base) // PAGE_BYTES + lo // PAGE_BYTES
                    stream = (addr - base) // stride if stride else 0
                    touches.append(PageTouch(min(stream, len(inputs) - 1), global_page, cyc, 0.0))
            out_bytes = interp.regs.read_name("a0")
            if out_bytes:
                outputs_buf.extend(memory.load_bytes(out_base, out_bytes))
            instructions += interp.steps

        bytes_in = total * len(inputs)
        result = CoreRunResult(
            kernel_name=kernel.name,
            config_name=self.core.name,
            cycles=clock.cycle,
            instructions=instructions,
            bytes_in=bytes_in,
            bytes_out=len(outputs_buf),
            outputs=[bytes(outputs_buf)],
            buckets=self.hierarchy.buckets,
            pipeline=pipeline.stats,
            dram_traffic=self.dram.traffic,
            page_touches=sorted(touches, key=lambda t: (t.needed_cycle, t.stream, t.page)),
            chunks=n_chunks,
            final_state=kernel.read_state(memory, self.state_base),
            final_regs=tuple(interp.regs.snapshot()),
        )
        return result

    def _staging_plan(self, num_inputs: int):
        """(in_base, out_base, per-stream chunk bytes, half stride or 0)."""
        core = self.core
        if core.data_source is DataSource.FLASH_STREAM:
            if core.pingpong is None:
                raise ExecutionError("flash-stream memory path requires ping-pong staging")
            half = core.pingpong.size_bytes
            per_stream = max(PAGE_BYTES, (half // num_inputs) // PAGE_BYTES * PAGE_BYTES)
            out_base = PINGPONG_BASE + 2 * half  # output staging halves
            return PINGPONG_BASE, out_base, per_stream, half
        if core.scratchpad is not None and core.l1d is None:
            # UDP-style lane: firmware copies DRAM data into the scratchpad.
            in_base = SCRATCHPAD_BASE + UDP_STATE_RESERVE
            out_base = in_base + UDP_IN_RESERVE
            per_stream = max(PAGE_BYTES, (UDP_IN_RESERVE // num_inputs) // PAGE_BYTES * PAGE_BYTES)
            return in_base, out_base, per_stream, 0
        # Cache-based engines: data staged in SSD DRAM.
        per_stream = max(PAGE_BYTES, ((DRAM_OUT_BASE - DRAM_DATA_BASE) // num_inputs) // PAGE_BYTES * PAGE_BYTES)
        per_stream = min(per_stream, 1 << 20)  # stage at most 1 MiB per stream at once
        return DRAM_DATA_BASE, DRAM_OUT_BASE, per_stream, 0

    # ----------------------------------------------------------------- loop --

    def _fast_engine(self, program: Program) -> FastEngine:
        """The decoded fast engine for ``program``, compiled at most once."""
        cached = self._engine_cache.get(id(program))
        if cached is not None and cached[0] is program:
            return cached[1]
        engine = FastEngine(program, self.core.pipeline_model)
        self._engine_cache[id(program)] = (program, engine)
        return engine

    def _execute(self, interp, pipeline, clock, input_region: Optional[range] = None):
        """Drive the interpreter to completion on the fast engine, charging cycles.

        Returns first-touch cycles per page-aligned address when
        ``input_region`` is given (DRAM-staged runs).
        """
        return self._fast_engine(interp.program).run(
            interp,
            pipeline=pipeline,
            clock=clock,
            input_region=input_region,
            strict_stalls=True,
            profiler=self.profiler,
        )


class _Clock:
    """Mutable cycle counter shared between the run loop and hooks."""

    __slots__ = ("cycle",)

    def __init__(self) -> None:
        self.cycle = 0.0
