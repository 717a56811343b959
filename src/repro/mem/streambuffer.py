"""Input/output stream buffers (paper Section V-B, Figure 8).

A stream buffer holds up to ``S`` streams; each stream is a circular buffer
of ``P`` flash pages with Head and Tail pointers exposed as control/status
registers. The core touches only the stream *head* — ``StreamLoad`` consumes
from an input stream, ``StreamStore`` appends to an output stream — which is
the restricted access pattern that lets hardware implement the structure as
a small prefetched FIFO and reach a 0.5 ns cycle (Figure 20).

Unlike the cache/scratchpad timing models, stream buffers carry real bytes:
they *are* the data path between the flash controllers and the core.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.config import StreamBufferConfig
from repro.errors import StreamError


class StreamState(enum.Enum):
    """Lifecycle of one stream slot, managed by firmware (Figure 10)."""

    IDLE = "idle"
    ACTIVE = "active"
    DRAINING = "draining"  # producer finished; consumer may drain the rest
    CLOSED = "closed"


class StreamBuffer:
    """One circular stream of ``P`` pages with monotonic Head/Tail pointers.

    ``head`` and ``tail`` count total bytes consumed/filled since the stream
    was opened; the CSR views (:attr:`head_csr`, :attr:`tail_csr`) are those
    counters modulo the buffer capacity, matching the hardware registers the
    firmware polls.
    """

    def __init__(self, config: StreamBufferConfig, stream_id: int = 0) -> None:
        self.config = config
        self.stream_id = stream_id
        self.capacity = config.pages_per_stream * config.page_bytes
        self._ring = bytearray(self.capacity)
        self.head = 0  # bytes consumed (monotonic)
        self.tail = 0  # bytes filled (monotonic)
        self.state = StreamState.IDLE
        self.underflows = 0
        self.overflow_rejects = 0
        # Called when a consumer needs data that is not yet buffered; gives a
        # driver (firmware model or auto-filler in core-only runs) a chance
        # to push more bytes synchronously.
        self.refill_hook: Optional[Callable[["StreamBuffer", int], None]] = None
        # Called when a producer needs space that is not yet free; gives a
        # driver a chance to drain completed pages synchronously.
        self.space_hook: Optional[Callable[["StreamBuffer", int], None]] = None

    # -- pointer views -------------------------------------------------------

    @property
    def available(self) -> int:
        """Bytes buffered and not yet consumed."""
        return self.tail - self.head

    @property
    def free_space(self) -> int:
        return self.capacity - self.available

    @property
    def head_csr(self) -> int:
        return self.head % self.capacity

    @property
    def tail_csr(self) -> int:
        return self.tail % self.capacity

    @property
    def exhausted(self) -> bool:
        """No data left and the producer has finished."""
        return self.available == 0 and self.state in (StreamState.DRAINING, StreamState.CLOSED)

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> None:
        if self.state is not StreamState.IDLE:
            raise StreamError(f"stream {self.stream_id} already open (state={self.state})")
        self.state = StreamState.ACTIVE

    def finish_producing(self) -> None:
        """Producer signals end of stream; remaining bytes stay drainable."""
        if self.state is StreamState.ACTIVE:
            self.state = StreamState.DRAINING
        elif self.state is StreamState.IDLE:
            self.state = StreamState.DRAINING

    def close(self) -> None:
        self.state = StreamState.CLOSED

    def reset(self) -> None:
        self.head = 0
        self.tail = 0
        self.state = StreamState.IDLE
        self.underflows = 0
        self.overflow_rejects = 0

    # -- producer side ---------------------------------------------------------

    def push(self, data: bytes) -> None:
        """Append ``data`` at the tail. Raises on overflow or a closed stream."""
        if self.state in (StreamState.CLOSED,):
            raise StreamError(f"push on closed stream {self.stream_id}")
        if self.state is StreamState.IDLE:
            self.open()
        if len(data) > self.free_space and self.space_hook is not None:
            self.space_hook(self, len(data))
        if len(data) > self.free_space:
            self.overflow_rejects += 1
            raise StreamError(
                f"stream {self.stream_id} overflow: pushing {len(data)} with "
                f"{self.free_space} free"
            )
        pos = self.tail % self.capacity
        first = min(len(data), self.capacity - pos)
        self._ring[pos : pos + first] = data[:first]
        if first < len(data):
            self._ring[0 : len(data) - first] = data[first:]
        self.tail += len(data)

    def can_push(self, size: int) -> bool:
        return self.state is not StreamState.CLOSED and size <= self.free_space

    # -- consumer side -----------------------------------------------------------

    def peek(self, size: int) -> Optional[bytes]:
        """Read ``size`` bytes at the head without consuming, or None if short."""
        if size <= 0:
            raise StreamError("peek size must be positive")
        if size > self.capacity:
            raise StreamError(f"peek of {size} exceeds stream capacity {self.capacity}")
        if self.available < size:
            if self.refill_hook is not None:
                self.refill_hook(self, size)
            if self.available < size:
                return None
        pos = self.head % self.capacity
        first = min(size, self.capacity - pos)
        out = bytes(self._ring[pos : pos + first])
        if first < size:
            out += bytes(self._ring[0 : size - first])
        return out

    def consume(self, size: int) -> Optional[bytes]:
        """Destructively read ``size`` bytes from the head.

        Returns None when the stream cannot currently satisfy the request:
        the caller (core model) decides whether that means *stall* (producer
        still active) or *end of stream* (see :attr:`exhausted`).
        """
        data = self.peek(size)
        if data is None:
            self.underflows += 1
            return None
        self.head += size
        return data

    def drain_page(self) -> Optional[bytes]:
        """Firmware-side pop of one full page (or the final partial tail)."""
        page = self.config.page_bytes
        if self.available >= page:
            return self.consume(page)
        if self.available > 0 and self.state in (StreamState.DRAINING, StreamState.CLOSED):
            return self.consume(self.available)
        return None


class StreamBufferSet:
    """A direction's worth of stream buffers (all-input or all-output)."""

    def __init__(self, config: StreamBufferConfig, direction: str) -> None:
        if direction not in ("input", "output"):
            raise StreamError("direction must be 'input' or 'output'")
        self.config = config
        self.direction = direction
        self.streams: List[StreamBuffer] = [
            StreamBuffer(config, stream_id=i) for i in range(config.num_streams)
        ]

    def __getitem__(self, stream_id: int) -> StreamBuffer:
        if not 0 <= stream_id < len(self.streams):
            raise StreamError(
                f"stream id {stream_id} out of range (S={len(self.streams)})"
            )
        return self.streams[stream_id]

    def __len__(self) -> int:
        return len(self.streams)

    def reset(self) -> None:
        for stream in self.streams:
            stream.reset()

    @property
    def total_available(self) -> int:
        return sum(s.available for s in self.streams)
