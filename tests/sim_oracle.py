"""Test oracles for the simulation kernel (`repro.sim`).

:class:`HeapSimulator` is the heapq event loop: the oracle for
:class:`repro.sim.Simulator`.  One ``heapq`` ordered by
``(time_ns, priority, seq)`` — simple and obviously correct.  It
implements the same contract as the production calendar-queue loop (same
:class:`~repro.sim.Event` / :class:`~repro.sim.Process` handles, wait
requests, cancellation, crash protocol), so the property, kernel and
differential suites run one schedule through both and compare dispatch
order, clock values and ``processed`` counts.

:class:`OracleTimeline`, :class:`OracleFifoResource` and
:class:`OraclePooledResource` are the resource primitives as they were
before the int-first grants: every argument goes through ``as_ns``,
every grant pays the optional-telemetry branches, a pooled grant is
re-wrapped to carry its unit, and backfill always scans the gaps.  Their
one change is the reset fix: :meth:`OracleTimeline.reset` also zeroes
``busy_ns`` and ``grants``.  ``tests/test_sim_resources.py`` drives
random grant sequences through them and through :mod:`repro.sim.resources`.

Only tests and benchmarks use this module.
"""

import bisect
import heapq
from typing import List, Optional, Tuple, Union

from repro.sim import Event, Grant, Process, SimTimeError, Simulator, as_ns
from repro.sim.kernel import _WAIT_DELAY, _WAIT_UNTIL


class HeapSimulator(Simulator):
    """:class:`repro.sim.Simulator` dispatching from a single heap."""

    def __init__(self, tracer=None) -> None:
        super().__init__(tracer)
        self._heap: List[Tuple[int, int, int, Event]] = []

    def schedule_at(self, time_ns, action, label: str = "", priority: int = 0) -> Event:
        when = as_ns(time_ns)
        if when < self.now:
            raise SimTimeError(f"cannot schedule at {time_ns} before now={self.now}")
        seq = next(self._counter)
        event = Event(when, seq, action, label, priority)
        heapq.heappush(self._heap, (when, priority, seq, event))
        return event

    def spawn(self, gen, label: str = "process") -> Process:
        process = Process(gen, label)
        self.schedule(0, lambda: self._resume(process), label=label)
        return process

    def _resume(self, process: Process) -> None:
        try:
            request = next(process._gen)
        except StopIteration:
            process.alive = False
            return
        except Exception as err:
            self._process_error(process, err)
        if isinstance(request, tuple) and len(request) == 2 and request[0] in (
            _WAIT_DELAY,
            _WAIT_UNTIL,
        ):
            kind, value = request
        else:
            kind, value = _WAIT_DELAY, request
        if kind == _WAIT_DELAY:
            when = self.now + as_ns(value)
        else:
            when = max(self.now, as_ns(value))
        self.schedule_at(when, lambda: self._resume(process), label=process.label)

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        while heap:
            if heap[0][3].cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def step(self) -> bool:
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.fired = True
            self.now = event.time_ns
            self.processed += 1
            self._tracer.instant("scheduler", event.label or "event", event.time_ns)
            event.action()
            return True
        return False

    def run(
        self,
        until_ns: Optional[Union[int, float]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        bound = None if until_ns is None else as_ns(until_ns)
        executed = 0
        heap = self._heap
        while heap:
            top = heap[0]
            if top[3].cancelled:
                heapq.heappop(heap)
                continue
            if bound is not None and top[0] > bound:
                self.now = bound
                return
            if max_events is not None and executed >= max_events:
                return
            self.step()
            executed += 1
        if bound is not None and bound > self.now:
            self.now = bound

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class OracleTimeline:
    """One FIFO reservation lane: free-at pointer plus coalesced intervals."""

    __slots__ = ("free_at_ns", "busy_ns", "grants", "_starts", "_intervals")

    def __init__(self) -> None:
        self.free_at_ns: int = 0
        self.busy_ns: int = 0
        self.grants: int = 0
        self._starts: List[int] = []
        self._intervals: List[Tuple[int, int]] = []

    def reserve(self, ready_ns: int, duration_ns: int) -> Grant:
        start = max(ready_ns, self.free_at_ns)
        done = start + duration_ns
        self.free_at_ns = done
        self.busy_ns += duration_ns
        self.grants += 1
        if duration_ns > 0:
            if self._intervals and self._intervals[-1][1] == start:
                self._intervals[-1] = (self._intervals[-1][0], done)
            else:
                self._starts.append(start)
                self._intervals.append((start, done))
        return Grant(start, done)

    def reserve_backfill(self, ready_ns: int, duration_ns: int) -> Grant:
        """Reserve the *earliest* idle slot >= ``ready_ns`` that fits.

        Strict FIFO order penalises requesters whose data becomes ready
        early: once one grant with a far-future ready time books the lane,
        every later call queues behind it even though the lane sits idle
        in between. A DMA engine serves transfers in readiness order, so
        this variant first-fits into the idle gaps the FIFO pointer left
        behind and only falls back to the tail. When ready times arrive
        non-decreasing (the offload paths), no usable gap ever exists and
        the result is identical to :meth:`reserve`.
        """
        if duration_ns > 0 and self._intervals:
            # Candidate gaps: before the first interval, and between
            # consecutive intervals. Coalescing keeps this list short even
            # on saturated lanes, so the scan is cheap.
            idx = max(0, bisect.bisect_right(self._starts, ready_ns) - 1)
            for i in range(idx, len(self._intervals)):
                gap_start = self._intervals[i - 1][1] if i > 0 else 0
                gap_end = self._intervals[i][0]
                start = max(gap_start, ready_ns)
                if start + duration_ns <= gap_end:
                    done = start + duration_ns
                    # The tail pointer is untouched: this grant consumes
                    # idle time strictly before the last booked interval.
                    self.busy_ns += duration_ns
                    self.grants += 1
                    self._insert_interval(start, done, i)
                    return Grant(start, done)
        return self.reserve(ready_ns, duration_ns)

    def _insert_interval(self, start: int, done: int, at: int) -> None:
        """Insert [start, done) before interval ``at``, coalescing edges."""
        merge_prev = at > 0 and self._intervals[at - 1][1] == start
        merge_next = self._intervals[at][0] == done
        if merge_prev and merge_next:
            self._intervals[at - 1] = (self._intervals[at - 1][0], self._intervals[at][1])
            del self._intervals[at]
            del self._starts[at]
        elif merge_prev:
            self._intervals[at - 1] = (self._intervals[at - 1][0], done)
        elif merge_next:
            self._intervals[at] = (start, self._intervals[at][1])
            self._starts[at] = start
        else:
            self._intervals.insert(at, (start, done))
            self._starts.insert(at, start)

    def occupy(self, start_ns: int, done_ns: int, busy_ns: Optional[int] = None) -> None:
        """Record an explicitly timed occupancy (start may precede free_at)."""
        self.free_at_ns = max(self.free_at_ns, done_ns)
        self.busy_ns += (done_ns - start_ns) if busy_ns is None else busy_ns
        self.grants += 1

    def busy_within(self, until_ns: int) -> int:
        """Exact busy overlap with ``[0, until_ns]``."""
        if until_ns <= 0:
            return 0
        # Intervals are sorted and disjoint; count whole ones before the
        # cut, then the clipped part of the one straddling it.
        idx = bisect.bisect_right(self._starts, until_ns)
        total = 0
        for start, done in self._intervals[:idx]:
            total += min(done, until_ns) - start
        return total

    def reset(self) -> None:
        self.free_at_ns = 0
        self.busy_ns = 0
        self.grants = 0
        self._starts.clear()
        self._intervals.clear()


class OracleFifoResource:
    """A single greedy FIFO timeline (channel bus, host link, crossbar port).

    With a ``telemetry`` bundle the resource publishes
    ``<name>.busy_ns``/``<name>.grants`` counters and emits one span per
    grant on the ``<name>`` trace track; under the default
    :class:`~repro.telemetry.tracer.NullTracer` both are no-ops.
    """

    def __init__(
        self,
        name: str,
        telemetry=None,
        trace_label: str = "busy",
        backfill: bool = False,
    ) -> None:
        self.name = name
        self._lane = OracleTimeline()
        self._trace_label = trace_label
        self._backfill = backfill
        if telemetry is None:
            from repro.telemetry.tracer import NULL_TRACER

            self._tracer = NULL_TRACER
            self._busy_counter = None
            self._grant_counter = None
        else:
            self._tracer = telemetry.tracer
            self._busy_counter = telemetry.counters.counter(f"{name}.busy_ns")
            self._grant_counter = telemetry.counters.counter(f"{name}.grants")

    @property
    def free_at_ns(self) -> int:
        return self._lane.free_at_ns

    @property
    def busy_ns(self) -> int:
        return self._lane.busy_ns

    @property
    def grants(self) -> int:
        return self._lane.grants

    def acquire(self, ready_ns, duration_ns, label: Optional[str] = None) -> Grant:
        """Grant the next FIFO slot of ``duration_ns`` starting >= ``ready_ns``."""
        if duration_ns < 0:
            raise SimTimeError(f"negative duration {duration_ns} on {self.name}")
        if self._backfill:
            grant = self._lane.reserve_backfill(as_ns(ready_ns), as_ns(duration_ns))
        else:
            grant = self._lane.reserve(as_ns(ready_ns), as_ns(duration_ns))
        if self._busy_counter is not None:
            self._busy_counter.inc(grant.done_ns - grant.start_ns)
            self._grant_counter.inc()
        self._tracer.complete(
            self.name, label or self._trace_label, grant.start_ns, grant.done_ns
        )
        return grant

    def occupy(self, start_ns, done_ns, busy_ns=None) -> None:
        """Record an explicitly timed occupancy (non-queuing components).

        Unlike :meth:`acquire`, the interval is taken as given: the
        timeline's free-at pointer only moves forward and overlapping
        occupancies are allowed (a non-blocking fabric port).
        """
        start = as_ns(start_ns)
        done = as_ns(done_ns)
        if done < start:
            raise SimTimeError(f"occupancy on {self.name} ends before it starts")
        self._lane.occupy(start, done, None if busy_ns is None else as_ns(busy_ns))
        if self._busy_counter is not None:
            self._busy_counter.inc(done - start if busy_ns is None else as_ns(busy_ns))
            self._grant_counter.inc()

    def busy_within(self, until_ns) -> int:
        return self._lane.busy_within(as_ns(until_ns))

    def utilisation(self, until_ns) -> float:
        """Exact fraction of ``[0, until_ns]`` this timeline was occupied."""
        window = as_ns(until_ns)
        return self._lane.busy_within(window) / window if window > 0 else 0.0

    def reset(self) -> None:
        """Rewind the timeline (manufacturing-state preloads)."""
        self._lane.reset()


class OraclePooledResource:
    """N unit timelines with explicit-unit or least-loaded selection.

    Models pooled hardware where a request occupies one unit of many:
    flash planes within a die (explicit unit — the address picks the
    plane) or the stream-core pool (least-loaded — the firmware picks the
    first core to free up, ties to the lowest index).
    """

    def __init__(self, name: str, units: int, telemetry=None) -> None:
        if units <= 0:
            raise ValueError(f"pooled resource {name} needs at least one unit")
        self.name = name
        self._lanes = [OracleTimeline() for _ in range(units)]
        if telemetry is None:
            from repro.telemetry.tracer import NULL_TRACER

            self._tracer = NULL_TRACER
            self._busy_counter = None
        else:
            self._tracer = telemetry.tracer
            self._busy_counter = telemetry.counters.counter(f"{name}.busy_ns")

    @property
    def units(self) -> int:
        return len(self._lanes)

    def free_at(self, unit: int) -> int:
        return self._lanes[unit].free_at_ns

    def busy_ns(self, unit: int) -> int:
        return self._lanes[unit].busy_ns

    def least_loaded(self) -> int:
        """The unit that frees first; ties break to the lowest index."""
        return min(range(len(self._lanes)), key=lambda i: self._lanes[i].free_at_ns)

    def acquire(
        self,
        ready_ns,
        duration_ns,
        unit: Optional[int] = None,
        label: Optional[str] = None,
    ) -> Grant:
        """Reserve ``duration_ns`` on ``unit`` (or the least-loaded unit)."""
        if duration_ns < 0:
            raise SimTimeError(f"negative duration {duration_ns} on {self.name}")
        index = self.least_loaded() if unit is None else unit
        grant = self._lanes[index].reserve(as_ns(ready_ns), as_ns(duration_ns))
        if self._busy_counter is not None:
            self._busy_counter.inc(grant.done_ns - grant.start_ns)
        if label is not None:
            self._tracer.complete(
                f"{self.name}/{index}", label, grant.start_ns, grant.done_ns
            )
        return Grant(grant.start_ns, grant.done_ns, index)

    def occupy(self, unit: int, start_ns, done_ns, busy_ns=None) -> None:
        """Record an explicitly timed occupancy on ``unit``.

        Used where the occupancy end is data-dependent (a stream core held
        until its last input page lands) rather than a fixed duration from
        the grant's start; ``busy_ns`` optionally narrows the utilisation
        accounting to the genuinely productive span.
        """
        start = as_ns(start_ns)
        done = as_ns(done_ns)
        if done < start:
            raise SimTimeError(f"occupancy on {self.name}/{unit} ends before it starts")
        self._lanes[unit].occupy(
            start, done, None if busy_ns is None else as_ns(busy_ns)
        )
        if self._busy_counter is not None:
            self._busy_counter.inc(done - start if busy_ns is None else as_ns(busy_ns))

    def utilisations(self, until_ns) -> List[float]:
        window = as_ns(until_ns)
        if window <= 0:
            return [0.0] * len(self._lanes)
        return [lane.busy_ns / window for lane in self._lanes]

    def reset(self) -> None:
        for lane in self._lanes:
            lane.reset()

    @property
    def horizon_ns(self) -> int:
        """Latest free-at instant across all units."""
        return max(lane.free_at_ns for lane in self._lanes)
