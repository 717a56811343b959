"""The heapq event loop: the test oracle for :class:`repro.sim.Simulator`.

One ``heapq`` ordered by ``(time_ns, priority, seq)`` — simple and
obviously correct.  It implements the same contract as the production
calendar-queue loop (same :class:`~repro.sim.Event` / :class:`~repro.sim.Process`
handles, wait requests, cancellation, crash protocol), so the property,
kernel and differential suites run one schedule through both and compare
dispatch order, clock values and ``processed`` counts.  Only tests and
benchmarks use it.
"""

import heapq
from typing import List, Optional, Tuple, Union

from repro.sim import Event, Process, Simulator, as_ns
from repro.sim.kernel import _WAIT_DELAY, _WAIT_UNTIL


class HeapSimulator(Simulator):
    """:class:`repro.sim.Simulator` dispatching from a single heap."""

    def __init__(self, tracer=None) -> None:
        super().__init__(tracer)
        self._heap: List[Tuple[int, int, int, Event]] = []

    def schedule_at(self, time_ns, action, label: str = "", priority: int = 0) -> Event:
        when = as_ns(time_ns)
        if when < self.now:
            raise ValueError(f"cannot schedule at {time_ns} before now={self.now}")
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
