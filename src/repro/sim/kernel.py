"""The discrete-event kernel: integer-nanosecond clock, deterministic order.

Determinism rules (relied on by the same-seed trace-diff tests):

1. Time is an **integer number of nanoseconds**.  Fractional instants from
   analytic models (cycles-per-byte compute spans, Poisson inter-arrivals)
   are rounded to the nearest nanosecond at the scheduling boundary by
   :func:`as_ns`.
2. Events are ordered by ``(time_ns, priority, seq)``: lower priority
   values first, ties broken by global insertion order.  Two runs issuing
   the same schedule calls therefore dispatch in the same order.
3. Scheduling a non-finite instant (NaN/inf) raises immediately instead of
   silently corrupting the event order.

The loop is a calendar queue: a dict of per-instant *buckets* plus a
small heap of distinct pending times.  A bucket is a plain list of
payloads (an :class:`Event`, or the :class:`Process` handle itself for
resumes — no per-entry tuple, seq draw, or closure is allocated on the hot
path).  All events of one instant dispatch as a batch by plain iteration
with **zero** comparisons or heap traffic.  Appends occur in global
insertion order, so a bucket is already in ``(priority, seq)`` order
unless an append carried a lower priority than its tail, in which case one
lazy *stable* sort by priority restores it (stability supplies the seq
tie-break).

Cancellation (:meth:`Event.cancel`) is lazy deletion: a cancelled event
stays queued until its instant but is skipped without being counted,
traced, or dispatched.

The test suite keeps a single-``heapq`` implementation of the same
contract as an oracle; the property and differential suites compare this
loop against it.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from typing import Callable, Generator, List, Optional, Set, Tuple, Union

from repro.errors import ReproError


class SimTimeError(ReproError, ValueError):
    """An invalid simulation time: non-finite, an instant before now, a
    negative delay or duration, or an occupancy that ends before it starts."""


class SimProcessError(ReproError, RuntimeError):
    """A process body raised; the original exception is the ``__cause__``."""


def as_ns(value: Union[int, float]) -> int:
    """Round an instant/duration to integer nanoseconds, rejecting NaN/inf."""
    if isinstance(value, int):
        return value
    if not math.isfinite(value):
        raise SimTimeError(f"non-finite simulation time {value!r}")
    return int(round(value))


class Event:
    """A scheduled callback at an absolute simulation time (integer ns).

    The returned handle supports :meth:`cancel`; cancellation is lazy —
    the entry stays queued until its instant comes up and is then skipped
    (not dispatched, not counted in ``processed``, not traced).
    """

    __slots__ = ("time_ns", "seq", "action", "label", "priority", "cancelled", "fired")

    def __init__(
        self,
        time_ns: int,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.action = action
        self.label = label
        self.priority = priority
        self.cancelled = False
        self.fired = False

    def cancel(self) -> bool:
        """Revoke the event; returns False if it already fired (or was
        cancelled before).  Safe to call from any callback, including one
        running at the same instant the event is scheduled for."""
        if self.fired or self.cancelled:
            return False
        self.cancelled = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return (
            f"Event(time_ns={self.time_ns}, seq={self.seq}, "
            f"priority={self.priority}, label={self.label!r}, {state})"
        )


class Process:
    """Handle for a generator-based process spawned on a :class:`Simulator`.

    The generator *yields waits*: an integer/float delay in nanoseconds, or
    the requests produced by :meth:`Simulator.wait` (a bare non-negative
    ``int``, else a sentinel pair) / :meth:`Simulator.wait_until` (a
    sentinel pair).  Between waits the process body runs
    synchronously at the current simulation instant (issuing resource
    reservations, mutating state, scheduling callbacks).
    """

    __slots__ = ("label", "alive", "_gen")

    #: Process resumes always dispatch at the default priority; exposing it
    #: as a class attribute lets the loop sort mixed Event/Process buckets
    #: with one shared ``attrgetter("priority")`` key.
    priority = 0

    def __init__(self, gen: Generator, label: str) -> None:
        self._gen = gen
        self.label = label
        self.alive = True


#: Wait requests a process generator may yield.
_WAIT_DELAY = "delay"
_WAIT_UNTIL = "until"

#: Internal marker: the generator finished (distinct from any yieldable value).
_STOPPED = object()

#: Stable-sort key for calendar buckets.  Entries are appended in global
#: seq order, so a *stable* sort by priority alone reproduces the full
#: (priority, seq) order without materialising per-entry seq tuples.
_PRIORITY_OF = operator.attrgetter("priority")


class Simulator:
    """Deterministic event loop shared by every timed subsystem.

    ``tracer`` (a :class:`repro.telemetry.tracer.NullTracer` by default)
    gets one instant event per dispatched callback on the ``scheduler``
    track, named by the event's label — telemetry only observes, it never
    changes ordering or timing.
    """

    def __init__(self, tracer=None) -> None:
        from repro.telemetry.tracer import NULL_TRACER

        if tracer is None:
            tracer = NULL_TRACER
        # Calendar buckets keyed by instant.  Each bucket is a plain list of
        # payloads — an Event or, for process resumes, the Process handle
        # itself; no per-entry tuple or seq is allocated.  Appends happen in
        # global insertion (seq) order, so list order is (priority, seq)
        # order until an append carries a *lower* priority than the tail;
        # ``_unsorted`` marks such buckets for one lazy stable sort by
        # priority (stability restores the seq tie-break).  ``_times`` is a
        # heap of the distinct instants owning a bucket.
        self._buckets: dict = {}
        self._times: List[int] = []
        self._unsorted: Set[int] = set()
        self._size = 0
        # While the loop dispatches the bucket at ``_active_time``,
        # same-instant insertions append straight to ``_active_bucket``;
        # ``_active_dirty`` triggers a re-sort of the not-yet-dispatched
        # tail if such an append broke (priority, seq) order.
        self._active_time = -1
        self._active_bucket: Optional[list] = None
        self._active_dirty = False
        self._counter = itertools.count()
        self._tracer = tracer
        self._null_tracer = tracer is NULL_TRACER
        self.now: int = 0
        self.processed: int = 0

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay_ns: Union[int, float],
        action: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` to run ``delay_ns`` after the current time."""
        if isinstance(delay_ns, float) and not math.isfinite(delay_ns):
            raise SimTimeError(f"cannot schedule a non-finite delay ({delay_ns!r})")
        if delay_ns < 0:
            raise SimTimeError(f"cannot schedule into the past (delay={delay_ns})")
        return self.schedule_at(self.now + delay_ns, action, label, priority)

    def schedule_at(
        self,
        time_ns: Union[int, float],
        action: Callable[[], None],
        label: str = "",
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` at an absolute time, which must not precede now."""
        when = as_ns(time_ns)
        if when < self.now:
            raise SimTimeError(f"cannot schedule at {time_ns} before now={self.now}")
        event = Event(when, next(self._counter), action, label, priority)
        self._push(when, priority, event)
        return event

    def _push(self, when: int, priority: int, payload) -> None:
        """Insert a payload into the calendar queue."""
        if when == self._active_time:
            bucket = self._active_bucket
            if bucket and priority < bucket[-1].priority:
                self._active_dirty = True
            bucket.append(payload)
        else:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [payload]
                heapq.heappush(self._times, when)
            else:
                if priority < bucket[-1].priority:
                    self._unsorted.add(when)
                bucket.append(payload)
        self._size += 1

    # -- processes ------------------------------------------------------------

    def wait(
        self, delay_ns: Union[int, float]
    ) -> Union[int, Tuple[str, Union[int, float]]]:
        """A wait request: resume the yielding process after ``delay_ns``.

        A non-negative ``int`` is already a valid request (a bare delay), so
        it is returned as it is; anything else is wrapped and checked when
        the process yields it.
        """
        if delay_ns.__class__ is int and delay_ns >= 0:
            return delay_ns
        return (_WAIT_DELAY, delay_ns)

    def wait_until(self, time_ns: Union[int, float]) -> Tuple[str, Union[int, float]]:
        """A wait request: resume the yielding process at ``time_ns``.

        Instants already in the past resume at the current time — processes
        computed from analytic schedules may legitimately "wake" at an
        instant the clock has just passed.
        """
        return (_WAIT_UNTIL, time_ns)

    def spawn(self, gen: Generator, label: str = "process") -> Process:
        """Run ``gen`` as a process, starting at the current instant."""
        process = Process(gen, label)
        # No seq is drawn: bucket append order carries the tie-break.
        self._push(self.now, 0, process)
        return process

    def _resume(self, process: Process) -> None:
        try:
            request = next(process._gen)
        except StopIteration:
            process.alive = False
            return
        except Exception as err:
            self._process_error(process, err)
        self._push(self._wake_time(request, self.now), 0, process)

    # -- the loop -------------------------------------------------------------

    def peek_time(self) -> Optional[int]:
        """Time of the next pending live event, or None if the queue is empty."""
        times, buckets = self._times, self._buckets
        while times:
            when = times[0]
            bucket = buckets.get(when)
            live = [
                payload
                for payload in bucket
                if payload.__class__ is Process or not payload.cancelled
            ] if bucket else []
            if live:
                if len(live) != len(bucket):
                    self._size -= len(bucket) - len(live)
                    buckets[when] = live
                return when
            self._size -= len(bucket) if bucket else 0
            heapq.heappop(times)
            buckets.pop(when, None)
        return None

    def step(self) -> bool:
        """Run the next live event; returns False when none remain.

        Cancelled entries encountered on the way are discarded without
        advancing the clock or counting toward ``processed``.
        """
        times, buckets = self._times, self._buckets
        while times:
            when = times[0]
            bucket = buckets.get(when)
            if not bucket:
                heapq.heappop(times)
                buckets.pop(when, None)
                continue
            if when in self._unsorted:
                self._unsorted.discard(when)
                bucket.sort(key=_PRIORITY_OF)
            payload = bucket.pop(0)
            self._size -= 1
            if not bucket:
                heapq.heappop(times)
                del buckets[when]
            if payload.__class__ is Process:
                self.now = when
                self.processed += 1
                self._tracer.instant("scheduler", payload.label or "event", when)
                self._resume(payload)
                return True
            if payload.cancelled:
                continue
            payload.fired = True
            self.now = when
            self.processed += 1
            self._tracer.instant("scheduler", payload.label or "event", when)
            payload.action()
            return True
        return False

    def _process_error(self, process: Process, err: BaseException) -> None:
        """Cold path: a process body raised — mark it dead, add context."""
        process.alive = False
        raise SimProcessError(
            f"process {process.label!r} raised at t={self.now}ns: {err!r}"
        ) from err

    def _wake_time(self, request, now: int) -> int:
        """Decode a wait request yielded by a process into an absolute ns."""
        if isinstance(request, tuple) and len(request) == 2 and request[0] in (
            _WAIT_DELAY,
            _WAIT_UNTIL,
        ):
            kind, value = request
            if kind == _WAIT_DELAY:
                when = now + as_ns(value)
            else:
                when = max(now, as_ns(value))
        else:
            when = now + as_ns(request)
        if when < now:
            raise SimTimeError(f"cannot schedule at {when} before now={now}")
        return when

    def run(
        self,
        until_ns: Optional[Union[int, float]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Drain the queue, optionally stopping at a time or event budget.

        Pops one *instant* at a time and dispatches its whole bucket by
        plain iteration; same-instant insertions made by the callbacks
        land in the live bucket and are picked up by the same ``for``
        (re-sorting the undispatched tail only if an append actually broke
        (priority, seq) order, which the common homogeneous-priority batch
        never does).  Process resumes are fully inlined: no per-wait
        ``Event``/closure allocation, no method-call round trip — the
        dominant cost left is the process body itself.  A recording tracer
        and an event budget are checks inside this one loop, behind a
        single per-entry flag that is off in the campaign hot case.
        """
        bound = None if until_ns is None else as_ns(until_ns)
        times = self._times
        buckets = self._buckets
        buckets_get = buckets.get
        unsorted_times = self._unsorted
        tracer = self._tracer
        tracing = not self._null_tracer
        pop_time = heapq.heappop
        push_time = heapq.heappush
        processed = self.processed
        # The budget is spent when ``processed`` reaches ``limit``.
        limit = -1 if max_events is None else processed + max(max_events, 0)
        checks = tracing or max_events is not None
        unbounded = bound is None
        while times:
            when = times[0]
            if not unbounded and when > bound:
                self.now = bound
                self.processed = processed
                return
            pop_time(times)
            bucket = buckets.pop(when)
            if when in unsorted_times:
                unsorted_times.discard(when)
                bucket.sort(key=_PRIORITY_OF)
            previous_now = self.now
            before = processed
            self.now = when
            self._active_time = when
            self._active_bucket = bucket
            self._active_dirty = False
            pos = 0
            pushed = 0
            for payload in bucket:
                if checks:
                    if processed == limit:
                        # Put the sorted, undispatched rest back and stop.
                        self._active_time = -1
                        self._active_bucket = None
                        rest = bucket[pos:]
                        if rest:
                            buckets[when] = rest
                            push_time(times, when)
                        self._size += pushed - pos
                        self.processed = processed
                        if processed == before:
                            self.now = previous_now
                        return
                    if tracing and (payload.__class__ is Process or not payload.cancelled):
                        tracer.instant("scheduler", payload.label or "event", when)
                pos += 1
                if payload.__class__ is Process:
                    processed += 1
                    try:
                        request = next(payload._gen)
                    except StopIteration:
                        payload.alive = False
                        request = _STOPPED
                    except Exception as err:
                        self._size += pushed - pos
                        self.processed = processed
                        self._process_error(payload, err)
                    if request is not _STOPPED:
                        # Fast paths: a bare non-negative int delay, and
                        # wait_until with an int instant. Everything else
                        # (floats, negatives, malformed requests) is
                        # decoded and checked by _wake_time.
                        cls = request.__class__
                        if cls is int and request >= 0:
                            wake = when + request
                        elif (
                            cls is tuple
                            and len(request) == 2
                            and request[0] is _WAIT_UNTIL
                            and request[1].__class__ is int
                        ):
                            wake = request[1] if request[1] > when else when
                        else:
                            try:
                                wake = self._wake_time(request, when)
                            except Exception:
                                # An invalid request: the resume still
                                # counts, as when a process body raises.
                                self._size += pushed - pos
                                self.processed = processed
                                raise
                        pushed += 1
                        if wake == when:
                            if bucket[-1].priority > 0:
                                self._active_dirty = True
                            bucket.append(payload)
                        else:
                            target = buckets_get(wake)
                            if target is None:
                                buckets[wake] = [payload]
                                push_time(times, wake)
                            else:
                                if target[-1].priority > 0:
                                    unsorted_times.add(wake)
                                target.append(payload)
                elif not payload.cancelled:
                    payload.fired = True
                    processed += 1
                    self.processed = processed
                    payload.action()
                if self._active_dirty:
                    self._active_dirty = False
                    tail = bucket[pos:]
                    tail.sort(key=_PRIORITY_OF)
                    bucket[pos:] = tail
            self._size += pushed - pos
            self._active_time = -1
            self._active_bucket = None
            if processed == before:
                # Every entry at this instant was cancelled: discard them
                # without advancing the clock.
                self.now = previous_now
        self.processed = processed
        if not unbounded and bound > self.now:
            self.now = bound

    def __len__(self) -> int:
        """Pending entries, *including* not-yet-reaped cancelled ones
        (cancellation is lazy; see :meth:`Event.cancel`)."""
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
