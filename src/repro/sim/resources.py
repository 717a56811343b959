"""Typed resource primitives for the simulation kernel.

A *resource* owns a reservation timeline in integer nanoseconds.  Acquiring
grants the next free slot in strict call order (FIFO arbitration), exactly
the greedy discipline the per-component ``free_at_ns`` floats used to
implement — but with the bookkeeping (busy intervals, grant counts)
centralised and exact.

Grants are int-first: an ``int`` argument is used as it is, and only
other values go through :func:`~repro.sim.kernel.as_ns` (floats round to
the nearest nanosecond, NaN/inf raise :class:`~repro.sim.SimTimeError`).

Busy intervals are kept **coalesced**, as a list of starts and a list of
ends: a grant that starts exactly where the previous one ended extends it
in place, so a saturated bus stores one interval, not one per transfer.
:func:`busy_within` computes the exact overlap of the busy set with
``[0, until_ns]`` — the fix for the historical channel-bus utilisation
over-count, where a transfer straddling the window's end was counted in
full and the over-count then hidden by a ``min(1.0, ...)`` clamp.
:func:`book_gap` first-fits a transfer into an idle gap (backfill). The
flash array's channel buses keep the same interval lists and use both.
"""

from __future__ import annotations

import bisect
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.kernel import SimTimeError, as_ns

#: Grants are built with ``tuple.__new__``: the same object the class call
#: returns, without the NamedTuple ``__new__`` frame.
_tuple_new = tuple.__new__


class Grant(NamedTuple):
    """One granted reservation on a resource timeline."""

    start_ns: int
    done_ns: int
    unit: int = 0


def book_gap(starts: List[int], ends: List[int], ready_ns: int, duration_ns: int) -> Optional[int]:
    """Book the earliest idle gap at or after ``ready_ns`` that fits.

    ``starts`` and ``ends`` are a timeline's busy intervals, sorted,
    disjoint and coalesced. Returns the booked start, or None when no gap
    before the last interval fits (the caller then books the tail). The
    new interval merges with a neighbour it touches.
    """
    if duration_ns <= 0:
        return None
    at = max(0, bisect.bisect_right(starts, ready_ns) - 1)
    for i in range(at, len(starts)):
        gap_start = ends[i - 1] if i > 0 else 0
        start = gap_start if gap_start > ready_ns else ready_ns
        done = start + duration_ns
        if done <= starts[i]:
            merge_prev = i > 0 and ends[i - 1] == start
            if starts[i] == done:
                if merge_prev:
                    ends[i - 1] = ends[i]
                    del starts[i], ends[i]
                else:
                    starts[i] = start
            elif merge_prev:
                ends[i - 1] = done
            else:
                starts.insert(i, start)
                ends.insert(i, done)
            return start
    return None


def busy_within(starts: List[int], ends: List[int], until_ns: int) -> int:
    """Exact overlap of the busy intervals with ``[0, until_ns]``."""
    if until_ns <= 0:
        return 0
    # Intervals are sorted and disjoint; count whole ones before the cut,
    # then the clipped part of the one straddling it.
    cut = bisect.bisect_right(starts, until_ns)
    total = 0
    for start, done in zip(starts[:cut], ends[:cut]):
        total += (done if done < until_ns else until_ns) - start
    return total


class _Timeline:
    """One FIFO reservation lane: free-at pointer plus coalesced intervals.

    ``unit`` is the lane's index in its pool (0 for a lone lane); it is
    stamped on every grant the lane makes. The busy intervals are two int
    lists, their starts and their ends.
    """

    __slots__ = ("unit", "free_at_ns", "busy_ns", "grants", "_starts", "_ends")

    def __init__(self, unit: int = 0) -> None:
        self.unit = unit
        self.free_at_ns: int = 0
        self.busy_ns: int = 0
        self.grants: int = 0
        self._starts: List[int] = []
        self._ends: List[int] = []

    @property
    def _intervals(self) -> List[Tuple[int, int]]:
        """The busy intervals as ``(start, end)`` pairs."""
        return list(zip(self._starts, self._ends))

    def reserve(self, ready_ns: int, duration_ns: int) -> Grant:
        free = self.free_at_ns
        start = ready_ns if ready_ns > free else free
        done = start + duration_ns
        self.free_at_ns = done
        self.busy_ns += duration_ns
        self.grants += 1
        if duration_ns > 0:
            ends = self._ends
            if ends and ends[-1] == start:
                ends[-1] = done
            else:
                self._starts.append(start)
                ends.append(done)
        return _tuple_new(Grant, (start, done, self.unit))

    def reserve_backfill(self, ready_ns: int, duration_ns: int) -> Grant:
        """Reserve the *earliest* idle slot >= ``ready_ns`` that fits.

        Strict FIFO order penalises requesters whose data becomes ready
        early: once one grant with a far-future ready time books the lane,
        every later call queues behind it even though the lane sits idle
        in between. A DMA engine serves transfers in readiness order, so
        this variant first-fits into the idle gaps the FIFO pointer left
        behind (:func:`book_gap`) and only falls back to the tail. When
        ready times arrive non-decreasing (the offload paths), no usable
        gap ever exists and the result is identical to :meth:`reserve`.

        The tail is booked without a scan when ``ready_ns + duration_ns``
        passes the start of the last booked interval, which covers every
        ready time at or past ``free_at_ns``: every gap ends at the start of
        an interval, so no gap can fit.
        """
        starts = self._starts
        if starts and ready_ns + duration_ns <= starts[-1]:
            start = book_gap(starts, self._ends, ready_ns, duration_ns)
            if start is not None:
                # The tail pointer is untouched: this grant consumes idle
                # time strictly before the last booked interval.
                self.busy_ns += duration_ns
                self.grants += 1
                return _tuple_new(Grant, (start, start + duration_ns, self.unit))
        return self.reserve(ready_ns, duration_ns)

    def occupy(self, start_ns: int, done_ns: int, busy_ns: Optional[int] = None) -> None:
        """Record an explicitly timed occupancy (start may precede free_at)."""
        self.free_at_ns = max(self.free_at_ns, done_ns)
        self.busy_ns += (done_ns - start_ns) if busy_ns is None else busy_ns
        self.grants += 1

    def busy_within(self, until_ns: int) -> int:
        """Exact busy overlap with ``[0, until_ns]``."""
        return busy_within(self._starts, self._ends, until_ns)

    def reset(self) -> None:
        """Forget every grant: the pointer, the intervals and the totals."""
        self.free_at_ns = 0
        self.busy_ns = 0
        self.grants = 0
        self._starts.clear()
        self._ends.clear()


class FifoResource:
    """A single greedy FIFO timeline (the host link, a write-path ingress)."""

    def __init__(self, name: str, backfill: bool = False) -> None:
        self.name = name
        self._lane = _Timeline()
        self._reserve = self._lane.reserve_backfill if backfill else self._lane.reserve

    @property
    def free_at_ns(self) -> int:
        return self._lane.free_at_ns

    @property
    def busy_ns(self) -> int:
        return self._lane.busy_ns

    @property
    def grants(self) -> int:
        return self._lane.grants

    def acquire(self, ready_ns, duration_ns) -> Grant:
        """Grant the next FIFO slot of ``duration_ns`` starting >= ``ready_ns``."""
        if duration_ns < 0:
            raise SimTimeError(f"negative duration {duration_ns} on {self.name}")
        if ready_ns.__class__ is not int:
            ready_ns = as_ns(ready_ns)
        if duration_ns.__class__ is not int:
            duration_ns = as_ns(duration_ns)
        return self._reserve(ready_ns, duration_ns)

    def busy_within(self, until_ns) -> int:
        return self._lane.busy_within(as_ns(until_ns))

    def utilisation(self, until_ns) -> float:
        """Exact fraction of ``[0, until_ns]`` this timeline was occupied."""
        window = as_ns(until_ns)
        return self._lane.busy_within(window) / window if window > 0 else 0.0

    def reset(self) -> None:
        """Rewind the timeline (manufacturing-state preloads)."""
        self._lane.reset()


class PooledResource:
    """N unit timelines with explicit-unit or least-loaded selection.

    Models pooled hardware where a request occupies one unit of many,
    either a unit the request names or the least-loaded one: the
    stream-core pool (the firmware picks the first core to free up, ties
    to the lowest index).
    """

    def __init__(self, name: str, units: int) -> None:
        if not isinstance(units, int) or units < 1:
            raise ConfigError(
                f"pooled resource {name} needs a whole number of units >= 1, got {units!r}"
            )
        self.name = name
        self._lanes = [_Timeline(unit) for unit in range(units)]

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

    def acquire(self, ready_ns, duration_ns, unit: Optional[int] = None) -> Grant:
        """Reserve ``duration_ns`` on ``unit`` (or the least-loaded unit)."""
        if duration_ns < 0:
            raise SimTimeError(f"negative duration {duration_ns} on {self.name}")
        lane = self._lanes[self.least_loaded() if unit is None else unit]
        if ready_ns.__class__ is not int:
            ready_ns = as_ns(ready_ns)
        if duration_ns.__class__ is not int:
            duration_ns = as_ns(duration_ns)
        return lane.reserve(ready_ns, duration_ns)

    def occupy(self, unit: int, start_ns, done_ns, busy_ns=None) -> None:
        """Record an explicitly timed occupancy on ``unit``.

        Used where the occupancy end is data-dependent (a stream core held
        until its last input page lands) rather than a fixed duration from
        the grant's start; ``busy_ns`` optionally narrows the utilisation
        accounting to the genuinely productive span.
        """
        start = start_ns if start_ns.__class__ is int else as_ns(start_ns)
        done = done_ns if done_ns.__class__ is int else as_ns(done_ns)
        if done < start:
            raise SimTimeError(f"occupancy on {self.name}/{unit} ends before it starts")
        lane = self._lanes[unit]
        if busy_ns is not None and busy_ns.__class__ is not int:
            busy_ns = as_ns(busy_ns)
        lane.occupy(start, done, busy_ns)

    def reset(self) -> None:
        for lane in self._lanes:
            lane.reset()

    @property
    def horizon_ns(self) -> int:
        """Latest free-at instant across all units."""
        return max(lane.free_at_ns for lane in self._lanes)
