#!/usr/bin/env python3
"""The host-speed calibration loop, served by a helper process of its own.

    python3 bench/calibrate.py

answers each line read from standard input with the seconds one run of
:func:`calibrate` took, until standard input closes. ``run.py`` samples
it between ops. The helper imports nothing of the simulator, so its heap,
allocator and garbage-collector state are the same whatever the measured
code does, and a change cannot alter its own scaling factor.
"""

from __future__ import annotations

import heapq
import sys
import time

perf = time.perf_counter


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def calibrate() -> float:
    """Seconds the host takes for a fixed pure-Python loop of the simulator's
    kinds of work: hashed dict lookups, object attribute updates and
    heap-ordered event dispatch."""
    start = perf()
    items = {(k * 2654435761) & 0xFFFFFF: _Item(k) for k in range(3000)}
    keys = list(items)
    events = [(k * 37 % 1000, k) for k in range(1000)]
    heapq.heapify(events)
    for k in range(8000):
        when, seq = heapq.heappop(events)
        items[keys[seq % 3000]].hits += when
        heapq.heappush(events, (when + k % 97, seq + 1))
    return perf() - start


def main() -> None:
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)


if __name__ == "__main__":
    main()
