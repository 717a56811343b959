"""Simulator-core speed bench: the calendar-queue loop vs the heapq oracle.

The workload is the event-loop-bound regime the calendar queue exists for:
hundreds of generator processes each yielding a fixed resume period, so
nearly every simulated instant dispatches a batch of homogeneous events
and the wall clock measures pure loop overhead (no flash timelines, no
kernel pricing). ``fast`` is :class:`repro.sim.Simulator`; ``reference`` is
the single-heapq oracle kept in ``tests/sim_oracle.py``. Both run the
*same* schedule; the dispatch count and final clock must agree exactly
(the differential and property suites prove the stronger bit-identical
claim on the real campaigns).

Emits ``BENCH_sim.json`` with the measured events/sec of both loops and
gates the headline ratio: the simulator must clear ``MIN_SPEEDUP``x the
oracle on the same machine, plus a conservative absolute floor so a
broken build fails in CI rather than shipping.
"""

import time

from conftest import emit_bench, run_once

from repro.sim import Simulator

from tests.sim_oracle import HeapSimulator

LOOPS = {"reference": HeapSimulator, "fast": Simulator}

#: Generator processes resuming on short fixed periods (7 distinct phases,
#: so instants carry batches of same-time events without being degenerate).
#: The count is deliberately large: each instant then dispatches a ~100+
#: event batch, the regime the calendar queue's O(1) bucket operations and
#: batched dispatch target (the heapq reference pays O(log n) per event).
NUM_PROCS = 1000
#: Dispatches measured per run; large enough to swamp setup cost.
MAX_EVENTS = 300_000
#: Best-of-N walls per engine — absorbs CI scheduler noise.
REPEATS = 5

#: The headline gate: simulator events/sec over oracle events/sec.
MIN_SPEEDUP = 3.0
#: Absolute floor for the simulator (observed ~3.9M/s locally; CI boxes
#: are slower and shared, so the floor only catches a collapse).
MIN_FAST_EVENTS_PER_SEC = 300_000.0


def _procs():
    def body(period):
        while True:
            yield period

    return [body(100 + 13 * (i % 7)) for i in range(NUM_PROCS)]


def _run_one(engine):
    """One timed run; returns (processed, now, wall seconds)."""
    sim = LOOPS[engine]()
    for i, proc in enumerate(_procs()):
        sim.spawn(proc, label=f"p{i}")
    start = time.perf_counter()
    sim.run(max_events=MAX_EVENTS)
    wall = time.perf_counter() - start
    return sim.processed, sim.now, wall


def _measure():
    """Best-of-REPEATS for both loops, interleaved.

    Shared CI boxes throttle unpredictably mid-test; alternating the two
    loops inside each repeat keeps a slow window from landing entirely
    on one side of the ratio.
    """
    outcomes = {}
    walls = {"reference": float("inf"), "fast": float("inf")}
    for _ in range(REPEATS):
        for engine in ("reference", "fast"):
            processed, now, wall = _run_one(engine)
            # Every run, either loop, replays the identical schedule.
            assert outcomes.setdefault(engine, (processed, now)) == (processed, now)
            walls[engine] = min(walls[engine], wall)
    return outcomes, walls


def test_fast_engine_meets_speedup_floor(benchmark):
    outcomes, walls = run_once(benchmark, _measure)
    ref_processed, ref_now = outcomes["reference"]
    fast_processed, fast_now = outcomes["fast"]
    ref_wall, fast_wall = walls["reference"], walls["fast"]

    # Same schedule, same outcome — the cheap half of the equivalence
    # claim; the differential suite carries the campaign-level half.
    assert fast_processed == ref_processed
    assert fast_now == ref_now

    ref_rate = ref_processed / ref_wall
    fast_rate = fast_processed / fast_wall
    speedup = fast_rate / ref_rate
    print(
        f"\nreference: {ref_rate:,.0f} events/s  "
        f"fast: {fast_rate:,.0f} events/s  speedup: {speedup:.2f}x"
    )

    payload = {
        "benchmark": "sim_speed",
        "num_procs": NUM_PROCS,
        "max_events": MAX_EVENTS,
        "repeats": REPEATS,
        "reference_events_per_sec": round(ref_rate, 1),
        "fast_events_per_sec": round(fast_rate, 1),
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
    }
    emit_bench(
        "BENCH_sim.json",
        payload,
        sim_events=fast_processed,
        wall_seconds=fast_wall,
        min_events_per_sec_wall=MIN_FAST_EVENTS_PER_SEC,
        rate_floors=[("fast/reference speedup", speedup, MIN_SPEEDUP)],
    )
