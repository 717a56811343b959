"""Unit tests for the unified discrete-event kernel (`repro.sim`)."""

import math

import pytest

from repro.sim import (
    FifoResource,
    PooledResource,
    SimTimeError,
    Simulator,
    as_ns,
)

from tests.sim_oracle import HeapSimulator

# -- integer-ns time --------------------------------------------------------


def test_as_ns_rounds_to_nearest_integer():
    assert as_ns(10) == 10
    assert as_ns(10.4) == 10
    assert as_ns(10.6) == 11
    assert as_ns(0.0) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_as_ns_rejects_non_finite(bad):
    with pytest.raises(SimTimeError):
        as_ns(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_schedule_rejects_non_finite_delay(bad):
    sim = Simulator()
    with pytest.raises(SimTimeError) as err:
        sim.schedule(bad, lambda: None)
    assert "non-finite" in str(err.value)


def test_schedule_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule_at(10, lambda: None)
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError):
        sim.schedule_at(5, lambda: None)


# -- deterministic ordering -------------------------------------------------


def test_ties_dispatch_in_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule_at(100, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_beats_insertion_order_at_equal_times():
    sim = Simulator()
    order = []
    sim.schedule_at(100, lambda: order.append("late"), priority=1)
    sim.schedule_at(100, lambda: order.append("early"), priority=0)
    sim.run()
    assert order == ["early", "late"]


def test_run_until_advances_clock_to_bound():
    sim = Simulator()
    fired = []
    sim.schedule_at(50, lambda: fired.append(50))
    sim.schedule_at(500, lambda: fired.append(500))
    sim.run(until_ns=200)
    assert fired == [50]
    assert sim.now == 200
    sim.run()
    assert fired == [50, 500]


# -- processes --------------------------------------------------------------


def test_process_waits_and_completes():
    sim = Simulator()
    marks = []

    def flow():
        marks.append(("start", sim.now))
        yield sim.wait(100)
        marks.append(("mid", sim.now))
        yield sim.wait_until(500)
        marks.append(("end", sim.now))

    proc = sim.spawn(flow())
    sim.run()
    assert marks == [("start", 0), ("mid", 100), ("end", 500)]
    assert not proc.alive


def test_process_bare_number_yield_is_a_delay():
    sim = Simulator()
    marks = []

    def flow():
        yield 40
        marks.append(sim.now)
        yield 2.6  # floats round at the scheduling boundary
        marks.append(sim.now)

    sim.spawn(flow())
    sim.run()
    assert marks == [40, 43]


def test_wait_until_the_past_resumes_now():
    sim = Simulator()
    marks = []

    def flow():
        yield sim.wait(100)
        yield sim.wait_until(10)  # analytic schedule already passed
        marks.append(sim.now)

    sim.spawn(flow())
    sim.run()
    assert marks == [100]


def test_same_instant_processes_round_robin():
    # Two processes waking at the same instants interleave in spawn order —
    # the property the firmware engine flows rely on for FIFO bus fairness.
    sim = Simulator()
    order = []

    def flow(tag):
        for step in range(3):
            yield sim.wait_until(step * 10)
            order.append((step, tag))

    sim.spawn(flow("a"))
    sim.spawn(flow("b"))
    sim.run()
    assert order == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "a"), (2, "b")]


# -- FifoResource -----------------------------------------------------------


def test_fifo_resource_grants_in_call_order():
    bus = FifoResource("bus")
    first = bus.acquire(0, 100)
    second = bus.acquire(0, 50)
    third = bus.acquire(500, 25)
    assert (first.start_ns, first.done_ns) == (0, 100)
    assert (second.start_ns, second.done_ns) == (100, 150)
    assert (third.start_ns, third.done_ns) == (500, 525)
    assert bus.free_at_ns == 525
    assert bus.busy_ns == 175
    assert bus.grants == 3


def test_fifo_resource_rejects_bad_times():
    bus = FifoResource("bus")
    with pytest.raises(ValueError):
        bus.acquire(0, -1)
    with pytest.raises(SimTimeError):
        bus.acquire(float("nan"), 10)


def test_utilisation_clips_transfer_straddling_the_window():
    # Regression for the historical ChannelBus.utilisation over-count: a
    # transfer straddling until_ns was counted in full and the result
    # clamped with min(1.0, ...). The busy overlap must be computed within
    # [0, until_ns] exactly.
    bus = FifoResource("bus")
    bus.acquire(0, 60)  # [0, 60)
    bus.acquire(80, 40)  # [80, 120), straddles until=100
    assert bus.busy_within(100) == 80
    assert bus.utilisation(100) == pytest.approx(0.8)
    # The old code computed min(1.0, (60 + 40) / 100) == 1.0.
    assert bus.utilisation(100) < 1.0
    assert bus.utilisation(0) == 0.0
    assert bus.utilisation(1000) == pytest.approx(100 / 1000)


def test_channel_bus_utilisation_uses_exact_overlap():
    from repro.config import FlashConfig
    from repro.flash.channel import ChannelBus

    cfg = FlashConfig()
    bus = ChannelBus(cfg, 0)  # 1 B/ns default bandwidth
    bus.transfer(4096, 0)  # [0, 4096)
    bus.transfer(4096, 6000)  # [6000, 10096)
    expected = (4096 + 2000) / 8000
    assert bus.utilisation(8000) == pytest.approx(expected)
    assert bus.utilisation(8000) < 1.0


def test_back_to_back_grants_coalesce():
    bus = FifoResource("bus")
    for _ in range(10):
        bus.acquire(0, 10)  # saturated: one coalesced interval [0, 100)
    assert bus.busy_within(55) == 55
    assert bus.utilisation(100) == pytest.approx(1.0)


# -- PooledResource ---------------------------------------------------------


def test_pooled_least_loaded_ties_to_lowest_index():
    pool = PooledResource("cores", 3)
    assert pool.least_loaded() == 0
    first = pool.acquire(0, 100)
    assert first.unit == 0
    second = pool.acquire(0, 50)
    assert second.unit == 1
    assert pool.least_loaded() == 2
    pool.acquire(0, 10, unit=2)
    # 2 frees at 10, before 1 (50) and 0 (100).
    assert pool.least_loaded() == 2


def test_pooled_occupy_moves_free_at_forward_only():
    pool = PooledResource("cores", 2)
    pool.occupy(0, 100, 300, busy_ns=50)
    assert pool.free_at(0) == 300
    assert pool.busy_ns(0) == 50
    pool.occupy(0, 120, 200)  # ends before current horizon
    assert pool.free_at(0) == 300
    assert pool.horizon_ns == 300


def test_pooled_resource_validates():
    with pytest.raises(ValueError):
        PooledResource("empty", 0)
    pool = PooledResource("cores", 2)
    with pytest.raises(ValueError):
        pool.acquire(0, -5)


# -- cross-subsystem composition -------------------------------------------


def test_gc_process_contends_with_offload_on_shared_kernel():
    from repro.config import FlashConfig, SSDConfig, assasin_sb_core
    from repro.ftl.gc import GarbageCollector
    from repro.kernels import get_kernel
    from repro.ssd.device import ComputationalSSD

    # Small blocks so populate closes them (open write points are never
    # reclaimed) and one rewrite round yields a GC victim.
    flash = FlashConfig(
        channels=8,
        chips_per_channel=1,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=32,
    )

    def build():
        config = SSDConfig(name="gc-rig", core=assasin_sb_core(), num_cores=8, flash=flash)
        device = ComputationalSSD(config)
        lpas = device.mount_dataset(2 << 20)
        # Out-of-place rewrites invalidate half of each populated block —
        # alternating channel-stripe rows, since consecutive LPAs spread
        # across channels — so the victim still holds valid pages the
        # collector must relocate; deterministic, so both devices end up
        # in identical FTL state.
        for index, lpa in enumerate(lpas):
            if (index // flash.channels) % 2 == 0:
                device.ftl.write(lpa)
        gc = GarbageCollector(device.ftl, device.array)
        assert gc.pick_victim() is not None
        return device, lpas, gc

    device, lpas, _ = build()
    kernel = get_kernel("scan")
    sample = device.sample_kernel(kernel)
    solo = device.firmware.run_offload(kernel, sample, lpas)

    device, lpas, gc = build()
    sim = Simulator()
    sim.spawn(gc.collect_process(sim, at_ns=0), label="gc")
    shared = device.firmware.run_offload(kernel, sample, lpas, sim=sim)

    assert gc.last_result is not None
    assert gc.last_result.relocated > 0
    # GC relocations stole plane/bus slots from the offload's reads.
    assert shared.completion_ns >= solo.completion_ns
    assert shared.flash_stall_ns >= solo.flash_stall_ns


# -- oracle parity: crashes and cancellation --------------------------------
#
# The calendar-queue loop (``fast``) and the heapq oracle (``reference``,
# tests/sim_oracle.py) must agree on the cold paths too: a crashed process
# is marked dead and re-raised with its label and instant, and
# lazily-cancelled events are skipped without being dispatched, counted, or
# allowed to move the clock.  (The hypothesis suite in test_sim_property.py
# sweeps the hot paths; test_sim_differential.py pins the campaign-level
# equivalence.)

ENGINES = {"reference": HeapSimulator, "fast": Simulator}
ENGINE_CASES = pytest.mark.parametrize("engine", ["reference", "fast"])


@ENGINE_CASES
def test_crashed_process_is_marked_dead_and_chained(engine):
    from repro.sim import SimProcessError

    sim = ENGINES[engine]()

    def body():
        yield 25
        raise RuntimeError("flash went sideways")

    process = sim.spawn(body(), label="victim")
    with pytest.raises(SimProcessError) as err:
        sim.run()
    assert not process.alive
    assert "victim" in str(err.value)
    assert "t=25ns" in str(err.value)
    assert isinstance(err.value.__cause__, RuntimeError)
    # The crash happened *at* the resume instant, and the dispatch that
    # crashed was still counted — the clock and counters stay coherent.
    assert sim.now == 25
    assert sim.processed == 2


@ENGINE_CASES
def test_crashed_process_chains_under_event_budget(engine):
    """A run under an event budget (a check inside the one dispatch loop)
    applies the same crash protocol."""
    from repro.sim import SimProcessError

    sim = ENGINES[engine]()

    def body():
        raise RuntimeError("dead on arrival")
        yield  # pragma: no cover - unreachable

    process = sim.spawn(body(), label="doa")
    with pytest.raises(SimProcessError) as err:
        sim.run(max_events=10)
    assert not process.alive
    assert isinstance(err.value.__cause__, RuntimeError)


@ENGINE_CASES
def test_cancelled_event_is_skipped_not_dispatched(engine):
    sim = ENGINES[engine]()
    fired = []
    keep = sim.schedule(10, lambda: fired.append("keep"))
    drop = sim.schedule(10, lambda: fired.append("drop"))
    assert drop.cancel() is True
    assert drop.cancel() is False  # second cancel is a no-op
    sim.run()
    assert fired == ["keep"]
    assert sim.processed == 1
    assert keep.fired and not drop.fired


@ENGINE_CASES
def test_cancel_after_firing_returns_false(engine):
    sim = ENGINES[engine]()
    event = sim.schedule(5, lambda: None)
    sim.run()
    assert event.fired
    assert event.cancel() is False


@ENGINE_CASES
def test_cancel_at_the_same_instant_is_honoured(engine):
    """An action cancelling a later event scheduled for the *same* instant:
    the calendar queue has already batched both into the live bucket."""
    sim = ENGINES[engine]()
    fired = []
    victim = sim.schedule(10, lambda: fired.append("victim"))
    sim.schedule(10, lambda: victim.cancel(), priority=-1)  # runs first
    sim.run()
    assert fired == []
    assert sim.processed == 1


@ENGINE_CASES
def test_fully_cancelled_instant_does_not_advance_the_clock(engine):
    sim = ENGINES[engine]()
    sim.schedule(10, lambda: None).cancel()
    sim.run()
    assert sim.now == 0
    assert sim.processed == 0
    assert sim.peek_time() is None


@ENGINE_CASES
def test_len_counts_unreaped_cancelled_entries(engine):
    sim = ENGINES[engine]()
    live = sim.schedule(10, lambda: None)
    dead = sim.schedule(20, lambda: None)
    dead.cancel()
    # Cancellation is lazy: the entry stays queued until its instant.
    assert len(sim) == 2 and bool(sim)
    sim.run()
    assert len(sim) == 0 and not bool(sim)
    assert live.fired and not dead.fired


@ENGINE_CASES
def test_single_stepping_matches_run_semantics(engine):
    """`step()` (the SQL session's incremental drain) dispatches exactly
    one live event per call, skipping cancelled entries, on both loops."""
    sim = ENGINES[engine]()
    order = []
    sim.schedule(10, lambda: order.append("a"))
    sim.schedule(10, lambda: order.append("b"), priority=-1)
    sim.schedule(20, lambda: order.append("late")).cancel()
    sim.schedule(30, lambda: order.append("c"))

    def spinner():
        order.append("proc")
        yield 15
        order.append("proc-again")

    sim.spawn(spinner(), label="spinner")

    steps = []
    while sim.step():
        steps.append((sim.now, sim.processed, tuple(order)))
    assert order == ["proc", "b", "a", "proc-again", "c"]
    assert steps[-1] == (30, 5, tuple(order))
    assert sim.step() is False  # drained: further steps are no-ops
    assert sim.now == 30


@ENGINE_CASES
def test_peek_time_skips_cancelled_entries(engine):
    sim = ENGINES[engine]()
    first = sim.schedule(10, lambda: None)
    sim.schedule(10, lambda: None).cancel()
    later = sim.schedule(20, lambda: None)
    assert sim.peek_time() == 10
    first.cancel()
    # The whole t=10 instant is cancelled now: peek reaps past it.
    assert sim.peek_time() == 20
    later.cancel()
    assert sim.peek_time() is None
    sim.run()
    assert sim.now == 0 and sim.processed == 0


@ENGINE_CASES
def test_peek_time_sees_process_resumes(engine):
    sim = ENGINES[engine]()

    def body():
        yield 40

    sim.spawn(body(), label="p")
    assert sim.peek_time() == 0  # the spawn resume itself
    sim.step()
    assert sim.peek_time() == 40
