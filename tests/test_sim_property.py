"""Property tests: the calendar-queue :class:`repro.sim.Simulator` equals the
heapq oracle (tests/sim_oracle.py) on *random* schedules, not just the ones
the campaigns happen to issue.

Hypothesis generates adversarial mixes of the whole scheduling surface —
callback events at mixed priorities (including negative), events whose
actions schedule more events at the current instant (the active-bucket
append path), cancellations, and generator processes yielding int/float
delays and ``wait_until`` instants — and asserts both engines produce the
identical dispatch sequence and final ``(now, processed)``.  A second
property replays the same schedules through ``run(max_events=...)`` slices
to pin the budgeted re-shelving path, and a third through ``run(until_ns=...)``
to pin the time-bounded path.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import Simulator  # noqa: E402

from tests.sim_oracle import HeapSimulator  # noqa: E402

#: One wait a process generator yields: a delay (int, or a float that
#: exercises as_ns rounding) or an absolute wait_until instant (which may
#: legitimately lie in the past).
_waits = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=40.0, allow_nan=False, width=32),
    st.tuples(st.just("until"), st.integers(min_value=0, max_value=120)),
)

_events = st.fixed_dictionaries(
    {
        "kind": st.just("event"),
        "delay": st.integers(min_value=0, max_value=60),
        "priority": st.integers(min_value=-2, max_value=2),
        # Same-instant follow-ups scheduled from inside the action: the
        # mixed-priority appends are what force the active bucket's lazy
        # tail re-sort.
        "nested": st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10),
                st.integers(min_value=-1, max_value=1),
            ),
            max_size=2,
        ),
    }
)

_procs = st.fixed_dictionaries(
    {
        "kind": st.just("proc"),
        "waits": st.lists(_waits, min_size=1, max_size=4),
    }
)

_plans = st.fixed_dictionaries(
    {
        "items": st.lists(st.one_of(_events, _procs), min_size=1, max_size=20),
        # Indices (mod the item count) of handles to cancel before running.
        "cancels": st.lists(st.integers(min_value=0, max_value=99), max_size=4),
    }
)


def _build(sim, plan, log):
    """Issue the plan's schedule calls on ``sim``, returning event handles."""
    handles = []
    for idx, item in enumerate(plan["items"]):
        if item["kind"] == "event":

            def action(idx=idx, nested=item["nested"]):
                log.append(("event", idx, sim.now))
                for step, (delay, priority) in enumerate(nested):
                    sim.schedule(
                        delay,
                        lambda idx=idx, step=step: log.append(
                            ("nested", idx, step, sim.now)
                        ),
                        priority=priority,
                    )

            handles.append(
                sim.schedule(item["delay"], action, priority=item["priority"])
            )
        else:

            def body(idx=idx, waits=item["waits"]):
                for wait in waits:
                    log.append(("proc", idx, sim.now))
                    if isinstance(wait, tuple):
                        yield sim.wait_until(wait[1])
                    else:
                        yield wait
                log.append(("proc-done", idx, sim.now))

            sim.spawn(body(), label=f"p{idx}")
            handles.append(None)
    for raw in plan["cancels"]:
        handle = handles[raw % len(handles)]
        if handle is not None:
            handle.cancel()
    return handles


def _run_plan(make_sim, plan, run):
    """Dispatch log, ``run``'s own result, and the final (now, processed)."""
    sim = make_sim()
    log = []
    _build(sim, plan, log)
    result = run(sim)
    return log, result, sim.now, sim.processed


@settings(max_examples=80, deadline=None)
@given(plan=_plans)
def test_random_schedules_dispatch_identically(plan):
    reference = _run_plan(HeapSimulator, plan, lambda sim: sim.run())
    fast = _run_plan(Simulator, plan, lambda sim: sim.run())
    assert fast == reference


@settings(max_examples=60, deadline=None)
@given(plan=_plans, budget=st.integers(min_value=1, max_value=7))
def test_budgeted_slices_dispatch_identically(plan, budget):
    """Draining in max_events slices re-shelves mid-bucket tails; the
    intermediate (now, processed) after every slice must match too."""

    def run_sliced(sim):
        # Drain on peek_time(), not len(): cancellation is lazy, and the
        # loops are free to *reap* cancelled entries at different times
        # (len counts unreaped ones) — but both must always agree on
        # whether anything live remains and on every dispatch they make.
        checkpoints = []
        while sim.peek_time() is not None:
            sim.run(max_events=budget)
            checkpoints.append((sim.now, sim.processed))
            if len(checkpoints) > 500:  # pragma: no cover - runaway guard
                raise AssertionError("schedule did not drain")
        return checkpoints

    reference = _run_plan(HeapSimulator, plan, run_sliced)
    fast = _run_plan(Simulator, plan, run_sliced)
    assert fast == reference


@settings(max_examples=60, deadline=None)
@given(plan=_plans, bound=st.integers(min_value=0, max_value=90))
def test_time_bounded_runs_dispatch_identically(plan, bound):
    reference = _run_plan(HeapSimulator, plan, lambda sim: sim.run(until_ns=bound))
    fast = _run_plan(Simulator, plan, lambda sim: sim.run(until_ns=bound))
    assert fast == reference
