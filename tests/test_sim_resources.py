"""Differential tests: the int-first resources equal their oracle.

``tests/sim_oracle.py`` keeps :class:`~tests.sim_oracle.OracleTimeline`,
:class:`~tests.sim_oracle.OracleFifoResource` and
:class:`~tests.sim_oracle.OraclePooledResource`, the resource primitives
as they were before the int-first grants (every argument through
``as_ns``, a re-wrapped pooled grant, a gap scan on every backfill
grant). A seeded test and a hypothesis test drive the same random
sequences through both implementations:

* FIFO and backfill lanes, with in-order and out-of-order ready times;
* ``int``, integral-``float`` and fractional-``float`` arguments, and
  zero durations;
* pooled lanes with explicit units and least-loaded picks;
* ``occupy`` with and without ``busy_ns``, and ``reset``;
* negative durations, NaN/inf and inverted occupancies.

After every step they compare the outcome (the grant's repr, so an
``int`` field cannot turn into a ``float``, or the exception's type and
message) and the whole observable state: ``free_at``, ``busy_ns``,
``grants``, the busy intervals, ``busy_within``, ``utilisation``,
``least_loaded`` and ``horizon_ns``.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sim import FifoResource, PooledResource, SimTimeError  # noqa: E402

from tests.sim_oracle import OracleFifoResource, OraclePooledResource  # noqa: E402

UNITS = 3
#: Window ends probed after every step: before, inside and past the
#: booked span, as ints and floats.
PROBES = (-5, 0, 1, 37, 250, 999.5, 1_000, 4_321, 10**9)


def _as_kind(value: int, kind: str):
    """``value`` as an int, an integral float or a fractional float."""
    if kind == "int":
        return value
    if kind == "float":
        return float(value)
    return value + (0.25, 0.5, 0.75)[value % 3]


def _outcome(call):
    try:
        return ("ok", repr(call()))
    except Exception as err:  # the differential compares the exception too
        return ("raised", type(err), str(err))


def _lane_state(lane):
    return (
        lane.free_at_ns,
        lane.busy_ns,
        lane.grants,
        list(lane._intervals),
        list(lane._starts),
        [lane.busy_within(p) for p in PROBES if p.__class__ is int],
    )


def _fifo_state(res):
    return (
        res.free_at_ns,
        res.busy_ns,
        res.grants,
        _lane_state(res._lane),
        [res.busy_within(p) for p in PROBES],
        [res.utilisation(p) for p in PROBES],
    )


def _pool_state(res):
    return (
        [res.free_at(u) for u in range(res.units)],
        [res.busy_ns(u) for u in range(res.units)],
        [_lane_state(lane) for lane in res._lanes],
        res.least_loaded(),
        res.horizon_ns,
    )


def _apply(res, op):
    """Run one op on ``res``; returns its outcome."""
    name = op[0]
    if name == "acquire":
        _, ready, duration, unit = op
        if unit is None:
            return _outcome(lambda: res.acquire(ready, duration))
        return _outcome(lambda: res.acquire(ready, duration, unit=unit))
    if name == "occupy":
        _, unit, start, done, busy = op
        if busy is None:
            return _outcome(lambda: res.occupy(unit, start, done))
        return _outcome(lambda: res.occupy(unit, start, done, busy_ns=busy))
    assert name == "reset"
    return _outcome(res.reset)


def _run_differential(make_pair, state, ops):
    fast, oracle = make_pair()
    assert state(fast) == state(oracle)
    for step, op in enumerate(ops):
        assert _apply(fast, op) == _apply(oracle, op), (step, op)
        assert state(fast) == state(oracle), (step, op)


def _fifo_pair(backfill):
    return lambda: (
        FifoResource("bus", backfill=backfill),
        OracleFifoResource("bus", backfill=backfill),
    )


def _pool_pair():
    return PooledResource("planes", UNITS), OraclePooledResource("planes", UNITS)


#: Ops both implementations must refuse the same way, booking nothing.
_BAD = (
    ("acquire", 10, -1, None),
    ("acquire", 10, -0.5, None),
    ("acquire", 10, -math.inf, None),
    ("acquire", math.nan, 10, None),
    ("acquire", math.inf, 10, None),
    ("acquire", 10, math.nan, None),
    ("acquire", 10, math.inf, None),
    ("occupy", 1, 50, 40, None),
    ("occupy", 1, math.nan, 40, None),
    ("occupy", 1, 10, math.inf, None),
    ("occupy", 1, 10, 40, math.nan),
)


def _random_ops(rng: random.Random, count: int, order: str, pooled: bool):
    """``order``: ready times ``in-order``, ``out-of-order``, or on a 10 ns
    ``grid`` with 10 ns durations, where grants end exactly at the start
    of a booked interval and gaps fit exactly."""
    ops = []
    ready = 0
    for _ in range(count):
        roll = rng.random()
        kind = rng.choice(("int", "int", "float", "frac"))
        unit = rng.choice((None, *range(UNITS))) if pooled else None
        if roll < 0.03:
            ops.append(("reset",))
            ready = 0
        elif roll < 0.08:
            bad = rng.choice(_BAD)
            if pooled or bad[0] == "acquire":
                ops.append(bad)
        elif pooled and roll < 0.25:
            start = rng.randrange(0, 2_000)
            done = start + rng.choice((0, rng.randrange(1, 400)))
            busy = rng.choice((None, rng.randrange(0, done - start + 1)))
            ops.append((
                "occupy",
                rng.randrange(UNITS),
                _as_kind(start, kind),
                _as_kind(done, kind),
                busy if busy is None else _as_kind(busy, kind),
            ))
        else:
            if order == "in-order":
                ready += rng.choice((0, 0, rng.randrange(1, 120)))
            elif order == "out-of-order":
                ready = rng.randrange(0, 3_000)
            else:
                ready = 10 * rng.randrange(0, 60)
            if order == "grid":
                duration = rng.choice((0, 10, 20, 30))
            else:
                duration = rng.choice((0, rng.randrange(1, 60), rng.randrange(60, 400)))
            ops.append((
                "acquire",
                _as_kind(ready, kind),
                _as_kind(duration, rng.choice(("int", "float", "frac"))),
                unit,
            ))
    return ops


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("order", ["in-order", "out-of-order", "grid"])
def test_seeded_sequences_match_oracle(seed, order):
    rng = random.Random(seed)
    for backfill in (False, True):
        ops = _random_ops(rng, 400, order, pooled=False)
        _run_differential(_fifo_pair(backfill), _fifo_state, ops)
    ops = _random_ops(rng, 400, order, pooled=True)
    _run_differential(_pool_pair, _pool_state, ops)


_kinds = st.sampled_from(("int", "float", "frac"))
#: Times and durations are mostly on a 10 ns grid, so grants often end
#: exactly where a booked interval starts (the first-fit edge case).
_grid = st.integers(min_value=0, max_value=30).map(lambda k: 10 * k)
_times = st.tuples(
    st.one_of(_grid, _grid, st.integers(min_value=0, max_value=600)), _kinds
).map(lambda pair: _as_kind(*pair))
_durations = st.tuples(
    st.one_of(st.sampled_from((0, 10, 20, 30)), st.integers(min_value=0, max_value=80)),
    _kinds,
).map(lambda pair: _as_kind(*pair))
_units = st.one_of(st.none(), st.integers(min_value=0, max_value=UNITS - 1))
_fifo_acquires = st.tuples(st.just("acquire"), _times, _durations, st.none())
_pool_acquires = st.tuples(st.just("acquire"), _times, _durations, _units)
_occupies = st.builds(
    lambda unit, start, length, busy: ("occupy", unit, start, start + length, busy),
    st.integers(min_value=0, max_value=UNITS - 1),
    _times,
    _durations,
    st.one_of(st.none(), _durations),
)
_resets = st.just(("reset",))
_fifo_ops = st.lists(
    st.one_of(
        _fifo_acquires,
        _fifo_acquires,
        _fifo_acquires,
        _resets,
        st.sampled_from([bad for bad in _BAD if bad[0] == "acquire"]),
    ),
    max_size=60,
)
_pool_ops = st.lists(
    st.one_of(_pool_acquires, _pool_acquires, _occupies, _resets, st.sampled_from(_BAD)),
    max_size=60,
)


@settings(max_examples=250, deadline=None)
@given(ops=_fifo_ops, backfill=st.booleans())
def test_fifo_lanes_match_oracle(ops, backfill):
    _run_differential(_fifo_pair(backfill), _fifo_state, ops)


@settings(max_examples=150, deadline=None)
@given(ops=_pool_ops)
def test_pooled_lanes_match_oracle(ops):
    _run_differential(_pool_pair, _pool_state, ops)


# -- pinned behaviour --------------------------------------------------------


def test_reset_forgets_busy_and_grant_totals():
    """``reset`` rewinds the totals with the pointer and the intervals."""
    bus = FifoResource("bus")
    bus.acquire(0, 100)
    bus.acquire(200, 50)
    bus.reset()
    bus.acquire(0, 10)
    assert bus.busy_within(10**9) == 10
    assert (bus.busy_ns, bus.grants, bus.free_at_ns) == (10, 1, 10)
    pool = PooledResource("cores", 2)
    pool.acquire(0, 100, unit=1)
    pool.occupy(1, 0, 300, busy_ns=40)
    pool.reset()
    assert (pool.free_at(1), pool.busy_ns(1), pool._lanes[1].grants) == (0, 0, 0)


def test_grants_are_int_and_stamped_with_their_unit():
    pool = PooledResource("planes", 4)
    grant = pool.acquire(10.6, 3.4, unit=2)
    assert repr(grant) == "Grant(start_ns=11, done_ns=14, unit=2)"
    assert pool.acquire(0, 5).unit == 0
    lane = FifoResource("bus", backfill=True)
    assert lane.acquire(100, 10) == (100, 110, 0)
    assert lane.acquire(0.4, 20.5) == (0, 20, 0)  # backfilled into [0, 100)


def test_non_finite_and_negative_arguments_raise():
    bus = FifoResource("bus")
    with pytest.raises(SimTimeError):
        bus.acquire(math.inf, 1)
    with pytest.raises(SimTimeError, match="negative duration -1 on bus"):
        bus.acquire(0, -1)
    pool = PooledResource("cores", 1)
    with pytest.raises(SimTimeError):
        pool.occupy(0, 0, 10, busy_ns=math.nan)
    assert (bus.grants, pool.busy_ns(0)) == (0, 0)

