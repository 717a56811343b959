"""Draw streams (``repro.utils.draws``) against the ``random.Random`` methods.

A stream shares its generator with direct ``random()`` calls and with other
streams; a twin generator with the same seed makes the method calls the
stream stands for, in the same order. Every value, and the two generators'
final states, must be equal.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.draws import arrival_draws, below_draws, expovariate_draws

SEEDS = (0, 1, 7, 2**40 + 3)
SIZES = (1, 2, 3, 7, 8, 9, 25, 900, 20_000, 2**31, 2**31 + 1, 10**18)
RATES = (1.0, 1.0 / 400.0, 2.5, 1e-9, -3.0, math.inf)
DRAWS = 200


def _twins(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_below_draws_are_randrange(seed, n):
    rng, twin = _twins(seed)
    stream = below_draws(rng, n)
    for i in range(DRAWS):
        assert next(stream) == twin.randrange(n)
        if i % 3 == 0:
            assert rng.random() == twin.random()
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_offset_draws_are_randint(seed, n):
    rng, twin = _twins(seed)
    low = -99_999
    draw = below_draws(rng, n).__next__
    for i in range(DRAWS):
        assert low + draw() == twin.randint(low, low + n - 1)
        if i % 2:
            assert rng.random() == twin.random()
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_indexed_draws_are_choice(seed, n):
    rng, twin = _twins(seed)
    seq = range(100, 100 + n)
    draw = below_draws(rng, len(seq)).__next__
    for i in range(DRAWS):
        assert seq[draw()] == twin.choice(seq)
        if i % 4 == 1:
            assert rng.random() == twin.random()
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("lambd", RATES)
@pytest.mark.parametrize("seed", SEEDS)
def test_expovariate_draws_are_expovariate(seed, lambd):
    rng, twin = _twins(seed)
    stream = expovariate_draws(rng, lambd)
    for i in range(DRAWS):
        value, expected = next(stream), twin.expovariate(lambd)
        assert value.hex() == expected.hex()
        if i % 3 == 2:
            assert rng.random() == twin.random()
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_on_one_generator_interleave_like_the_methods(seed):
    # The shape of a ZNS tenant arrival: a gap, a key, then a coin.
    rng, twin = _twins(seed)
    gap = expovariate_draws(rng, 1.0 / 400.0).__next__
    key = below_draws(rng, 20_000).__next__
    for _ in range(DRAWS):
        assert gap() == twin.expovariate(1.0 / 400.0)
        assert key() == twin.randrange(20_000)
        assert rng.random() == twin.random()
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("lambd, n", [(1.0 / 400.0, 20_000), (1.0, 1), (2.5, 300),
                                      (-3.0, 2**31 + 1), (math.inf, 7)])
@pytest.mark.parametrize("seed", SEEDS)
def test_arrival_draws_are_expovariate_randrange_random(seed, lambd, n):
    rng, twin = _twins(seed)
    stream = arrival_draws(rng, lambd, n)
    for i in range(DRAWS):
        gap, key, coin = next(stream)
        assert gap.hex() == twin.expovariate(lambd).hex()
        assert key == twin.randrange(n)
        assert coin == twin.random()
        if i % 5 == 4:
            assert rng.getrandbits(9) == twin.getrandbits(9)
    assert rng.getstate() == twin.getstate()


#: One step of an interleaving: a stream draw or a direct generator call.
_STEPS = st.one_of(
    st.tuples(st.just("below"), st.sampled_from(SIZES)),
    st.tuples(st.just("randint"), st.sampled_from(SIZES)),
    st.tuples(st.just("choice"), st.sampled_from(("OFP", "AN", tuple(range(40))))),
    st.tuples(st.just("expo"), st.sampled_from(RATES)),
    st.tuples(st.just("random"), st.none()),
    st.tuples(st.just("getrandbits"), st.integers(1, 70)),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64), steps=st.lists(_STEPS, max_size=60))
def test_any_interleaving_matches_the_method_calls(seed, steps):
    rng, twin = _twins(seed)
    streams = {}

    def stream(kind, arg):
        # Streams are made on first use, as a caller binds them once.
        if (kind, arg) not in streams:
            if kind == "expo":
                streams[kind, arg] = expovariate_draws(rng, arg).__next__
            else:
                n = len(arg) if kind == "choice" else arg
                streams[kind, arg] = below_draws(rng, n).__next__
        return streams[kind, arg]

    for kind, arg in steps:
        if kind == "below":
            assert stream(kind, arg)() == twin.randrange(arg)
        elif kind == "randint":
            assert 5 + stream(kind, arg)() == twin.randint(5, 5 + arg - 1)
        elif kind == "choice":
            assert arg[stream(kind, arg)()] == twin.choice(arg)
        elif kind == "expo":
            assert stream(kind, arg)().hex() == twin.expovariate(arg).hex()
        elif kind == "random":
            assert rng.random() == twin.random()
        else:
            assert rng.getrandbits(arg) == twin.getrandbits(arg)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize(
    "n, error",
    [(0, ValueError), (-1, ValueError), (2.0, TypeError), (2.5, TypeError),
     ("3", TypeError), (None, TypeError)],
)
def test_below_draws_rejects_bad_n_at_the_call(n, error):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(error):
        below_draws(rng, n)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "lambd, error",
    [(0, ValueError), (0.0, ValueError), (-0.0, ValueError), (math.nan, ValueError),
     ("1", TypeError), (None, TypeError)],
)
def test_expovariate_draws_rejects_bad_rate_at_the_call(lambd, error):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(error):
        expovariate_draws(rng, lambd)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    "lambd, n, error",
    [(0.0, 10, ValueError), (math.nan, 10, ValueError), (None, 10, TypeError),
     (1.0, 0, ValueError), (1.0, 2.0, TypeError), (1.0, None, TypeError)],
)
def test_arrival_draws_rejects_bad_arguments_at_the_call(lambd, n, error):
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(error):
        arrival_draws(rng, lambd, n)
    assert rng.getstate() == state


def test_constructing_a_stream_draws_nothing():
    rng, twin = _twins(3)
    below_draws(rng, 10)
    expovariate_draws(rng, 2.0)
    arrival_draws(rng, 2.0, 10)
    assert rng.getstate() == twin.getstate()
