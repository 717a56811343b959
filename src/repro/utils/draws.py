"""Seeded draw streams: ``randrange``/``expovariate`` values without the
``random.py`` frames.

A hot loop that draws from a :class:`random.Random` pays for the
pure-Python frames of ``randrange`` (argument checks, then ``_randbelow``)
or ``expovariate`` on every value. A stream is a generator bound to the
generator's C methods (``getrandbits``, ``random``): each ``next()``
consumes exactly what the method would consume at that point of the
shared stream and returns the same value.

* ``below_draws(rng, n)`` yields ``rng.randrange(n)``. So ``a + next(s)``
  with ``n = b - a + 1`` is ``rng.randint(a, b)``, and ``seq[next(s)]``
  with ``n = len(seq)`` is ``rng.choice(seq)``.
* ``expovariate_draws(rng, lambd)`` yields ``rng.expovariate(lambd)``.
* ``arrival_draws(rng, lambd, n)`` yields one open-loop arrival per
  ``next()``: the triple ``(rng.expovariate(lambd), rng.randrange(n),
  rng.random())``, drawn in that order, as a gap, a key and a coin.

Streams hold no values of their own, so any number of them may share one
generator and interleave with each other and with direct calls on it: the
values, and the generator's final state, are those of the method calls
made in the same order. The contract is that of :class:`random.Random`
itself (CPython 3.9 to 3.12): ``randrange(n)`` redraws
``getrandbits(n.bit_length())`` until the value is below ``n``, and
``expovariate`` is ``-log(1.0 - random()) / lambd``.
``tests/test_utils_draws.py`` pins both against the methods. A subclass
that replaces ``random()`` or ``getrandbits()`` is outside the contract.

Each constructor checks its argument and then returns the generator. A
generator body runs only at its first ``next()``, so a bad argument would
otherwise surface there, and ``n = 0`` would spin forever
(``getrandbits(0)`` is always 0).
"""

from __future__ import annotations

import math
import operator
import random
from typing import Callable, Iterator, Tuple


def below_draws(rng: random.Random, n: int) -> Iterator[int]:
    """Stream of ``rng.randrange(n)`` values; ``n`` is an integer >= 1."""
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"below_draws needs n >= 1, got {n}")
    return _below(rng.getrandbits, n, n.bit_length())


def _below(getrandbits: Callable[[int], int], n: int, k: int) -> Iterator[int]:
    while True:
        r = getrandbits(k)
        if r < n:
            yield r


def expovariate_draws(rng: random.Random, lambd: float) -> Iterator[float]:
    """Stream of ``rng.expovariate(lambd)`` values; ``lambd`` is non-zero, not NaN."""
    if math.isnan(lambd) or lambd == 0:
        raise ValueError(f"expovariate_draws needs a non-zero rate, got {lambd!r}")
    return _expovariate(rng.random, lambd)


def _expovariate(draw: Callable[[], float], lambd: float) -> Iterator[float]:
    log = math.log
    while True:
        yield -log(1.0 - draw()) / lambd


def arrival_draws(rng: random.Random, lambd: float, n: int) -> Iterator[Tuple[float, int, float]]:
    """Stream of ``(rng.expovariate(lambd), rng.randrange(n), rng.random())``.

    One triple per arrival: the gap before it, its key and its coin, with
    both arguments checked as :func:`expovariate_draws` and
    :func:`below_draws` check them. It repeats their two formulas inline,
    so an arrival costs one ``next()``; ``tests/test_utils_draws.py`` pins
    the triples against the methods.
    """
    if math.isnan(lambd) or lambd == 0:
        raise ValueError(f"arrival_draws needs a non-zero rate, got {lambd!r}")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"arrival_draws needs n >= 1, got {n}")
    return _arrival_triples(rng.random, rng.getrandbits, lambd, n, n.bit_length())


def _arrival_triples(
    draw: Callable[[], float], getrandbits: Callable[[int], int], lambd: float, n: int, k: int
) -> Iterator[Tuple[float, int, float]]:
    log = math.log
    while True:
        gap = -log(1.0 - draw()) / lambd
        key = getrandbits(k)
        while key >= n:
            key = getrandbits(k)
        yield gap, key, draw()
