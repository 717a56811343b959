"""Tests for the set-associative cache timing model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.mem.cache import Cache

from tests.core_oracle import ListLRUCache


def small_cache(size=1024, ways=2, line=64):
    return Cache(CacheConfig(size_bytes=size, ways=ways, line_bytes=line))


def test_first_access_misses_then_hits():
    cache = small_cache()
    assert not cache.lookup(0x100, is_write=False, cycle=0).hit
    assert cache.lookup(0x100, is_write=False, cycle=1).hit
    assert cache.lookup(0x13F, is_write=False, cycle=2).hit  # same 64B line
    assert not cache.lookup(0x140, is_write=False, cycle=3).hit  # next line


def test_lru_eviction_order():
    # 1024B / (2 ways * 64B) = 8 sets. Lines mapping to set 0: 0, 8, 16 (*64B).
    cache = small_cache()
    s = 8 * 64  # set stride in bytes
    cache.lookup(0 * s, False, 0)
    cache.lookup(1 * s, False, 1)
    cache.lookup(0 * s, False, 2)  # refresh line 0 -> line 1 is now LRU
    cache.lookup(2 * s, False, 3)  # evicts line 1
    assert cache.lookup(0 * s, False, 4).hit
    assert not cache.lookup(1 * s, False, 5).hit


def test_dirty_eviction_reports_writeback():
    cache = small_cache()
    s = 8 * 64
    cache.lookup(0 * s, is_write=True, cycle=0)
    cache.lookup(1 * s, is_write=False, cycle=1)
    result = cache.lookup(2 * s, is_write=False, cycle=2)  # evicts dirty line 0
    assert result.writeback
    assert cache.stats.writebacks == 1


def test_clean_eviction_no_writeback():
    cache = small_cache()
    s = 8 * 64
    cache.lookup(0 * s, False, 0)
    cache.lookup(1 * s, False, 1)
    assert not cache.lookup(2 * s, False, 2).writeback


def test_prefetch_hit_and_late_prefetch_wait():
    cache = small_cache()
    assert cache.prefetch(0x200, ready_cycle=100)
    early = cache.lookup(0x200, False, cycle=50)
    assert early.hit and early.extra_wait == pytest.approx(50)
    assert cache.stats.late_prefetch_hits == 1
    # A second access after readiness has no residual wait.
    later = cache.lookup(0x200, False, cycle=150)
    assert later.hit and later.extra_wait == 0


def test_prefetch_into_present_line_is_noop():
    cache = small_cache()
    cache.lookup(0x80, False, 0)
    assert not cache.prefetch(0x80, ready_cycle=10)
    assert cache.stats.prefetches_issued == 0


def test_flush_counts_dirty_lines():
    cache = small_cache()
    cache.lookup(0x0, True, 0)
    cache.lookup(0x40, False, 1)
    assert cache.flush() == 1
    assert cache.occupancy == 0


def test_stats_rates():
    cache = small_cache()
    cache.lookup(0, False, 0)
    cache.lookup(0, False, 1)
    cache.lookup(0, False, 2)
    assert cache.stats.accesses == 3
    assert cache.stats.hit_rate == pytest.approx(2 / 3)
    assert cache.stats.miss_rate == pytest.approx(1 / 3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300))
def test_occupancy_never_exceeds_capacity(addresses):
    cache = small_cache(size=512, ways=2, line=64)  # 8 lines total
    for i, addr in enumerate(addresses):
        cache.lookup(addr, is_write=bool(addr & 1), cycle=i)
    assert cache.occupancy <= 8
    assert cache.stats.hits + cache.stats.misses == cache.stats.accesses


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2047), min_size=1, max_size=200))
def test_immediate_reaccess_always_hits(addresses):
    cache = small_cache()
    for i, addr in enumerate(addresses):
        cache.lookup(addr, False, cycle=2 * i)
        assert cache.lookup(addr, False, cycle=2 * i + 1).hit


# ---------------------------------------------------------------------------
# Differential: the dict-LRU cache vs the list-LRU oracle.
# ---------------------------------------------------------------------------

GEOMETRIES = (
    CacheConfig(size_bytes=1024, ways=2, line_bytes=64),
    CacheConfig(size_bytes=512, ways=1, line_bytes=64),  # direct-mapped
    CacheConfig(size_bytes=2048, ways=4, line_bytes=32),
    CacheConfig(size_bytes=1024, ways=16, line_bytes=64),  # one set
)


def _lines(cache):
    """Per set, least recently used first: (tag, dirty, prefetched, ready)."""
    if isinstance(cache, ListLRUCache):
        sets = [[(tag, s[tag]) for tag in order] for s, order in zip(cache._sets, cache._lru)]
    else:
        sets = [list(s.items()) for s in cache._sets]
    return [
        [(tag, line.dirty, line.prefetched, line.ready_cycle) for tag, line in lines]
        for lines in sets
    ]


def assert_caches_agree(config, ops):
    """Apply ``ops`` (method name, args) to both caches, comparing after each."""
    fast, oracle = Cache(config), ListLRUCache(config)
    for name, *args in ops:
        assert getattr(fast, name)(*args) == getattr(oracle, name)(*args), (name, args)
        assert fast.stats == oracle.stats, (name, args)
        assert _lines(fast) == _lines(oracle), (name, args)
    assert fast.occupancy == oracle.occupancy


def _random_ops(rng, config, n):
    span = 4 * config.size_bytes  # enough lines to keep every set evicting
    ops = []
    cycle = 0.0
    for _ in range(n):
        cycle += rng.choice((0, 0.5, 1, 3, 12))
        addr = rng.randrange(span)
        roll = rng.random()
        if roll < 0.6:
            ops.append(("lookup", addr, rng.random() < 0.3, cycle))
        elif roll < 0.75:
            ops.append(("prefetch", addr, cycle + rng.choice((0, 4, 40))))
        elif roll < 0.85:
            ops.append(("set_fill_time", addr, cycle + rng.choice((0, 2, 60.5))))
        elif roll < 0.98:
            ops.append(("contains", addr))
        else:
            ops.append(("flush",))
    return ops


@pytest.mark.parametrize("config", GEOMETRIES, ids=lambda c: f"{c.size_bytes}B-{c.ways}w")
def test_seeded_sequences_match_list_lru_oracle(config):
    rng = random.Random(0xCAC4E)
    for _ in range(20):
        assert_caches_agree(config, _random_ops(rng, config, 400))


cache_ops = st.one_of(
    st.tuples(st.just("lookup"), st.integers(0, 4095), st.booleans(), st.integers(0, 300)),
    st.tuples(st.just("prefetch"), st.integers(0, 4095), st.integers(0, 300)),
    st.tuples(st.just("set_fill_time"), st.integers(0, 4095), st.integers(0, 300)),
    st.tuples(st.just("contains"), st.integers(0, 4095)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GEOMETRIES), st.lists(cache_ops, max_size=120))
def test_hypothesis_sequences_match_list_lru_oracle(config, ops):
    assert_caches_agree(config, ops)
