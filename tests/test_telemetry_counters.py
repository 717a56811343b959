"""Tests for the counter registry primitives (repro.telemetry.counters)."""

import collections

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.counters import (
    Counter,
    CounterGroup,
    CounterRegistry,
    Gauge,
    Histogram,
)
from repro.utils.stats import percentile


# -- primitives ---------------------------------------------------------------


def test_counter_increments_and_rejects_decrease():
    c = Counter("pages")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_high_water_mark():
    g = Gauge("depth")
    g.set(4)
    g.set_max(2)
    assert g.value == 4
    g.set_max(9)
    assert g.value == 9
    g.set(1)
    assert g.value == 1


def test_histogram_percentiles_match_shared_helper():
    h = Histogram("latency_ns")
    samples = [float(v) for v in (5, 1, 9, 3, 7, 2, 8, 4, 6, 10)]
    for v in samples:
        h.observe(v)
    for pct in (50.0, 95.0, 99.0):
        assert h.percentile(pct) == percentile(samples, pct)
    assert h.count == 10
    assert h.mean == sum(samples) / 10
    assert h.minimum == 1 and h.maximum == 10


def test_histogram_packs_int_samples_and_keeps_every_sample_in_order():
    """Int samples sit in a typed array; the first float, bool or int past
    64 bits turns the store into a list of the same samples, in order."""
    h = Histogram("ns")
    ints = [5, 2**62, 0, -3, 5]
    h.extend(ints[:2])
    for v in ints[2:]:
        h.observe(v)
    assert h.values.itemsize == 8 and list(h.values) == ints
    assert (h.total, h.maximum, h.percentile(50.0)) == (sum(ints), 2**62, 5.0)
    tail = [2.5, True, 2**70, 7]
    h.extend(tail[:2])
    for v in tail[2:]:
        h.observe(v)
    samples = ints + tail
    assert isinstance(h.values, list)
    assert [(type(v), v) for v in h.values] == [(type(v), v) for v in samples]
    assert h.total == sum(samples) and h.count == len(samples)
    for pct in (50.0, 99.0):
        assert h.percentile(pct) == percentile(samples, pct)
    big = Histogram("big")
    big.observe(2**63)
    big.observe(1)
    assert big.values == [2**63, 1]


def test_empty_histogram_is_zero_not_error():
    h = Histogram("empty")
    assert h.percentile(99.0) == 0.0
    assert h.mean == 0.0
    assert h.count == 0


# -- registry -----------------------------------------------------------------


def test_registry_get_or_create_returns_same_object():
    reg = CounterRegistry()
    assert reg.counter("a.b") is reg.counter("a.b")
    assert reg.histogram("a.h") is reg.histogram("a.h")


def test_registry_rejects_kind_clash():
    reg = CounterRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    with pytest.raises(ValueError):
        reg.histogram("x")


def test_registry_snapshot_summarises_histograms():
    reg = CounterRegistry()
    reg.counter("flash.reads").inc(3)
    h = reg.histogram("serve.t.latency_ns")
    h.extend([10.0, 20.0, 30.0])
    snap = reg.snapshot()
    assert snap["flash.reads"] == 3
    assert snap["serve.t.latency_ns.count"] == 3
    assert snap["serve.t.latency_ns.sum"] == 60.0
    assert snap["serve.t.latency_ns.p50"] == 20.0
    assert "flash.reads" in reg.render()


# -- dict-style group facade --------------------------------------------------


def test_counter_group_keeps_tally_dict_shape():
    reg = CounterRegistry()
    group = reg.group("recovery")
    group["read_retries"] += 1
    group["read_retries"] += 1
    group["remapped_pages"] += 1
    assert group["read_retries"] == 2
    assert isinstance(group["read_retries"], int)
    assert group.keys() == ["read_retries", "remapped_pages"]
    # The values live in the shared registry under the prefix.
    assert reg.counter("recovery.read_retries").value == 2


def test_counter_group_behaves_as_mapping():
    reg = CounterRegistry()
    group = reg.group("faults")
    group["noise"] += 3
    group["bursts"] += 1
    assert dict(group) == {"bursts": 1, "noise": 3}
    # collections.Counter must merge by value, not count keys as elements.
    merged = collections.Counter({"noise": 1})
    merged.update(group)
    assert merged == collections.Counter({"noise": 4, "bursts": 1})


def test_counter_group_rejects_decrease():
    group = CounterRegistry().group("g")
    group["n"] += 5
    with pytest.raises(ValueError):
        group["n"] = 2


# -- the bundle ---------------------------------------------------------------


def test_default_telemetry_is_disabled_with_fresh_registry():
    a, b = Telemetry(), Telemetry()
    assert not a.enabled and not b.enabled
    # The disabled tracer is shared (stateless); registries never are.
    assert a.tracer is b.tracer
    assert a.counters is not b.counters
    a.counters.counter("x").inc()
    assert b.counters.get("x") is None


def test_tracing_bundle_is_enabled():
    t = Telemetry.tracing("proc")
    assert t.enabled
    assert t.tracer.process_name == "proc"
