"""CostSource interface: calibrated static fallback and live telemetry."""

import pytest

from repro.analytics.cost import HostCostModel, StaticCostSource
from repro.errors import AnalyticsError
from repro.sql.cost import LiveCostSource
from repro.sql.session import SqlSession
from repro.config import assasin_sb_config
from repro.ssd.device import ComputationalSSD


@pytest.fixture(scope="module")
def device():
    return ComputationalSSD(assasin_sb_config())


def test_host_scan_overlaps_link_and_parse():
    src = StaticCostSource(device_ns_per_page={"psf": 1000.0})
    host = HostCostModel()
    nbytes = 1 << 20
    expected = max(nbytes / src.link_bytes_per_ns, host.parse_text_ns(nbytes))
    assert src.host_scan_ns(nbytes) == pytest.approx(expected)


def test_calibrate_samples_device_rates(device):
    src = StaticCostSource.calibrate(device)
    assert set(src.device_ns_per_page) == {"psf", "parse"}
    assert all(rate > 0 for rate in src.device_ns_per_page.values())
    assert src.num_cores == device.config.num_cores
    assert src.page_bytes == device.config.flash.page_bytes
    # Device scans parallelise across the core pool.
    one = src.device_scan_ns(1)
    assert src.device_scan_ns(16) == pytest.approx(16 * one)


def test_unknown_kernel_rejected(device):
    src = StaticCostSource.calibrate(device)
    with pytest.raises(AnalyticsError):
        src.device_scan_ns(4, kernel="no-such-kernel")


def test_nonpositive_core_count_rejected():
    with pytest.raises(AnalyticsError):
        StaticCostSource(num_cores=0)


def test_live_source_matches_static_on_idle_device():
    session = SqlSession(gen_scale_factor=0.002, duration_ns=5e6)
    live = session.cost
    assert isinstance(live, LiveCostSource)
    static = StaticCostSource.calibrate(session.device)
    # No completions observed, empty queues, no collectible garbage: the
    # live estimate degrades exactly to the calibrated static one.
    assert live.observations == 0
    assert live.collectible_invalid_pages() == 0
    for pages in (1, 64, 500):
        assert live.device_scan_ns(pages) == pytest.approx(
            static.device_scan_ns(pages)
        )
        assert live.host_scan_ns(pages * 4096) == pytest.approx(
            static.host_scan_ns(pages * 4096)
        )


def test_live_source_learns_from_completions():
    session = SqlSession(gen_scale_factor=0.002, duration_ns=5e6)
    live = session.cost
    session.drain(session.submit("SELECT COUNT(*) AS n FROM lineitem"))
    assert live.observations > 0
    assert live.ewma_ns_per_page is not None and live.ewma_ns_per_page > 0
    assert live.ewma_cmd_ns is not None and live.ewma_cmd_ns > 0
    counters = session.layer.telemetry.counters
    assert counters.counter("sql.cost.observations").value == live.observations


def test_live_pressure_terms_are_nonnegative():
    session = SqlSession(gen_scale_factor=0.002, duration_ns=5e6)
    live = session.cost
    session.drain(session.submit("SELECT COUNT(*) AS n FROM orders"))
    now = session.layer.events.now
    assert live.core_backlog_ns(now) >= 0.0
    assert live.queue_pressure_ns() >= 0.0
    assert live.gc_backlog_ns() >= 0.0


# -- sampled-predicate selectivity ---------------------------------------------

#: Full-width scan with one highly selective pushed predicate: l_quantity is
#: uniform on 1..50, so ~4% of rows survive. With the column fraction at 1.0
#: the static bound prices the device output at full table width.
SELECTIVE_SQL = "SELECT * FROM lineitem WHERE l_quantity <= 2"

#: Cost constants chosen so the fraction-only bound and the sampled estimate
#: land on opposite sides of the host rate. With text_bytes T, fraction 1.0
#: and BINARY_DENSITY 0.6: host = 0.30*T; device(sel=1.0) ~= 0.35*T (loses);
#: device(sel~0.04) ~= 0.13*T (wins). The placement flip below is exactly
#: the sampled estimate doing its job.
FLIP_HOST = HostCostModel(text_parse_ns_per_byte=0.30)
FLIP_DEVICE_RATES = {"psf": 4000.0, "parse": 4000.0}


def _auto_session():
    session = SqlSession(gen_scale_factor=0.002, duration_ns=5e6, policy="auto")
    live = session.cost
    assert isinstance(live, LiveCostSource)
    live.host = FLIP_HOST
    live.device_ns_per_page = dict(FLIP_DEVICE_RATES)
    return session, live


def test_sampled_selectivity_estimates_the_surviving_fraction():
    session, live = _auto_session()
    table = session.db["lineitem"]
    quantity = ("l_quantity",)
    estimate = live.scan_selectivity(table, (quantity, lambda q: q <= 2))
    assert 0.0 < estimate < 0.15  # ~4% of a uniform 1..50 column
    gauge = session.layer.telemetry.counters.gauge("sql.cost.scan_selectivity")
    assert gauge.value == pytest.approx(estimate)
    # Conservative fallbacks: no predicate, un-evaluable predicate.
    assert live.scan_selectivity(table, None) == 1.0

    def explodes(q):
        raise KeyError("no such scalar")

    assert live.scan_selectivity(table, (quantity, explodes)) == 1.0
    assert live.scan_selectivity(table, (("nosuch",), lambda v: True)) == 1.0
    # Floored at one surviving sample row, never exactly zero.
    assert live.scan_selectivity(table, (quantity, lambda q: False)) > 0.0
    # A predicate that reads no column keeps or drops every sampled row.
    assert live.scan_selectivity(table, ((), lambda: True)) == 1.0


def test_static_source_keeps_the_conservative_bound():
    src = StaticCostSource(host=FLIP_HOST, device_ns_per_page=FLIP_DEVICE_RATES)
    assert src.scan_selectivity(object(), (("x",), lambda x: False)) == 1.0


def test_sampled_selectivity_flips_placement_on_selective_filter():
    # Fraction-only pricing (selectivity forced to 1.0) keeps the scan on
    # the host: the full-width output looks too expensive to ship up.
    session, live = _auto_session()
    live.scan_selectivity = lambda table, predicate, at_ns=0.0: 1.0
    record = session.drain(session.submit(SELECTIVE_SQL))
    (bound,) = record.placements
    assert bound.est_selectivity == 1.0
    assert bound.site == "host"

    # The sampled estimate sees ~4% survivors and flips the scan down.
    session, live = _auto_session()
    record = session.drain(session.submit(SELECTIVE_SQL))
    (sampled,) = record.placements
    assert sampled.pushdown and sampled.kernel == "psf"
    assert 0.0 < sampled.est_selectivity < 0.15
    assert sampled.site == "device"
    assert sampled.est_device_ns < sampled.est_host_ns
