"""Telemetry overhead guard: instrumentation must not change results.

The fingerprints below were captured with the default NullTracer (same
configs, same seeds). A run with a recording Tracer must reproduce them
bit for bit: the tracer only observes, it never perturbs timing, ordering,
or tallies.

Re-captured at the integer-ns kernel migration (`repro.sim`): command
counts, byte totals, fault tallies, and the dispatched-event count are
unchanged from the pre-telemetry floats; per-tenant latencies moved by
less than one nanosecond of rounding (e.g. hot mean 81811.562039 →
81811.0), within the refactor's documented ≤0.5% tolerance.

Re-captured again when the host link and channel buses gained DMA-style
backfill (idle gaps ahead of far-future bookings become usable): command
counts and byte totals are unchanged, read-heavy latencies dropped (e.g.
reader mean 138121.6 → 96306.3) because reads no longer queue behind
transfers whose data is not ready yet.
"""

from repro.config import FaultConfig, ServeConfig, named_config
from repro.faults.campaign import FaultCampaign
from repro.serve import default_tenants
from repro.serve.scheduler import ServingLayer
from repro.ssd.device import ComputationalSSD
from repro.telemetry import Telemetry

SERVE_DURATION_NS = 300_000.0
SERVE_SEED = 42

# AssasinSb, default_tenants(), ServeConfig(), duration 300 us, seed 42.
SERVE_FP = (
    ("hot", 13, 13, 0, 425984, 0, 82707.461538, 100151.0, 0, 0, 0, 0),
    ("batch", 11, 11, 0, 720896, 0, 118152.545455, 148995.0, 0, 0, 0, 0),
    ("reader", 19, 19, 0, 311296, 311296, 96306.315789, 181643.0, 0, 0, 0, 0),
    405458,
    (),
    0,
)
SERVE_EVENTS_PROCESSED = 86

# FaultCampaign(AssasinSb, FaultConfig(seed=7), duration 200 us, seed 7).run().
CAMPAIGN_FP = (
    (
        ("reader", 6, 6, 0, 98304, 98304, 28209.5, 53557.0, 0, 0, 0, 0),
        ("scanner", 4, 4, 0, 131072, 0, 53057.0, 53057.0, 0, 0, 0, 0),
        225318,
        (),
        0,
    ),
    512,
    128,
    0,
    640,
    0,
    (),
)


def serve_run(telemetry=None):
    device = ComputationalSSD(named_config("AssasinSb"), telemetry=telemetry)
    layer = ServingLayer(device, default_tenants(), config=ServeConfig(), seed=SERVE_SEED)
    report = layer.run(SERVE_DURATION_NS)
    return report, layer


def rounded(fp):
    return tuple(round(x, 6) if isinstance(x, float) else x for x in fp)


def test_null_tracer_serve_matches_pre_telemetry_baseline():
    report, layer = serve_run()
    assert rounded(report.fingerprint()) == SERVE_FP
    assert layer.events.processed == SERVE_EVENTS_PROCESSED


def test_recording_tracer_changes_nothing():
    baseline, base_layer = serve_run()
    traced, traced_layer = serve_run(telemetry=Telemetry.tracing())
    assert traced.fingerprint() == baseline.fingerprint()
    assert traced_layer.events.processed == base_layer.events.processed
    assert traced_layer.telemetry.tracer.num_events > 0


def test_null_tracer_campaign_matches_pre_telemetry_baseline():
    report = FaultCampaign(
        named_config("AssasinSb"), FaultConfig(seed=7), duration_ns=200_000.0, seed=7
    ).run()
    assert report.fingerprint() == CAMPAIGN_FP


def test_recording_tracer_campaign_changes_nothing():
    baseline = FaultCampaign(
        named_config("AssasinSb"), FaultConfig(seed=7), duration_ns=200_000.0, seed=7
    ).run()
    traced = FaultCampaign(
        named_config("AssasinSb"),
        FaultConfig(seed=7),
        duration_ns=200_000.0,
        seed=7,
        telemetry=Telemetry.tracing(),
    ).run()
    assert traced.fingerprint() == baseline.fingerprint()
    assert traced.fingerprint() == CAMPAIGN_FP


def test_registry_backed_metrics_keep_percentile_semantics():
    # Satellite regression: the histogram-backed TenantMetrics must report
    # the same nearest-rank p50/p95/p99 the private lists used to.
    from repro.utils.stats import percentile

    report, _ = serve_run()
    for metrics in report.tenants.values():
        samples = metrics.latencies_ns
        if not samples:
            continue
        assert metrics.p50_latency_ns == percentile(samples, 50.0)
        assert metrics.p95_latency_ns == percentile(samples, 95.0)
        assert metrics.p99_latency_ns == percentile(samples, 99.0)
        assert metrics.mean_latency_ns == sum(samples) / len(samples)


def test_serve_histograms_publish_into_device_registry():
    report, layer = serve_run()
    snap = layer.telemetry.counters.snapshot()
    for name, metrics in report.tenants.items():
        assert snap[f"serve.{name}.latency_ns.count"] == metrics.completed
    assert snap["flash.reads_served"] > 0
    assert snap["host.bytes_to_host"] > 0


def test_devices_never_share_registries():
    _, first = serve_run()
    _, second = serve_run()
    a = first.telemetry.counters.snapshot()
    b = second.telemetry.counters.snapshot()
    assert a == b  # same run, same tallies ...
    assert first.telemetry.counters is not second.telemetry.counters  # ... own registries
