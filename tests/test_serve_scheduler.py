"""End-to-end tests for the multi-tenant serving layer."""

import pytest

from repro.config import ServeConfig, assasin_sb_config
from repro.errors import ConfigError, ServeError
from repro.serve import ServingLayer, TenantSpec, simulate_serve
from repro.ssd.device import ComputationalSSD


def _trio(interarrival_ns=9_000.0, heavy_weight=4.0):
    return [
        TenantSpec(
            name="gold", weight=heavy_weight, kind="scomp", kernel="stat",
            pages_per_command=4, interarrival_ns=interarrival_ns,
        ),
        TenantSpec(
            name="silver", weight=1.0, kind="scomp", kernel="stat",
            pages_per_command=4, interarrival_ns=interarrival_ns,
        ),
        TenantSpec(
            name="bronze", weight=1.0, kind="scomp", kernel="stat",
            pages_per_command=4, interarrival_ns=interarrival_ns,
        ),
    ]


def test_serve_config_validation():
    with pytest.raises(ConfigError):
        ServeConfig(queue_depth=0)
    with pytest.raises(ConfigError):
        ServeConfig(max_inflight=0)
    with pytest.raises(ConfigError):
        ServeConfig(quantum_pages=-1)
    with pytest.raises(ConfigError):
        ServeConfig(arbitration="lottery")
    with pytest.raises(ConfigError):
        ServeConfig(weights=(1.0, 0.0))


def test_serve_requires_tenants():
    device = ComputationalSSD(assasin_sb_config())
    with pytest.raises(ServeError):
        ServingLayer(device, [])


def test_same_seed_identical_metrics():
    tenants = _trio()
    kwargs = dict(
        serve_config=ServeConfig(arbitration="wrr"),
        duration_ns=400_000.0,
        seed=21,
    )
    a = simulate_serve(assasin_sb_config(), tenants, **kwargs)
    b = simulate_serve(assasin_sb_config(), tenants, **kwargs)
    assert a.fingerprint() == b.fingerprint()
    assert a.total_completed > 0


def test_different_seed_different_schedule():
    tenants = _trio()
    a = simulate_serve(assasin_sb_config(), tenants, duration_ns=400_000.0, seed=1)
    b = simulate_serve(assasin_sb_config(), tenants, duration_ns=400_000.0, seed=2)
    assert a.fingerprint() != b.fingerprint()


def test_mixed_scomp_read_write_completes():
    tenants = [
        TenantSpec(name="compute", weight=2.0, kind="scomp", kernel="stat",
                   pages_per_command=4, interarrival_ns=15_000.0),
        TenantSpec(name="reader", weight=1.0, kind="read",
                   pages_per_command=4, interarrival_ns=15_000.0),
        TenantSpec(name="writer", weight=1.0, kind="write",
                   pages_per_command=4, interarrival_ns=15_000.0),
    ]
    report = simulate_serve(assasin_sb_config(), tenants, duration_ns=400_000.0, seed=5)
    for name in ("compute", "reader", "writer"):
        t = report.tenants[name]
        assert t.completed > 0
        assert t.bytes_in == t.completed * 4 * 4096
        assert t.p99_latency_ns >= t.p50_latency_ns > 0
    # Reads and scomp results crossed the link; writes came in from the host.
    device_horizon = report.horizon_ns
    assert device_horizon > 0
    assert report.throughput_gbps > 0
    assert any(u > 0 for u in report.core_utilisation)
    assert any(u > 0 for u in report.channel_utilisation)


def test_completions_posted_to_host_and_cq():
    device = ComputationalSSD(assasin_sb_config())
    layer = ServingLayer(
        device,
        _trio(interarrival_ns=20_000.0),
        ServeConfig(arbitration="drr"),
        seed=3,
    )
    report = layer.run(duration_ns=200_000.0)
    assert len(device.host.completions) == report.total_completed
    assert sum(len(p.cq) for p in layer.pairs) == report.total_completed
    # Every submitted-but-not-dropped command was accepted by the host interface.
    accepted = sum(t.submitted - t.dropped for t in report.tenants.values())
    assert len(device.host.submissions) == accepted


def test_closed_loop_bounds_outstanding():
    tenants = [
        TenantSpec(name="batch", kind="scomp", kernel="stat", pages_per_command=4,
                   closed_loop=True, outstanding=3, think_ns=1_000.0),
    ]
    report = simulate_serve(assasin_sb_config(), tenants, duration_ns=300_000.0, seed=9)
    t = report.tenants["batch"]
    assert t.completed > 10
    assert t.dropped == 0
    # Closed loop: never more than `outstanding` queued at once.
    assert t.max_queue_depth <= 3


def test_open_loop_overload_drops_commands():
    tenants = [
        TenantSpec(name="flood", kind="scomp", kernel="stat", pages_per_command=8,
                   interarrival_ns=500.0),
    ]
    report = simulate_serve(
        assasin_sb_config(),
        tenants,
        ServeConfig(queue_depth=8),
        duration_ns=300_000.0,
        seed=4,
    )
    t = report.tenants["flood"]
    assert t.dropped > 0
    assert t.submitted == t.completed + t.dropped
    assert t.max_queue_depth <= 8


def test_weighted_arbitration_shifts_p99():
    """The acceptance property: under identical offered load, WRR gives the
    heavy tenant strictly lower p99 than equal-share round-robin."""
    tenants = _trio(interarrival_ns=9_000.0, heavy_weight=4.0)
    common = dict(duration_ns=800_000.0, seed=7)
    rr = simulate_serve(
        assasin_sb_config(), tenants, ServeConfig(arbitration="rr"), **common
    )
    wrr = simulate_serve(
        assasin_sb_config(), tenants, ServeConfig(arbitration="wrr"), **common
    )
    assert wrr.tenants["gold"].p99_latency_ns < rr.tenants["gold"].p99_latency_ns
    # And the isolation is material, not noise: at least 2x.
    assert wrr.tenants["gold"].p99_latency_ns * 2 < rr.tenants["gold"].p99_latency_ns


def test_weight_overrides_apply():
    tenants = _trio()
    report = simulate_serve(
        assasin_sb_config(),
        tenants,
        ServeConfig(arbitration="wrr", weights=(1.0, 8.0, 1.0)),
        duration_ns=300_000.0,
        seed=13,
    )
    assert report.tenants["silver"].weight == 8.0
    assert report.tenants["gold"].weight == 1.0


def test_scomp_without_sample_errors():
    device = ComputationalSSD(assasin_sb_config())
    layer = ServingLayer(
        device,
        [TenantSpec(name="t", kind="read", pages_per_command=2)],
        seed=0,
    )
    from repro.serve.queues import ServeCommand
    from repro.ssd.host_interface import ScompCommand

    rogue = ServeCommand(
        tenant="t",
        command=ScompCommand(command_id=999, kernel="stat", lpa_lists=[[0, 1]]),
        submitted_ns=0.0,
        pages=2,
    )
    with pytest.raises(ServeError):
        layer._service(rogue, 0.0)


def test_serve_duration_must_be_positive():
    device = ComputationalSSD(assasin_sb_config())
    layer = ServingLayer(device, _trio())
    with pytest.raises(ServeError):
        layer.run(duration_ns=0.0)


def test_device_serve_entry_point():
    device = ComputationalSSD(assasin_sb_config())
    report = ServingLayer(device, _trio(interarrival_ns=20_000.0), seed=2).run(
        duration_ns=200_000.0
    )
    assert report.config_name == "AssasinSb"
    assert report.total_completed > 0
