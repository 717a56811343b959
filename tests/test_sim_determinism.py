"""Same-seed determinism: two identical runs must be byte-identical.

The unified kernel's ordering contract — integer-ns time, events dispatched
by ``(time_ns, priority, seq)`` with ``seq`` in global insertion order — is
what makes whole-device runs reproducible. These tests run the same
workload twice (fresh devices, same seeds) and diff the *full* Perfetto
trace export and the counter-registry snapshot byte for byte; any
nondeterminism in tie-breaking, resource arbitration, or iteration order
shows up as a trace diff.
"""

from repro.config import FaultConfig, ServeConfig, assasin_sb_config, named_config
from repro.faults.campaign import FaultCampaign
from repro.kernels import get_kernel
from repro.serve import default_tenants
from repro.serve.scheduler import ServingLayer
from repro.ssd.device import ComputationalSSD
from repro.telemetry import Telemetry

DATA = 4 << 20


def concurrent_run():
    telemetry = Telemetry.tracing()
    device = ComputationalSSD(assasin_sb_config(), telemetry=telemetry)
    results = device.offload_concurrent(
        [(get_kernel("stat"), DATA), (get_kernel("scan"), DATA)]
    )
    return results, telemetry


def serve_run():
    telemetry = Telemetry.tracing()
    device = ComputationalSSD(assasin_sb_config(), telemetry=telemetry)
    layer = ServingLayer(device, default_tenants(), config=ServeConfig(), seed=21)
    report = layer.run(400_000.0)
    return report, telemetry


def campaign_run():
    telemetry = Telemetry.tracing()
    report = FaultCampaign(
        named_config("AssasinSb"),
        FaultConfig(seed=5),
        duration_ns=200_000.0,
        seed=5,
        telemetry=telemetry,
    ).run()
    return report, telemetry


def test_concurrent_offload_double_run_is_byte_identical():
    first, telemetry_a = concurrent_run()
    second, telemetry_b = concurrent_run()
    assert [r.completion_ns for r in first] == [r.completion_ns for r in second]
    assert telemetry_a.tracer.to_json() == telemetry_b.tracer.to_json()
    assert telemetry_a.counters.snapshot() == telemetry_b.counters.snapshot()
    assert telemetry_a.tracer.num_events > 0


def test_serve_double_run_is_byte_identical():
    first, telemetry_a = serve_run()
    second, telemetry_b = serve_run()
    assert first.fingerprint() == second.fingerprint()
    assert telemetry_a.tracer.to_json() == telemetry_b.tracer.to_json()
    assert telemetry_a.counters.snapshot() == telemetry_b.counters.snapshot()
    assert telemetry_a.tracer.num_events > 0


def test_fault_campaign_double_run_is_byte_identical():
    first, telemetry_a = campaign_run()
    second, telemetry_b = campaign_run()
    assert first.fingerprint() == second.fingerprint()
    assert telemetry_a.tracer.to_json() == telemetry_b.tracer.to_json()
    assert telemetry_a.counters.snapshot() == telemetry_b.counters.snapshot()
