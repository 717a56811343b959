"""Pinned-fingerprint harness guarding the `repro.sim` timing refactor.

The goldens in ``tests/golden/sim_fingerprints.json`` were captured from the
*pre-refactor* code (greedy per-bus float timelines + the firmware's
heap-merge retiming loop).  The unified discrete-event kernel must
reproduce them:

* **exactly** where the legacy timing was already integer-valued (flash
  latencies, 1 B/ns channel buses, page-aligned transfers), and
* within a documented **<=0.5% relative / 1 ns-or-count absolute**
  tolerance where float timelines were replaced by integer nanoseconds
  (compute schedules built from fractional cycles-per-byte, Poisson
  inter-arrival instants).

Regenerate (only when a timing change is *intended*) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_sim_goldens.py
"""

import json
import os
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).parent / "golden" / "sim_fingerprints.json"

#: Documented tolerance for float-timeline -> integer-ns replacement.
REL_TOL = 0.005
ABS_SLACK = 1.0


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------


def _offload_digest(result):
    return {
        "completion_ns": result.completion_ns,
        "throughput_gbps": result.throughput_gbps,
        "limiter": result.limiter,
        "bytes_in": result.bytes_in,
        "bytes_out": result.bytes_out,
        "flash_stall_ns": result.flash_stall_ns,
        "channel_bytes": list(result.channel_bytes),
    }


def _fig13_goldens():
    from repro.experiments import fig13

    result = fig13.run(data_bytes=8 << 20)
    return {
        kernel: {cfg: _offload_digest(r) for cfg, r in by_cfg.items()}
        for kernel, by_cfg in result.results.items()
    }


def _fig14_goldens():
    from repro.experiments import fig14

    result = fig14.run(data_bytes=8 << 20)
    return {
        shape: {cfg: r.throughput_gbps for cfg, r in by_cfg.items()}
        for shape, by_cfg in result.results.items()
    }


def _fig15_goldens():
    from repro.experiments import fig15

    return dict(fig15.measure_psf_rates(data_bytes=8 << 20))


def _writepath_goldens():
    from repro.config import all_configs
    from repro.kernels import get_kernel
    from repro.ssd.device import ComputationalSSD

    out = {}
    for name in ("Baseline", "AssasinSb"):
        device = ComputationalSSD(all_configs()[name])
        result = device.offload_write_path(get_kernel("raid4"), 4 << 20)
        out[name] = _offload_digest(result)
    return out


def _concurrent_goldens():
    from repro.config import assasin_sb_config
    from repro.kernels import get_kernel
    from repro.ssd.device import ComputationalSSD

    device = ComputationalSSD(assasin_sb_config())
    results = device.offload_concurrent(
        [(get_kernel("stat"), 4 << 20), (get_kernel("scan"), 2 << 20)]
    )
    return [_offload_digest(r) for r in results]


def _mixed_background_goldens():
    from repro.config import assasin_sb_config
    from repro.kernels import get_kernel
    from repro.ssd.device import ComputationalSSD
    from repro.ssd.firmware import BackgroundIO

    device = ComputationalSSD(assasin_sb_config())
    background = BackgroundIO(lpas=list(range(0, 512, 5)), interval_ns=8192.0)
    result = device.offload(get_kernel("stat"), 4 << 20, background=background)
    return {
        "offload": _offload_digest(result),
        "bg_reads": len(background.latencies_ns),
        "bg_mean_latency_ns": background.mean_latency_ns,
        "bg_p99_latency_ns": background.p99_latency_ns,
    }


def _serve_tenants():
    from repro.serve import TenantSpec

    make = lambda name, weight: TenantSpec(  # noqa: E731
        name=name, weight=weight, kind="scomp", kernel="stat",
        pages_per_command=4, interarrival_ns=9_000.0,
    )
    return [make("gold", 4.0), make("silver", 1.0), make("bronze", 1.0)]


def _serve_goldens():
    from repro.config import ServeConfig, assasin_sb_config
    from repro.serve import simulate_serve

    out = {}
    for policy in ("rr", "wrr", "drr"):
        report = simulate_serve(
            assasin_sb_config(),
            _serve_tenants(),
            ServeConfig(arbitration=policy),
            duration_ns=600_000.0,
            seed=7,
        )
        out[policy] = _jsonable(report.fingerprint())
    return out


def _faults_goldens():
    from repro.config import FaultConfig, ServeConfig, assasin_sb_config
    from repro.faults import FaultCampaign
    from repro.serve import TenantSpec

    faults = FaultConfig(
        seed=11, page_error_rate=0.02, uncorrectable_rate=0.01,
        transient_fraction=0.5, slow_read_rate=0.02, raid_k=4,
    )
    tenants = [
        TenantSpec(
            name="reader", weight=2.0, kind="read",
            pages_per_command=4, interarrival_ns=15_000.0, region_pages=128,
        ),
        TenantSpec(
            name="scanner", weight=1.0, kind="scomp", kernel="scan",
            pages_per_command=8, interarrival_ns=40_000.0, region_pages=128,
        ),
    ]
    report = FaultCampaign(
        assasin_sb_config(), faults, tenants=tenants,
        serve_config=ServeConfig(arbitration="wrr"),
        duration_ns=400_000.0, seed=11,
    ).run()
    return {
        "fingerprint": _jsonable(report.fingerprint()),
        "healthy": report.healthy,
    }


def _jsonable(value):
    """Tuples -> lists so fingerprints survive a JSON round trip."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def compute_goldens():
    return {
        "fig13": _fig13_goldens(),
        "fig14": _fig14_goldens(),
        "fig15_psf_rates": _fig15_goldens(),
        "writepath": _writepath_goldens(),
        "concurrent": _concurrent_goldens(),
        "mixed_background": _mixed_background_goldens(),
        "serve": _serve_goldens(),
        "faults": _faults_goldens(),
    }


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def assert_close(golden, actual, path=""):
    """Recursive comparison with the documented integer-ns tolerance."""
    if isinstance(golden, dict):
        assert isinstance(actual, dict), f"{path}: {type(actual)} != dict"
        assert set(golden) == set(actual), (
            f"{path}: keys {sorted(golden)} != {sorted(actual)}"
        )
        for key in golden:
            assert_close(golden[key], actual[key], f"{path}.{key}")
        return
    if isinstance(golden, (list, tuple)):
        actual = list(actual) if isinstance(actual, (list, tuple)) else actual
        assert isinstance(actual, list), f"{path}: {type(actual)} != list"
        assert len(golden) == len(actual), (
            f"{path}: length {len(golden)} != {len(actual)}"
        )
        for i, (g, a) in enumerate(zip(golden, actual)):
            assert_close(g, a, f"{path}[{i}]")
        return
    if isinstance(golden, bool) or isinstance(golden, str) or golden is None:
        assert golden == actual, f"{path}: {golden!r} != {actual!r}"
        return
    # Numeric leaf: exact-or-tolerance.
    limit = max(ABS_SLACK, REL_TOL * max(abs(golden), abs(actual)))
    assert abs(golden - actual) <= limit, (
        f"{path}: golden {golden} vs actual {actual} "
        f"(delta {abs(golden - actual)} > limit {limit})"
    )


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def goldens():
    if os.environ.get("REGEN_GOLDEN"):
        # Keys computed elsewhere (test_sim_differential's oracle-recorded
        # campaign fingerprints) are carried over untouched.
        kept = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        data = {**kept, **compute_goldens()}
        GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        pytest.skip("goldens regenerated")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing goldens at {GOLDEN_PATH}; run with REGEN_GOLDEN=1")
    return json.loads(GOLDEN_PATH.read_text())


def test_fig13_matches_prerefactor_goldens(goldens):
    assert_close(goldens["fig13"], _jsonable(_fig13_goldens()), "fig13")


def test_fig14_matches_prerefactor_goldens(goldens):
    assert_close(goldens["fig14"], _jsonable(_fig14_goldens()), "fig14")


def test_fig15_psf_rates_match_prerefactor_goldens(goldens):
    assert_close(
        goldens["fig15_psf_rates"], _jsonable(_fig15_goldens()), "fig15_psf_rates"
    )


def test_writepath_matches_prerefactor_goldens(goldens):
    assert_close(goldens["writepath"], _jsonable(_writepath_goldens()), "writepath")


def test_concurrent_matches_prerefactor_goldens(goldens):
    assert_close(goldens["concurrent"], _jsonable(_concurrent_goldens()), "concurrent")


def test_mixed_background_matches_prerefactor_goldens(goldens):
    assert_close(
        goldens["mixed_background"],
        _jsonable(_mixed_background_goldens()),
        "mixed_background",
    )


def test_serve_qos_matches_prerefactor_goldens(goldens):
    assert_close(goldens["serve"], _jsonable(_serve_goldens()), "serve")


def test_fault_campaign_matches_prerefactor_goldens(goldens):
    assert_close(goldens["faults"], _jsonable(_faults_goldens()), "faults")
