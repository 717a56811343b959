"""Fleet-scale bench: tail-at-scale hedging and whole-device loss.

Three 8-device campaigns share one seed and workload:

* **baseline** — all devices healthy (hedging on, nearly idle),
* **slow-no-hedge** — device 1 is a straggler (20% of its reads take an
  extra 300 us) and hedging is off: the straggler owns the fleet tail,
* **slow-hedged** — same straggler, hedging on: duplicate-after-p95
  requests are served as degraded rebuilds from stripe-mate devices.

The acceptance properties mirror "The Tail at Scale": the slow die must
inflate fleet p99/p99.9 severely, and hedging must claw back at least half
of that inflation while staying within its duplicate budget. A fourth
campaign kills a device mid-run and must finish with ≥ 99% command
success and zero corruption via cross-device RAID reconstruction.

The run also emits ``BENCH_fleet.json`` (fleet commands/sec simulated,
simulation events/sec wall) with conservative floors so CI catches a
collapse in simulator throughput.

Set ``REPRO_SMOKE=1`` to shrink the horizon for a seconds-long CI run
(same assertions).
"""

import time

from conftest import SMOKE, emit_bench, run_once

from repro.config import assasin_sb_config
from repro.fleet import FleetCampaign, FleetConfig
from repro.serve import TenantSpec

DURATION_NS = 2_000_000.0 if SMOKE else 4_000_000.0
SEED = 11
DEVICES = 8
SLOW_DEVICE = 1
SLOW_RATE = 0.2
SLOW_EXTRA_NS = 300_000.0

# Conservative floors for BENCH_fleet.json — tuned to catch a collapse,
# not a wobble (the observed rates carry an order of magnitude of margin;
# wall-clock is dominated by the ECC-coded flash preload, not the event loop).
MIN_SIM_EVENTS_PER_SEC = 50.0
MIN_FLEET_COMMANDS_PER_SEC = 10_000.0  # simulated-time service rate


def _tenants():
    return [
        TenantSpec(
            name="hot", weight=4.0, kind="scomp", kernel="stat",
            pages_per_command=4, interarrival_ns=20_000.0, region_pages=512,
        ),
        TenantSpec(
            name="reader", weight=1.0, kind="read",
            pages_per_command=4, interarrival_ns=15_000.0, region_pages=512,
        ),
        TenantSpec(
            name="writer", weight=1.0, kind="write",
            pages_per_command=4, interarrival_ns=40_000.0, region_pages=256,
        ),
    ]


def _campaign(hedging, slow, kill=False):
    cfg = FleetConfig(
        num_devices=DEVICES,
        hedging=hedging,
        slow_device=(SLOW_DEVICE if slow else -1),
        slow_read_rate=(SLOW_RATE if slow else 0.0),
        slow_read_extra_ns=SLOW_EXTRA_NS,
        kill_device=(2 if kill else -1),
        kill_at_ns=(DURATION_NS / 2 if kill else 0.0),
    )
    return FleetCampaign(
        assasin_sb_config(), cfg, tenants=_tenants(),
        duration_ns=DURATION_NS, seed=SEED, verify_integrity=kill,
    ).run()


def _run_trio():
    baseline = _campaign(hedging=True, slow=False)
    slow_unhedged = _campaign(hedging=False, slow=True)
    slow_hedged = _campaign(hedging=True, slow=True)
    return baseline, slow_unhedged, slow_hedged


def test_hedging_recovers_tail_inflation(benchmark):
    wall_start = time.perf_counter()
    baseline, unhedged, hedged = run_once(benchmark, _run_trio)
    wall = time.perf_counter() - wall_start
    print(f"\n--- baseline ---\n{baseline.render()}")
    print(f"\n--- slow, no hedge ---\n{unhedged.render()}")
    print(f"\n--- slow, hedged ---\n{hedged.render()}")

    # All three campaigns served the full workload correctly.
    for report in (baseline, unhedged, hedged):
        assert report.completed > (100 if SMOKE else 300)
        assert report.success_rate == 1.0
        assert report.corruption_events == 0

    # The slow die owns the fleet tail: p99 and p99.9 inflate severely.
    assert unhedged.p99_latency_ns >= 3.0 * baseline.p99_latency_ns
    assert unhedged.p999_latency_ns >= 3.0 * baseline.p999_latency_ns

    # Hedging recovers >= 50% of the inflation it was built to fight.
    for pct in (99.0, 99.9):
        inflation = unhedged.latency_percentile(pct) - baseline.latency_percentile(pct)
        recovered = unhedged.latency_percentile(pct) - hedged.latency_percentile(pct)
        assert inflation > 0
        assert recovered >= 0.5 * inflation, (
            f"p{pct}: recovered {recovered / 1e3:.1f} us of "
            f"{inflation / 1e3:.1f} us inflation"
        )

    # ... within its duplicate budget, and mostly winning.
    assert 0 < hedged.hedges_issued <= 0.11 * hedged.submitted
    assert hedged.hedge_win_rate >= 0.5

    _emit_bench(hedged, (baseline, unhedged, hedged), wall)


def test_device_loss_reconstructs_from_peers(benchmark):
    report = run_once(benchmark, lambda: _campaign(hedging=True, slow=False, kill=True))
    print(f"\n--- killed device ---\n{report.render()}")

    assert report.devices[2].dead
    assert report.success_rate >= 0.99
    assert report.corruption_events == 0
    # Every page the dead device held is reconstructable, bit-exactly.
    assert report.integrity_pages_checked > 0
    assert report.integrity_pages_bad == 0
    assert report.reconstructions > 0
    assert report.recovery_goodput_gbps > 0


def test_fleet_fingerprint_is_reproducible(benchmark):
    first = run_once(benchmark, lambda: _campaign(hedging=True, slow=True))
    second = _campaign(hedging=True, slow=True)
    assert first.fingerprint() == second.fingerprint()
    assert first.fingerprint_hex() == second.fingerprint_hex()


def _emit_bench(report, trio, wall_seconds):
    """Write BENCH_fleet.json and gate on conservative throughput floors."""
    payload = {
        "benchmark": "fleet_scale",
        "smoke": SMOKE,
        "devices": DEVICES,
        "seed": SEED,
        "duration_ns": DURATION_NS,
        "completed_commands": report.completed,
        "fleet_commands_per_sec_simulated": report.commands_per_second,
        "p99_latency_us": round(report.p99_latency_ns / 1e3, 1),
        "p999_latency_us": round(report.p999_latency_ns / 1e3, 1),
        "hedge_win_rate": round(report.hedge_win_rate, 3),
        "fingerprint": report.fingerprint_hex(),
    }
    emit_bench(
        "BENCH_fleet.json",
        payload,
        sim_events=sum(r.sim_events for r in trio),
        wall_seconds=wall_seconds,
        min_events_per_sec_wall=MIN_SIM_EVENTS_PER_SEC,
        rate_floors=[
            (
                "fleet commands/sec simulated",
                report.commands_per_second,
                MIN_FLEET_COMMANDS_PER_SEC,
            )
        ],
    )
