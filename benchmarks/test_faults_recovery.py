"""Fault-recovery bench: p99 latency and goodput under a fault campaign.

One seeded campaign injects correctable noise, uncorrectable bursts
(transient and permanent), and slow-die latency outliers into ~1% of read
pages while a read + scomp tenant mix runs; an identical clean run is the
baseline. The acceptance properties are the ones a storage array actually
ships against:

* ≥ 99% of commands complete successfully (inline ECC, read-retry, or
  RAID-group reconstruction) — no fault class leaks to the host,
* zero corruption: every byte served (and every page left on the device)
  matches the golden copy programmed at preload,
* recovery is paid for in the tail, not correctness: faulty p99 ≥ clean
  p99 while goodput stays within a modest factor,
* determinism: the same seed reproduces the campaign fingerprint exactly.

The campaign emits ``BENCH_faults.json`` (commands/sec simulated, sim
events/sec of wall time) with conservative regression floors so the
smoke CI job catches a simulator-throughput collapse.

Set ``REPRO_SMOKE=1`` to shrink the campaign to a seconds-long CI smoke
run (fewer pages, shorter horizon, same assertions).
"""

import time

from conftest import SMOKE, emit_bench, run_once

from repro.config import FaultConfig, ServeConfig, assasin_sb_config
from repro.faults import FaultCampaign
from repro.serve import TenantSpec, simulate_serve

DURATION_NS = 200_000.0 if SMOKE else 1_500_000.0
REGION_PAGES = 64 if SMOKE else 256
SEED = 11

FAULTS = FaultConfig(
    seed=SEED,
    page_error_rate=0.02,
    uncorrectable_rate=0.01,  # ≤ 1% of read pages go uncorrectable
    transient_fraction=0.5,
    slow_read_rate=0.02,
    raid_k=4,
)
SERVE = ServeConfig(arbitration="wrr")

# Floors for BENCH_faults.json — tuned to catch a collapse, not a wobble
# (observed: ~60-100k commands/s simulated; ~200-600 events/s wall, the
# wall window being dominated by golden-copy preload and the post-run
# integrity sweep rather than the event loop itself).
MIN_COMMANDS_PER_SEC_SIMULATED = 5_000.0
MIN_SIM_EVENTS_PER_SEC_WALL = 20.0


def _tenants():
    return [
        TenantSpec(
            name="reader", weight=2.0, kind="read",
            pages_per_command=4, interarrival_ns=15_000.0,
            region_pages=REGION_PAGES,
        ),
        TenantSpec(
            name="scanner", weight=1.0, kind="scomp", kernel="scan",
            pages_per_command=8, interarrival_ns=40_000.0,
            region_pages=REGION_PAGES,
        ),
    ]


def _run_pair():
    campaign = FaultCampaign(
        assasin_sb_config(), FAULTS, tenants=_tenants(),
        serve_config=SERVE, duration_ns=DURATION_NS, seed=SEED,
    ).run()
    clean = simulate_serve(
        assasin_sb_config(), _tenants(), SERVE, duration_ns=DURATION_NS, seed=SEED,
    )
    return campaign, clean


def test_recovery_keeps_serving_under_faults(benchmark):
    wall_start = time.perf_counter()
    campaign, clean = run_once(benchmark, _run_pair)
    wall = time.perf_counter() - wall_start
    print(f"\n--- faulty ---\n{campaign.render()}")
    print(f"\n--- clean ---\n{clean.render()}")

    faulty = campaign.serve

    # The device kept serving: ≥99% command success under ~1% uncorrectable.
    assert faulty.total_completed > 0
    assert faulty.success_rate >= 0.99
    # ... and served only correct bytes, during the run and after it.
    assert campaign.corruption_events == 0
    assert campaign.integrity_errors == 0
    assert campaign.healthy

    # The recovery machinery actually fired (this is not a vacuous pass).
    counters = campaign.recovery_counters
    assert counters.get("corrected_pages", 0) > 0
    if not SMOKE:
        assert counters.get("uncorrectable_reads", 0) > 0
        assert (
            counters.get("retry_recovered_pages", 0)
            + counters.get("reconstructed_pages", 0)
            > 0
        )

    # Recovery costs tail latency, not correctness: the faulty run is never
    # faster than clean, and goodput degrades boundedly.
    for name, tenant in clean.tenants.items():
        assert faulty.tenants[name].p99_latency_ns >= tenant.p99_latency_ns * 0.999
    assert faulty.goodput_gbps > 0
    assert faulty.goodput_gbps <= clean.goodput_gbps * 1.001
    assert faulty.goodput_gbps >= clean.goodput_gbps * 0.5

    # Any RAID rebuilds were timed and show up in the report.
    if counters.get("reconstructed_pages", 0):
        assert len(faulty.reconstruction_ns) == counters["reconstructed_pages"]
        assert faulty.reconstruction_p99_ns > 0

    _emit_bench(campaign, clean, wall)


def _emit_bench(campaign, clean, wall_seconds):
    """Write BENCH_faults.json and gate on conservative throughput floors."""
    runs = {"faulty": campaign.serve, "clean": clean}
    total_commands = sum(r.total_completed for r in runs.values())
    total_sim_ns = sum(r.horizon_ns for r in runs.values())
    commands_simulated = total_commands / (total_sim_ns * 1e-9)
    payload = {
        "benchmark": "faults_recovery",
        "smoke": SMOKE,
        "seed": SEED,
        "duration_ns": DURATION_NS,
        "runs": {
            name: {
                "completed": report.total_completed,
                "failed": report.total_failed,
                "recovered": report.total_recovered,
                "success_rate": round(report.success_rate, 6),
                "horizon_ns": round(report.horizon_ns, 1),
                "sim_events": report.sim_events,
                "goodput_gbps": round(report.goodput_gbps, 4),
            }
            for name, report in runs.items()
        },
        "recovery_counters": dict(campaign.recovery_counters),
        "commands_per_sec_simulated": round(commands_simulated, 2),
    }
    emit_bench(
        "BENCH_faults.json",
        payload,
        sim_events=sum(r.sim_events for r in runs.values()),
        wall_seconds=wall_seconds,
        min_events_per_sec_wall=MIN_SIM_EVENTS_PER_SEC_WALL,
        rate_floors=[
            ("commands/sec simulated", commands_simulated, MIN_COMMANDS_PER_SEC_SIMULATED)
        ],
    )


def test_campaign_fingerprint_is_reproducible(benchmark):
    first = run_once(
        benchmark,
        lambda: FaultCampaign(
            assasin_sb_config(), FAULTS, tenants=_tenants(),
            serve_config=SERVE, duration_ns=DURATION_NS, seed=SEED,
        ).run(),
    )
    second = FaultCampaign(
        assasin_sb_config(), FAULTS, tenants=_tenants(),
        serve_config=SERVE, duration_ns=DURATION_NS, seed=SEED,
    ).run()
    assert first.fingerprint() == second.fingerprint()
