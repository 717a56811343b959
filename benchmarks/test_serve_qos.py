"""Serving-layer QoS bench: arbitration policy vs per-tenant p99 latency.

Three tenants offer identical scomp load (open-loop Poisson arrivals that
collectively overload the device by design). Under plain round-robin every
tenant sees the same queueing delay; under weighted round-robin and deficit
round-robin the weight-4 "gold" tenant takes a larger dispatch share, so its
p99 collapses while the weight-1 tenants absorb the backlog — the isolation
a multi-tenant computational SSD needs to honour latency SLOs.

The policy comparison emits ``BENCH_serve.json`` (commands/sec simulated,
sim events/sec of wall time) with conservative regression floors so the
smoke CI job catches a simulator-throughput collapse.
"""

import time

from conftest import emit_bench, run_once

from repro.config import ServeConfig, assasin_sb_config
from repro.serve import TenantSpec, simulate_serve

DURATION_NS = 1_500_000.0
SEED = 7

# Floors for BENCH_serve.json — tuned to catch a collapse, not a wobble
# (observed: ~270k commands/s simulated, ~8k events/s wall; the wall
# window includes the shared core-phase sampling pass).
MIN_COMMANDS_PER_SEC_SIMULATED = 30_000.0
MIN_SIM_EVENTS_PER_SEC_WALL = 1_000.0


def _tenants():
    make = lambda name, weight: TenantSpec(
        name=name, weight=weight, kind="scomp", kernel="stat",
        pages_per_command=4, interarrival_ns=9_000.0,
    )
    return [make("gold", 4.0), make("silver", 1.0), make("bronze", 1.0)]


def _run_policies():
    # The pricing memo shares one core-phase sampling pass across every
    # policy run, so the comparison differs only in arbitration.
    return {
        policy: simulate_serve(
            assasin_sb_config(),
            _tenants(),
            ServeConfig(arbitration=policy),
            duration_ns=DURATION_NS,
            seed=SEED,
        )
        for policy in ("rr", "wrr", "drr")
    }


def test_weighted_arbitration_shifts_p99(benchmark):
    wall_start = time.perf_counter()
    reports = run_once(benchmark, _run_policies)
    wall = time.perf_counter() - wall_start
    for policy, report in reports.items():
        print(f"\n--- {policy} ---\n{report.render()}")

    rr, wrr, drr = reports["rr"], reports["wrr"], reports["drr"]
    gold_rr = rr.tenants["gold"].p99_latency_ns
    gold_wrr = wrr.tenants["gold"].p99_latency_ns
    gold_drr = drr.tenants["gold"].p99_latency_ns

    # The acceptance property: same offered load, strictly lower p99 for the
    # higher-weight tenant under weighted arbitration than under round-robin.
    assert gold_wrr < gold_rr
    assert gold_drr < gold_rr
    # And materially so — weighted policies cut gold's p99 at least 3x here.
    assert gold_wrr * 3 < gold_rr
    assert gold_drr * 3 < gold_rr

    # Weighting is a trade, not magic: the light tenants pay under wrr/drr.
    assert wrr.tenants["silver"].p99_latency_ns > rr.tenants["silver"].p99_latency_ns

    # No starvation anywhere: every policy is work-conserving, so even the
    # lightest tenant keeps completing commands under weighted arbitration.
    for report in reports.values():
        for tenant in report.tenants.values():
            assert tenant.completed > 50, (report.policy, tenant.tenant)

    # Determinism across the whole comparison: rerunning rr reproduces it.
    again = simulate_serve(
        assasin_sb_config(),
        _tenants(),
        ServeConfig(arbitration="rr"),
        duration_ns=DURATION_NS,
        seed=SEED,
    )
    assert again.fingerprint() == rr.fingerprint()

    _emit_bench(reports, wall)


def _emit_bench(reports, wall_seconds):
    """Write BENCH_serve.json and gate on conservative throughput floors."""
    total_commands = sum(r.total_completed for r in reports.values())
    total_sim_ns = sum(r.horizon_ns for r in reports.values())
    commands_simulated = total_commands / (total_sim_ns * 1e-9)
    payload = {
        "benchmark": "serve_qos",
        "seed": SEED,
        "duration_ns": DURATION_NS,
        "policies": {
            policy: {
                "completed": report.total_completed,
                "dropped": report.total_dropped,
                "horizon_ns": round(report.horizon_ns, 1),
                "sim_events": report.sim_events,
                "gold_p99_us": round(
                    report.tenants["gold"].p99_latency_ns / 1e3, 2
                ),
            }
            for policy, report in reports.items()
        },
        "commands_per_sec_simulated": round(commands_simulated, 2),
    }
    emit_bench(
        "BENCH_serve.json",
        payload,
        sim_events=sum(r.sim_events for r in reports.values()),
        wall_seconds=wall_seconds,
        min_events_per_sec_wall=MIN_SIM_EVENTS_PER_SEC_WALL,
        rate_floors=[
            ("commands/sec simulated", commands_simulated, MIN_COMMANDS_PER_SEC_SIMULATED)
        ],
    )


def test_qos_preserves_aggregate_throughput(benchmark):
    """Arbitration reshuffles *who* waits, not how much work the device does:
    aggregate completed commands stay within a few percent across policies."""
    reports = run_once(benchmark, _run_policies)
    totals = {p: r.total_completed for p, r in reports.items()}
    low, high = min(totals.values()), max(totals.values())
    assert low > 0
    assert high <= low * 1.1, totals
