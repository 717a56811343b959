"""Design-space exploration sweep benchmark (``BENCH_dse.json``).

Runs the default DSE grid (cores × geometry × pipeline model, 12 points)
end to end — per-point clocking, kernel sampling on the fast engine,
offload extrapolation, power/area costing, Pareto marking — and gates two
conservative throughput floors:

* ``points_per_sec_wall``: evaluated design points per wall second (the
  sweep-harness overhead gate);
* ``sim_events_per_sec_wall``: retired instructions across all sampled
  kernel runs per wall second (the core-simulation gate — a fast engine
  that silently fell back to the reference loop fails here).

Determinism rides along: the same spec must produce a byte-identical JSON
report twice in-process (CI additionally double-runs the CLI and ``cmp``s
the artifacts).

Set ``REPRO_SMOKE=1`` to shrink the sample windows for a seconds-long CI
smoke run (the grid shape is kept: all 12 points still evaluate).
"""

import time

from conftest import SMOKE, emit_bench, run_once

from repro.dse import SweepSpec, report_json, run_sweep

SAMPLE_BYTES = (8 if SMOKE else 16) * 1024
DATA_BYTES = 8 << 20
SEED = 7

#: Conservative floors (observed on a 2-vCPU x86 host: 2.5-3.8 points/s
#: and 0.4-0.6M instr/s at the full sample size, most of it the predictive
#: model's ALU costing and the offload replay; CI boxes are slower and shared).
MIN_POINTS_PER_SEC = 0.25
MIN_INSTR_PER_SEC = 30_000.0

SPEC = SweepSpec(
    sample_bytes=SAMPLE_BYTES,
    data_bytes=DATA_BYTES,
    seed=SEED,
)


def test_dse_sweep_meets_floors(benchmark):
    start = time.perf_counter()
    result = run_once(benchmark, run_sweep, SPEC)
    wall = time.perf_counter() - start

    assert len(result.points) == SPEC.num_points >= 12
    frontier = result.pareto_points
    assert 1 <= len(frontier) < len(result.points)
    # Perf/power/area all priced on every point; predictive points must
    # actually exercise the predictive machinery.
    for point in result.points:
        assert point.perf_gbps > 0 and point.power_mw > 0 and point.area_mm2 > 0
        if point.pipeline_model == "predictive":
            assert point.hazard_stall_cycles > 0

    instructions = sum(p.instructions for p in result.points)
    points_per_sec = len(result.points) / max(wall, 1e-9)

    emit_bench(
        "BENCH_dse.json",
        {
            "benchmark": "dse_sweep",
            "smoke": SMOKE,
            "seed": SEED,
            "sample_bytes": SAMPLE_BYTES,
            "num_points": len(result.points),
            "pareto_points": sorted(p.label for p in frontier),
            "points_per_sec_wall": round(points_per_sec, 3),
            "best_perf_gbps": round(max(p.perf_gbps for p in result.points), 3),
            "total_instructions": instructions,
        },
        sim_events=instructions,
        wall_seconds=wall,
        min_events_per_sec_wall=MIN_INSTR_PER_SEC,
        rate_floors=[("points_per_sec_wall", points_per_sec, MIN_POINTS_PER_SEC)],
    )


def test_dse_report_deterministic(benchmark):
    first = run_once(benchmark, lambda: report_json(run_sweep(SPEC)))
    second = report_json(run_sweep(SPEC))
    assert first == second
