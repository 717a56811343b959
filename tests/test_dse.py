"""Tests for the design-space exploration harness (``repro.dse``).

Pins the sweep grid shape, per-point pricing plumbing, Pareto dominance
semantics, and — the acceptance-critical property — byte-identical JSON
reports across same-seed runs.
"""

import hashlib
import json

import pytest

from repro.config import DataSource
from repro.dse import (
    PointResult,
    SweepSpec,
    dominates,
    evaluate_point,
    mark_pareto,
    point_config,
    point_core,
    render_table,
    report_json,
    run_sweep,
)
from repro.errors import ConfigError

# A 2-point spec keeps unit runs fast; the full default grid is exercised
# once by the (MiB-scale) determinism test and by the benchmark job.
_TINY = SweepSpec(
    cores=(4,),
    geometries=("sb-S8P2", "sp"),
    pipeline_models=("static",),
    kernels=("stat",),
    data_bytes=1 << 20,
    sample_bytes=4 * 1024,
)


# ---------------------------------------------------------------------------
# Spec and geometry parsing
# ---------------------------------------------------------------------------

def test_default_grid_has_at_least_12_points():
    assert SweepSpec().num_points >= 12


def test_geometry_parsing():
    sb = point_core("sb-S4P2", "static")
    assert sb.streambuffer.num_streams == 4
    assert sb.streambuffer.pages_per_stream == 2
    assert sb.stream_isa and sb.data_source is DataSource.FLASH_STREAM
    sp = point_core("sp", "predictive")
    assert sp.pingpong is not None and sp.streambuffer is None
    assert sp.pipeline_model == "predictive"
    with pytest.raises(ConfigError, match="unknown geometry"):
        point_core("l1-32k", "static")


def test_point_config_carries_label_and_cores():
    cfg = point_config("sb-S8P2", 4, "predictive", "lbl")
    assert cfg.name == "lbl" and cfg.core.name == "lbl"
    assert cfg.num_cores == 4
    assert cfg.core.pipeline_model == "predictive"


def test_spec_validates_axes():
    with pytest.raises(ConfigError, match="at least one value"):
        SweepSpec(cores=())
    with pytest.raises(ConfigError, match="unknown geometry"):
        SweepSpec(geometries=("tape",))
    with pytest.raises(ConfigError, match="unknown pipeline model"):
        SweepSpec(pipeline_models=("oracle",))
    with pytest.raises(ConfigError, match="unknown arbitration"):
        SweepSpec(arbitrations=("fifo",))
    with pytest.raises(ConfigError, match="positive"):
        SweepSpec(data_bytes=0)


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------

def test_evaluate_point_prices_all_axes():
    point = evaluate_point(_TINY, 4, "sb-S8P2", "static", "wrr")
    assert point.label == "c4-sb-S8P2-static-wrr"
    assert point.perf_gbps > 0
    assert point.power_mw > 0 and point.area_mm2 > 0
    assert set(point.throughput_gbps) == {"stat"}
    assert point.instructions > 0 and point.sample_cycles > 0
    assert point.frequency_ghz == pytest.approx(1 / point.period_ns)
    assert point.serve_p99_us is None  # probe off for a 1-policy sweep


def test_predictive_point_differs_from_static():
    static = evaluate_point(_TINY, 4, "sb-S8P2", "static", "wrr")
    pred = evaluate_point(_TINY, 4, "sb-S8P2", "predictive", "wrr")
    assert pred.sample_cycles != static.sample_cycles
    assert pred.hazard_stall_cycles > 0
    # The predictor SRAM makes the predictive core cost real silicon.
    assert pred.power_mw > static.power_mw
    assert pred.area_mm2 > static.area_mm2


def test_serve_probe_runs_when_arbitrations_swept():
    spec = SweepSpec(
        cores=(4,), geometries=("sb-S8P2",), pipeline_models=("static",),
        arbitrations=("rr", "wrr"), kernels=("stat",),
        data_bytes=1 << 20, sample_bytes=4 * 1024,
    )
    point = evaluate_point(spec, 4, "sb-S8P2", "static", "rr")
    assert point.serve_p99_us is not None and point.serve_p99_us > 0


# ---------------------------------------------------------------------------
# Pareto dominance
# ---------------------------------------------------------------------------

def _pt(label, perf, power, area):
    return PointResult(
        label=label, num_cores=4, geometry="sp", pipeline_model="static",
        arbitration="wrr", period_ns=1.0, frequency_ghz=1.0,
        perf_gbps=perf, power_mw=power, area_mm2=area,
    )


def test_dominates_semantics():
    a = _pt("a", 2.0, 50.0, 1.0)
    worse = _pt("b", 1.0, 60.0, 2.0)
    tied = _pt("c", 2.0, 50.0, 1.0)
    tradeoff = _pt("d", 3.0, 80.0, 1.0)
    assert dominates(a, worse)
    assert not dominates(worse, a)
    assert not dominates(a, tied) and not dominates(tied, a)  # equal: neither
    assert not dominates(a, tradeoff) and not dominates(tradeoff, a)


def test_mark_pareto_keeps_only_non_dominated():
    pts = [
        _pt("best-perf", 3.0, 80.0, 2.0),
        _pt("best-power", 1.0, 40.0, 1.5),
        _pt("dominated", 0.9, 50.0, 1.6),
        _pt("balanced", 2.0, 60.0, 1.0),
    ]
    mark_pareto(pts)
    assert [p.label for p in pts if p.pareto] == [
        "best-perf", "best-power", "balanced"
    ]


def test_sweep_marks_a_nonempty_proper_frontier():
    result = run_sweep(_TINY)
    assert len(result.points) == _TINY.num_points == 2
    assert 1 <= len(result.pareto_points) <= len(result.points)


# ---------------------------------------------------------------------------
# Report determinism and rendering
# ---------------------------------------------------------------------------

def test_same_seed_reports_byte_identical():
    first = report_json(run_sweep(_TINY))
    second = report_json(run_sweep(_TINY))
    assert first == second


def test_report_round_trips_as_json():
    result = run_sweep(_TINY)
    report = json.loads(report_json(result))
    assert report["num_points"] == 2
    assert len(report["points"]) == 2
    assert set(report["pareto"]) <= {p["label"] for p in report["points"]}
    assert report["spec"]["kernels"] == ["stat"]
    for record in report["points"]:
        assert record["perf_gbps"] > 0


def test_render_table_stars_frontier_rows():
    result = run_sweep(_TINY)
    text = render_table(result)
    assert "Pareto frontier" in text
    starred = [ln for ln in text.splitlines() if ln.startswith("* ")]
    assert len(starred) == len(result.pareto_points)


#: sha256 of the report that ``python -m repro dse --cores 4 --sample-kib 8
#: --json report.json`` writes (values rounded to 6 places). The grid prices
#: both timing models, so this pins the predictive model's cycles by value:
#: a changed predictor or latency constant moves it.
SMOKE_REPORT_SHA256 = "ca5551b59cc4eeb69a433b2137e2b04176135c6787f9a896da560ff644de4c9a"


def test_cli_dse_smoke_report_is_pinned(tmp_path):
    from repro.__main__ import main

    report = tmp_path / "report.json"
    rc = main(["dse", "--cores", "4", "--sample-kib", "8", "--json", str(report)])
    assert rc == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == SMOKE_REPORT_SHA256


def test_cli_dse_smoke(capsys):
    from repro.__main__ import main

    rc = main([
        "dse", "--cores", "4", "--geometries", "sp",
        "--pipeline-models", "static", "--kernels", "stat",
        "--data-mib", "1", "--sample-kib", "4",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "c4-sp-static-wrr" in out and "Pareto frontier" in out
