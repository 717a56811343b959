"""Tests of the benchmark itself, at smoke scale: ``python -m pytest bench -q``.

Each workload runs three times through ``bench/run.py``: untraced and
traced with one seed, untraced with another.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from compare import verdict  # noqa: E402
from repro.telemetry import validate_chrome_trace  # noqa: E402
from trace import Boundary, LayerTracer  # noqa: E402


def bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", "smoke", *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def runs(request, tmp_path_factory):
    """(stdout lines, result record) per (seed, trace) of one workload."""
    workload = request.param
    out_dir = tmp_path_factory.mktemp(workload)
    found = {}
    for seed, trace in ((1, 0), (1, 1), (2, 0)):
        out = out_dir / f"seed{seed}-trace{trace}.json"
        done = bench("--workload", workload, "--seed", str(seed),
                     "--trace", str(trace), "--out", str(out))
        assert done.returncode == 0, done.stderr
        found[seed, trace] = (done.stdout.splitlines(), json.loads(out.read_text()))
    return workload, found


def test_every_metric_is_printed_with_its_unit(runs):
    workload, found = runs
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        lines, _ = found[1, trace]
        final = json.loads(lines[-1])
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert set(final["metrics"]) == {m["name"] for m in SPEC[kind]}
        printed = {tuple(line.split()[1::2]) for line in lines[:-1]}
        for metric in SPEC[kind]:
            assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert (metric["name"], metric["unit"]) in printed
    for metric in SPEC["end_to_end"]:
        assert found[1, 0][1]["metrics"][metric["name"]] > 0


def test_no_op_fails(runs):
    _, found = runs
    for _, record in found.values():
        assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0


def test_digest_is_stable_across_tracing_and_differs_across_seeds(runs):
    _, found = runs
    assert found[1, 0][1]["digest"] == found[1, 1][1]["digest"]
    assert found[1, 0][1]["digest"] != found[2, 0][1]["digest"]


def test_trace_file_is_valid_chrome_trace(runs):
    _, found = runs
    trace = json.loads(Path(found[1, 1][1]["trace_file"]).read_text())
    assert validate_chrome_trace(trace) == []
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"op", "setup", "run", "CoreModel.run"} <= names


def test_gc_passes_are_timed_as_ftl(runs):
    workload, found = runs
    if workload != "sql_tpch":
        pytest.skip("only sql_tpch collects garbage")
    layers = found[1, 1][1]["layers"]
    assert layers["ftl.gc_collections"] > 0
    assert 0 < layers["ftl.gc_s"] <= layers["ftl.self_s"]


def test_generator_boundary_is_timed_at_each_resumption():
    def process(steps):
        for _ in range(steps):
            deadline = time.perf_counter() + 0.01
            while time.perf_counter() < deadline:
                pass
            yield
        return "done"

    tracer = LayerTracer()
    traced = tracer._wrap(process, Boundary("process", "ftl", "", None, "process"))
    with tracer.frame("op"):
        generator = traced(3)
        assert list(generator) == [None] * 3
    assert tracer.aggs["process"].count == 1
    assert tracer.aggs["process"].self >= 0.03
    assert tracer.layer_self["ftl"] >= 0.03


def _standard_command(*args):
    return [sys.executable, *SPEC["command"][1:], "--workload", "zns_lsm", "--seed", "1",
            "--trace", "0", *args]


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        _standard_command("--seconds", str(SPEC["run_seconds"])),
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_refuses_another_run_length():
    done = subprocess.run(
        _standard_command("--seconds", str(SPEC["run_seconds"] + 1)),
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode != 0
    assert "run_seconds" in done.stderr and "correct" not in done.stdout


@pytest.mark.parametrize(
    "change, expected",
    [
        ([x * 0.8 for x in range(100, 110)], "win"),
        ([x * 1.3 for x in range(100, 110)], "regression"),
        ([100 + (x % 2) * 40 for x in range(10)], "unresolved"),
        ([x + 0.5 for x in range(100, 110)], "within bound"),
    ],
)
def test_compare_verdicts(change, expected):
    parent = list(range(100, 110))
    assert verdict(parent, change, "lower", 0.1, failures_rose=False)[0] == expected
