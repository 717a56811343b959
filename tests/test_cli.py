"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list_command(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "stat" in out and "AssasinSb" in out


def test_offload_command(capsys):
    code, out = run_cli(
        capsys, "offload", "--kernel", "scan", "--config", "AssasinSb", "--data-mib", "4"
    )
    assert code == 0
    assert "throughput" in out and "GB/s" in out
    assert "AssasinSb" in out


def test_offload_with_skew(capsys):
    code, out = run_cli(
        capsys, "offload", "--kernel", "scan", "--config", "AssasinSb",
        "--data-mib", "4", "--skew", "1.0",
    )
    assert code == 0
    # All data on one channel caps the device at ~1 GB/s.
    line = next(l for l in out.splitlines() if "throughput" in l)
    gbps = float(line.split(":")[1].split("GB/s")[0])
    assert gbps <= 1.05


SERVE_ARGS = (
    "serve",
    "--tenants",
    "hot:4:scomp:stat:4:10,batch:1:scomp:scan:8:25,reader:1:read:-:4:15",
    "--duration-us", "300",
    "--seed", "11",
)


def test_serve_command_mixed_tenants(capsys):
    code, out = run_cli(capsys, *SERVE_ARGS)
    assert code == 0
    assert "policy=wrr" in out
    assert "hot" in out and "batch" in out and "reader" in out
    assert "scomp" in out and "read" in out
    assert "p99 us" in out and "core util" in out


def test_serve_command_is_deterministic(capsys):
    _, first = run_cli(capsys, *SERVE_ARGS)
    _, second = run_cli(capsys, *SERVE_ARGS)
    assert first == second


def test_serve_policy_flag(capsys):
    code, out = run_cli(capsys, *SERVE_ARGS, "--policy", "drr")
    assert code == 0
    assert "policy=drr" in out


def test_serve_rejects_bad_tenant_spec(capsys):
    with pytest.raises(SystemExit):
        main(["serve", "--tenants", "only-a-name"])


FAULTS_ARGS = ("faults", "--duration-us", "100", "--seed", "7")


def test_faults_command(capsys):
    code, out = run_cli(capsys, *FAULTS_ARGS)
    assert code == 0  # exit status reflects campaign health
    assert "fault campaign" in out and "HEALTHY" in out
    assert "integrity" in out and "golden data" in out


def test_faults_command_is_deterministic(capsys):
    _, first = run_cli(capsys, *FAULTS_ARGS)
    _, second = run_cli(capsys, *FAULTS_ARGS)
    assert first == second


def test_faults_baseline_comparison(capsys):
    code, out = run_cli(capsys, *FAULTS_ARGS, "--baseline")
    assert code == 0
    assert "vs clean baseline" in out and "goodput" in out


@pytest.mark.parametrize("number", ["1", "2", "3", "4"])
def test_table_commands(capsys, number):
    code, out = run_cli(capsys, "table", number)
    assert code == 0
    assert f"Table" in out


def test_figure_20_command(capsys):
    code, out = run_cli(capsys, "figure", "20")
    assert code == 0
    assert "SB head FIFO" in out


def test_figure_5_command(capsys):
    code, out = run_cli(capsys, "figure", "5")
    assert code == 0
    assert "cycle decomposition" in out


def test_tpch_command(capsys):
    code, out = run_cli(capsys, "tpch", "6", "--scale-factor", "0.002")
    assert code == 0
    assert "Q 6" in out


def test_tpch_policy_flag_forces_site(capsys):
    code, out = run_cli(
        capsys, "tpch", "6", "--scale-factor", "0.002", "--policy", "host"
    )
    assert code == 0
    assert "[H]" in out
    code, out = run_cli(
        capsys, "tpch", "6", "--scale-factor", "0.002", "--policy", "device"
    )
    assert code == 0
    assert "[D]" in out


def test_tpch_command_is_deterministic(capsys):
    args = ("tpch", "6", "14", "--scale-factor", "0.002", "--seed", "11")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_sql_execute_flag(capsys):
    code, out = run_cli(
        capsys, "sql", "-e", "SELECT COUNT(*) AS n FROM nation",
        "--scale-factor", "0.002",
    )
    assert code == 0
    assert "| 25 |" in out
    assert "ms simulated" in out


def test_sql_file_batch(tmp_path, capsys):
    script = tmp_path / "queries.sql"
    script.write_text(
        "SELECT COUNT(*) AS n FROM region;\n"
        "SELECT n_name FROM nation ORDER BY n_name LIMIT 1;\n"
    )
    code, out = run_cli(
        capsys, "sql", "-f", str(script), "--scale-factor", "0.002"
    )
    assert code == 0
    assert "| 5 |" in out
    assert "ALGERIA" in out


def test_sql_with_background_tenants(capsys):
    code, out = run_cli(
        capsys, "sql", "-e", "SELECT COUNT(*) AS n FROM orders",
        "--scale-factor", "0.002", "--policy", "device",
        "--tenants", "hot:4:scomp:stat:4:50",
    )
    assert code == 0
    assert "orders->device" in out


def test_unknown_figure_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "99"])


def test_reproduce_writes_report(tmp_path, capsys, monkeypatch):
    # Patch the step list down to the fast static tables to keep this quick.
    from repro.experiments import runner, tables

    monkeypatch.setattr(
        runner,
        "_steps",
        lambda fast: [("Table I", tables.render_table1), ("Table II", tables.render_table2)],
    )
    out_file = tmp_path / "report.txt"
    code, out = run_cli(capsys, "reproduce", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert "### Table I" in text and "### Table II" in text


def test_trace_command_writes_valid_chrome_json(tmp_path, capsys):
    import json

    from repro.telemetry import validate_chrome_trace

    out_file = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "trace", "--duration-us", "120", "--out", str(out_file), "--counters"
    )
    assert code == 0
    assert "trace written" in out and "span tracks" in out
    assert "perfetto" in out.lower()
    assert "flash.reads_served" in out  # --counters dump
    trace = json.loads(out_file.read_text())
    assert validate_chrome_trace(trace) == []


#: sha256 of the trace file and of the counter dump that
#: ``trace --duration-us 120 --counters`` writes (default tenants, seed 42).
#: The flash ``xfer`` spans and ``flash.*`` counters are in both, so a
#: change to the page path's timing or tallies shows here.
TRACE_SHA256 = "aca18354971b0f44bfaac8a000ced0967d5abbdb51c83deab833a08009e2c6a0"
COUNTERS_SHA256 = "19aba43617659ebd864ca638ad555e053ea43fbc8a17e26f62789bb621f3c71f"


def test_trace_command_output_is_pinned(tmp_path, capsys):
    import hashlib

    out_file = tmp_path / "trace.json"
    code, out = run_cli(
        capsys, "trace", "--duration-us", "120", "--counters", "--out", str(out_file)
    )
    assert code == 0
    counters = out[out.index("\nflash.") + 1:]
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == TRACE_SHA256
    assert hashlib.sha256(counters.encode()).hexdigest() == COUNTERS_SHA256


def test_trace_command_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code, _ = run_cli(
            capsys, "trace", "--duration-us", "120", "--seed", "42", "--out", str(path)
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


FLEET_TENANTS = (
    "hot:4:scomp:stat:4:12:256,reader:1:read:-:4:10:256,writer:1:write:-:4:30:128"
)
FLEET_ARGS = (
    "fleet", "--devices", "4", "--seed", "7",
    "--tenants", FLEET_TENANTS, "--duration-us", "250",
)


def test_fleet_command(capsys):
    code, out = run_cli(capsys, *FLEET_ARGS)
    assert code == 0
    assert "devices=4" in out and "placement=hash" in out and "hedging=on" in out
    assert "fleet tail" in out and "p99.9" in out
    assert "skew" in out and "fingerprint" in out


def test_fleet_command_is_deterministic(capsys):
    _, first = run_cli(capsys, *FLEET_ARGS)
    _, second = run_cli(capsys, *FLEET_ARGS)
    assert first == second


def test_fleet_kill_device_recovers(capsys):
    code, out = run_cli(
        capsys, *FLEET_ARGS, "--kill-device", "1", "--kill-at-us", "100"
    )
    assert code == 0  # exit status reflects integrity of the sweep
    assert "integrity" in out and "[OK]" in out
    assert "cross-device rebuilds" in out


def test_fleet_no_hedge_flag(capsys):
    code, out = run_cli(capsys, *FLEET_ARGS, "--no-hedge")
    assert code == 0
    assert "hedging=off" in out


ZNS_ARGS = ("zns", "--duration-us", "500", "--seed", "7", "--policy", "device")


def test_zns_command_is_deterministic(capsys):
    code, first = run_cli(capsys, *ZNS_ARGS)
    _, second = run_cli(capsys, *ZNS_ARGS)
    assert code == 0
    assert "zns campaign  : policy=device seed=7" in first
    assert "fingerprint" in first
    assert first == second


def test_profile_command_prints_attribution(capsys):
    code, out = run_cli(capsys, "profile", "--kernel", "scan", "--top", "5")
    assert code == 0
    assert "profile scan on AssasinSb" in out
    assert "attribution" in out and "compute" in out


def test_profile_command_aes_memory_config(capsys):
    code, out = run_cli(
        capsys, "profile", "--kernel", "aes", "--config", "Baseline", "--sample-kib", "32"
    )
    assert code == 0
    assert "profile aes on Baseline" in out
