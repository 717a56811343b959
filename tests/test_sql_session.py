"""SqlSession: extents, placement policies, serve integration, GC, REPL."""

import dataclasses
import io
import math

import pytest

from repro.analytics.schema import SCHEMA, TABLE_NAMES
from repro.config import assasin_sb_config
from repro.errors import SqlError
from repro.serve.workload import TenantSpec
from repro.sql.repl import SqlRepl, render_table
from repro.sql.session import MORSEL_PAGES, SQL_TENANT, QueryRecord, SqlSession


def make_session(**kwargs):
    kwargs.setdefault("gen_scale_factor", 0.002)
    kwargs.setdefault("duration_ns", 5e6)
    return SqlSession(**kwargs)


def test_extents_tile_the_tenant_region_contiguously():
    session = make_session()
    base = session.layer.region_base[SQL_TENANT]
    cursor = base
    page = session.device.config.flash.page_bytes
    for name in TABLE_NAMES:
        extent = session.extents[name]
        assert extent.base_lpa == cursor
        assert extent.pages == max(1, math.ceil(extent.text_bytes / page))
        cursor += extent.pages


def test_morsel_count_matches_extent_pages():
    session = make_session(policy="device")
    record = session.drain(session.submit("SELECT COUNT(*) AS n FROM lineitem"))
    extent = session.extents["lineitem"]
    assert record.commands == math.ceil(extent.pages / MORSEL_PAGES)


def test_policy_forces_placement_site():
    for policy, attr in (("host", "host_scans"), ("device", "device_scans")):
        session = make_session(policy=policy)
        record = session.drain(
            session.submit("SELECT COUNT(*) AS n FROM orders")
        )
        assert getattr(record, attr) == len(record.placements) == 1


def test_sql_tenant_appears_in_serve_report():
    session = make_session(policy="device")
    records = session.run_serial(
        ["SELECT COUNT(*) AS n FROM nation", "SELECT COUNT(*) AS n FROM region"]
    )
    report = session.finish()
    assert report.policy == session.policy
    sql_stats = report.serve.tenants[SQL_TENANT]
    assert sql_stats.completed == sum(r.commands for r in records)


def test_gc_fires_under_overwrite_traffic():
    cfg = assasin_sb_config()
    cfg = dataclasses.replace(
        cfg,
        flash=dataclasses.replace(
            cfg.flash,
            channels=4, chips_per_channel=2, dies_per_chip=1,
            planes_per_die=2, pages_per_block=64, blocks_per_plane=256,
        ),
    )
    writer = TenantSpec(
        name="writer", weight=1.0, kind="write", overwrite=True,
        pages_per_command=16, interarrival_ns=50_000.0, region_pages=2048,
    )
    session = make_session(
        config=cfg, policy="device", tenants=(writer,), duration_ns=3e7,
    )
    session.drain(session.submit("SELECT COUNT(*) AS n FROM lineitem"))
    session.finish()
    counters = session.layer.telemetry.counters
    assert counters.counter("gc.collections").value > 0
    assert counters.counter("gc.pages_relocated").value > 0


def test_invalid_policy_rejected():
    with pytest.raises(SqlError):
        make_session(policy="gpu")


def test_incomplete_record_has_no_latency_or_fingerprint():
    record = QueryRecord(sql="", policy="auto", submitted_ns=0.0)
    with pytest.raises(SqlError):
        record.latency_ns
    with pytest.raises(SqlError):
        record.fingerprint()


# -- REPL ------------------------------------------------------------------


def repl(**kwargs):
    out = io.StringIO()
    return SqlRepl(make_session(**kwargs), out=out), out


def test_repl_batch_runs_sql_and_prints_timing():
    shell, out = repl()
    code = shell.run_batch("SELECT COUNT(*) AS n FROM nation;")
    text = out.getvalue()
    assert code == 0
    assert "| 25 |" in text
    assert "ms simulated" in text
    assert "nation->" in text


def test_repl_batch_mixes_sql_and_backslash_commands():
    shell, out = repl()
    shell.run_batch(
        "SELECT COUNT(*) AS n FROM region;\n"
        "\\policy\n"
        "SELECT COUNT(*) AS n FROM nation;\n"
    )
    text = out.getvalue()
    assert "| 5 |" in text
    assert "placement policy: auto" in text
    assert "| 25 |" in text


def test_repl_reports_errors_without_raising():
    shell, out = repl()
    shell.run_batch("SELECT nope FROM nowhere;")
    assert "error:" in out.getvalue()


def test_repl_batch_reports_unknown_columns_and_runs_on():
    shell, out = repl()
    code = shell.run_batch(
        "SELECT n_name FROM nation WHERE n_nationkey > nosuch;\n"
        "SELECT l_orderkey FROM lineitem WHERE l_orderkey IN (l_partkey, 3);\n"
        "SELECT COUNT(*) AS n FROM region;\n"
    )
    text = out.getvalue()
    assert code == 0
    assert "error: unknown column 'nosuch'" in text
    assert "error: IN list item reads column 'l_partkey'" in text
    assert "| 5 |" in text


def test_repl_backslash_commands():
    shell, out = repl()
    assert shell.run_statement("\\tables")
    assert shell.run_statement("\\schema nation")
    assert shell.run_statement("\\policy")
    assert shell.run_statement("\\nonsense")
    assert not shell.run_statement("\\q")
    text = out.getvalue()
    assert "lineitem" in text
    assert "n_name" in text
    assert "placement policy: auto" in text
    assert "unknown command" in text


def test_repl_tpch_shortcut():
    shell, out = repl(gen_scale_factor=0.004)
    assert shell.run_statement("\\tpch 6")
    assert "revenue" in out.getvalue()
    shell.run_statement("\\tpch nope")
    assert "usage: \\tpch" in out.getvalue()


def test_repl_interactive_reads_until_semicolon():
    shell, out = repl()
    stdin = io.StringIO(
        "SELECT COUNT(*) AS n\nFROM region;\n\\policy\n\\q\n"
    )
    assert shell.run_interactive(stdin=stdin) == 0
    text = out.getvalue()
    assert "| 5 |" in text
    assert "placement policy" in text


def test_render_table_truncates_display_only():
    table = make_session().db["nation"]
    text = render_table(table, limit=10)
    assert "... 15 more rows" in text
    assert "(25 rows)" in text
